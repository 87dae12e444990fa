"""netchoice: temporal author-interaction networks and initiation choice models.

The pipeline in one breath: ingest interaction/update logs, project them into
a directed author->author stream, replay that stream through a temporal graph,
classify each first edge (initiation) by its component context, frame
initiations as negative-sampled discrete choices, and estimate conditional
logit / logistic / least-squares models with full inference — plus BBSE
label-shift correction for classifier-derived prevalences.
"""

from .authors import (
    ActivityFeatures,
    AuthorDirectory,
    AuthorRecord,
    GeoPost,
    aggregate_role,
    assign_health_condition,
    assign_state,
    cohens_kappa,
    shared_account,
    shared_health_condition,
)
from .choices import (
    ChoiceInstance,
    SamplerConfig,
    SynthConfig,
    build_choice_sets,
    build_features,
    censored_log,
    choice_set_features,
    eligible_candidates,
    sample_negatives,
    synth_generate,
    temporal_split,
)
from .estimators import (
    FitResult,
    TestResult,
    design_matrix,
    f_test_nested,
    logistic_fit,
    lr_test_nested,
    mnl_accuracy,
    mnl_fit,
    mnl_gradient,
    mnl_hessian,
    mnl_loglik,
    mnl_probabilities,
    odds_ratio,
    ols_fit,
)
from .events import (
    DirectedInteraction,
    DirectedInteractionLog,
    EventLog,
    InteractionEvent,
    LogVocab,
    UpdateEvent,
    UpdateLog,
    filter_self_interactions,
    load_events,
    load_logs,
    load_updates,
    project_to_author_edges,
    resolve_amp_timestamps,
    unique_pair_count,
)
from .graph import TemporalGraph, build, largest_wcc_share_series
from .initiations import (
    Initiation,
    Initiations,
    InitiationType,
    classify_initiation,
    classify_initiations,
    extract_initiations,
    initiations_from_interactions,
    reciprocation_rate_by_role,
    timeline_stats,
)
from .labelshift import (
    ConfusionJoint,
    ShiftEstimate,
    bbse_weights,
    confusion_from_holdout,
    corrected_priors,
    estimate_shift,
    fold_proportion,
)

__version__ = "0.1.0"
