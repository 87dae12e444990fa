"""Discrete-choice framing of initiations.

Every initiation becomes a choice instance: the initiator picks one receiver
from a risk set of candidates, represented by the actual receiver plus a
small uniform sample of negatives. Feature vectors are assembled against the
graph state strictly before the initiation, so nothing about the choice leaks
into its own features.

The module also houses a synthetic growth generator: a sequential process in
which a uniformly drawn chooser picks a receiver by softmax over true
coefficients, used to validate the conditional-logit estimator end to end.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .authors import _ZERO_ACTIVITY, AuthorDirectory, ROLE_MIXED, ROLE_PATIENT
from .events import SchemaError, _json_lines
from .graph import TemporalGraph

FEATURE_NAMES = (
    "censored_log_target_outdegree",
    "target_has_indegree",
    "censored_log_target_indegree",
    "is_reciprocal",
    "is_weakly_connected",
    "is_friend_of_friend",
    "target_author_type_mixed",
    "target_author_type_p",
    "is_author_type_shared",
    "is_health_condition_shared",
    "target_is_multisite_author",
    "target_is_mixedsite_author",
    "target_update_count",
    "target_update_frequency",
    "target_days_since_most_recent_update",
    "target_days_since_first_update",
)
STATE_FEATURE = "is_state_assignment_shared"

NETWORK_FEATURE_NAMES = FEATURE_NAMES[:6]

_DRAW_BATCH = 64  # indices per rng call in sample_negatives; fixed, so draws never depend on n


class UnknownCandidateError(ValueError):
    """The candidate is not an activated author at the requested time."""


@dataclass
class ChoiceInstance:
    """One initiation framed as a discrete choice over sampled alternatives."""

    chooser: object
    time: int
    alternatives: list
    chosen: int
    X: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if len(self.alternatives) < 2:
            raise ValueError("a choice needs at least 2 alternatives")
        if not 0 <= self.chosen < len(self.alternatives):
            raise ValueError("chosen index out of range")
        if self.X.shape != (len(self.alternatives), len(self.feature_names)):
            raise ValueError(f"feature matrix shape {self.X.shape} does not match instance")
        if not np.isfinite(self.X).all():
            raise ValueError("feature matrix contains non-finite values")


@dataclass(frozen=True)
class SamplerConfig:
    """Negative-sampling settings; 24 negatives is the package default."""

    n_negatives: int = 24
    seed: int = 0

    def __post_init__(self):
        if self.n_negatives < 1:
            raise ValueError("n_negatives must be >= 1")


@dataclass(frozen=True)
class SkippedChoice:
    """An initiation that could not become a choice instance, with the reason."""

    initiator: object
    receiver: object
    time: int
    reason: str


def eligible_candidates(graph: TemporalGraph, directory: AuthorDirectory | None, chooser, t) -> set:
    """Risk set at time ``t``: authors activated strictly before ``t``.

    Activation is the earlier of the first update and the first interaction,
    so authors who only ever interact are still eligible targets. The chooser
    and the chooser's existing targets are excluded — an initiation is by
    definition a first edge. Advances the graph cursor to ``t``.
    """
    graph.advance_to(t)
    candidates = set(graph.nodes_activated_before(t))
    if directory is not None:
        candidates.update(a for a, first in directory.first_update_times().items() if first < t)
    candidates.discard(chooser)
    candidates -= graph.out_neighbors(chooser)
    return candidates


def sample_negatives(pool, n: int, seed, exclude=frozenset(), k=None) -> list:
    """Uniform sample without replacement from ``pool[:k]`` minus ``exclude``.

    ``k`` defaults to the whole pool; a pool that is not a sequence (a
    set) is sorted first. Every member of ``exclude`` must lie in
    ``pool[:k]``, so ``k - len(exclude)`` members are left to draw
    from; all of them come back when there are ``n`` or fewer.

    Indices are drawn uniformly in batches of a fixed size and rejected when
    excluded or already drawn, so the cost is O(n + len(exclude)) however
    long the pool. When more than half of the prefix is excluded, the rest
    is enumerated and permuted instead; that choice depends on the sizes
    only, never on ``n``.

    Deterministic for a given seed, and prefix-stable: the n-sample is a
    prefix of the (n+1)-sample under the same seed, so enlarging a choice set
    never reshuffles what was already drawn.
    """
    if not isinstance(pool, Sequence):
        pool = sorted(pool)
    k = len(pool) if k is None else k
    available = k - len(exclude)
    take = min(n, available)
    if take <= 0:
        return []
    rng = np.random.default_rng(seed)
    if 2 * available < k:
        rest = [x for x in islice(pool, k) if x not in exclude]
        return [rest[i] for i in rng.permutation(len(rest))[:take]]
    drawn: list = []
    seen: set = set()
    while True:
        for i in rng.integers(0, k, size=_DRAW_BATCH).tolist():
            if i in seen:
                continue
            seen.add(i)
            x = pool[i]
            if x not in exclude:
                drawn.append(x)
                if len(drawn) == take:
                    return drawn


def censored_log(x: float, minimum: float) -> float:
    """log(max(x, minimum)); keeps zero-degree candidates representable."""
    return math.log(max(x, minimum))


def build_features(
    chooser,
    candidate,
    t,
    graph: TemporalGraph,
    directory: AuthorDirectory | None,
    include_state: bool = False,
) -> np.ndarray:
    """Feature vector for one (chooser, candidate) pair at time ``t``.

    The one-row case of :func:`choice_set_features`. Advances the graph
    cursor to ``t`` (it must not already be past it). Dimension is 16, or 17
    with the shared-state dummy enabled.
    """
    return choice_set_features(chooser, [candidate], t, graph, directory, include_state)[0]


def choice_set_features(
    chooser,
    alternatives,
    t,
    graph: TemporalGraph,
    directory: AuthorDirectory | None,
    include_state: bool = False,
) -> np.ndarray:
    """Feature matrix of one choice set: row ``i`` describes ``alternatives[i]`` at ``t``.

    Advances the graph cursor to ``t`` (it must not already be past it). The
    chooser's side -- in-neighbours, undirected neighbours and weak-component
    root -- is read once, so each row's network columns cost O(1) plus the
    alternative's degree.
    """
    graph.advance_to(t)
    targets, sources = graph.adjacency(chooser)
    chooser_in = set(sources)
    chooser_und = chooser_in.union(targets)
    chooser_root = graph.wcc_root(chooser)
    chooser_role = directory.role(chooser) if directory is not None else None
    rows = []
    for candidate in alternatives:
        if directory is None or candidate not in directory:
            if graph.activation_time(candidate) is None:
                raise UnknownCandidateError(f"candidate {candidate!r} has no activity at any time")
        cand_targets, cand_sources = graph.adjacency(candidate)
        out_deg, in_deg = len(cand_targets), len(cand_sources)
        if directory is not None:
            role = directory.role(candidate)
            activity = directory.activity_features(candidate, t)
            shared_condition = directory.shared_condition(chooser, candidate)
        else:
            role = None
            activity = _ZERO_ACTIVITY
            shared_condition = 0
        # A common undirected neighbour is never the candidate or the chooser
        # themselves: the graph has no self-edges.
        friend_of_friend = not (chooser_und.isdisjoint(cand_targets) and chooser_und.isdisjoint(cand_sources))
        values = [
            censored_log(out_deg, 1.0),
            float(in_deg > 0),
            censored_log(in_deg, 1.0),
            float(candidate in chooser_in),
            float(candidate == chooser or graph.wcc_root(candidate) == chooser_root),
            float(friend_of_friend),
            float(role == ROLE_MIXED),
            float(role == ROLE_PATIENT),
            float(role is not None and role == chooser_role),
            float(shared_condition),
            float(activity.is_multisite),
            float(activity.is_mixedsite),
            float(activity.update_count),
            activity.update_frequency,
            activity.days_since_most_recent_update,
            activity.days_since_first_update,
        ]
        if include_state:
            values.append(float(directory.shared_state(chooser, candidate)) if directory is not None else 0.0)
        rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(feature_names(include_state)))


def feature_names(include_state: bool = False) -> tuple:
    return FEATURE_NAMES + (STATE_FEATURE,) if include_state else FEATURE_NAMES


def build_choice_sets(
    initiations,
    graph: TemporalGraph,
    directory: AuthorDirectory | None,
    sampler: SamplerConfig,
    include_state: bool = False,
) -> tuple[list[ChoiceInstance], list[SkippedChoice]]:
    """Replay initiations chronologically into sampled choice instances.

    The graph must be freshly built (not yet advanced): each instance's
    features reflect the state strictly before its initiation. Initiations
    whose receiver is not yet an eligible candidate, or with no negative
    left to sample, are skipped and reported.

    The directory's first-update times are registered on the graph first (a
    no-op when the graph was built with them as ``extra_nodes``). The risk
    set at ``t`` -- the set :func:`eligible_candidates` returns -- is then
    the graph's activation-ordered prefix minus the chooser and the
    chooser's targets, and negatives are drawn from that prefix without
    building the set.
    """
    names = feature_names(include_state)
    instances: list[ChoiceInstance] = []
    skipped: list[SkippedChoice] = []
    if directory is not None:
        for author, first in directory.first_update_times().items():
            graph.register_node(author, first)
    for index, ini in enumerate(initiations):
        chooser, receiver, t = ini.initiator, ini.receiver, ini.time
        graph.advance_to(t)
        # Every target of the chooser is activated before t, so the excluded
        # nodes all lie in the prefix and the pool size is exact.
        exclude = graph.out_neighbors(chooser)
        receiver_at = graph.activation_time(receiver)
        if receiver_at is None or receiver_at >= t or receiver == chooser or receiver in exclude:
            skipped.append(SkippedChoice(chooser, receiver, t, "receiver_not_eligible"))
            continue
        exclude.add(receiver)
        chooser_at = graph.activation_time(chooser)
        if chooser_at is not None and chooser_at < t:
            exclude.add(chooser)
        nodes, k = graph.activation_prefix(t)
        if k == len(exclude):
            skipped.append(SkippedChoice(chooser, receiver, t, "no_negatives"))
            continue
        seed = np.random.SeedSequence(sampler.seed, spawn_key=(index,))
        alternatives = [receiver] + sample_negatives(nodes, sampler.n_negatives, seed, exclude, k)
        X = choice_set_features(chooser, alternatives, t, graph, directory, include_state)
        instances.append(
            ChoiceInstance(chooser=chooser, time=t, alternatives=alternatives, chosen=0, X=X, feature_names=names)
        )
    return instances, skipped


def temporal_split(instances, train_fraction: float, window=None):
    """Calendar split at a time quantile of the analysis window.

    The boundary sits at ``start + train_fraction * (end - start)``; instances
    strictly before it train, the rest test. The window defaults to the
    instances' time span.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if not instances:
        return [], []
    if window is None:
        times = [inst.time for inst in instances]
        window = (min(times), max(times))
    start, end = window
    if end < start:
        raise ValueError("window end precedes start")
    boundary = start + train_fraction * (end - start)
    train = [inst for inst in instances if inst.time < boundary]
    test = [inst for inst in instances if inst.time >= boundary]
    return train, test


@dataclass(frozen=True)
class SynthConfig:
    """Settings for the synthetic sequential-growth generator."""

    beta_true: tuple = (1.0, -0.5)
    n_authors: int = 200
    n_choices: int = 1000
    candidate_pool_size: int = 25
    seed: int = 0
    feature_names: tuple = ("is_friend_of_friend", "censored_log_target_indegree")

    def __post_init__(self):
        if len(self.beta_true) != len(self.feature_names):
            raise ValueError("beta_true length must match feature_names")
        if self.n_authors < 3 or self.candidate_pool_size < 2:
            raise ValueError("need at least 3 authors and pool size >= 2")
        unknown = set(self.feature_names) - set(FEATURE_NAMES) - {STATE_FEATURE}
        if unknown:
            raise ValueError(f"unknown feature names: {sorted(unknown)}")


def synth_generate(config: SynthConfig) -> tuple[list[ChoiceInstance], TemporalGraph]:
    """Grow a network by softmax choices with known coefficients.

    Authors 0..n-1 activate at times 0..n-1; one choice occurs per time step
    from t = n. At each step a uniformly drawn chooser receives a uniform
    candidate pool of ``candidate_pool_size`` eligible authors, and picks one
    with probability softmax(beta_true . x). The realized edge enters the
    graph so later features see it. Reproducible from the seed.
    """
    rng = np.random.default_rng(config.seed)
    beta = np.asarray(config.beta_true, dtype=np.float64)
    graph = TemporalGraph()
    for author in range(config.n_authors):
        graph.register_node(author, author)
    feature_idx = [
        (FEATURE_NAMES + (STATE_FEATURE,)).index(name) for name in config.feature_names
    ]
    instances: list[ChoiceInstance] = []
    t = config.n_authors
    attempts_left = 50 * config.n_choices + 100
    while len(instances) < config.n_choices:
        attempts_left -= 1
        if attempts_left < 0:
            raise RuntimeError("growth stalled: too few eligible candidates to keep choosing")
        graph.advance_to(t)
        chooser = int(rng.integers(config.n_authors))
        eligible = eligible_candidates(graph, None, chooser, t)
        if len(eligible) < 2:
            t += 1
            continue
        ordered = sorted(eligible)
        take = min(config.candidate_pool_size, len(ordered))
        pool_idx = rng.permutation(len(ordered))[:take]
        alternatives = [ordered[i] for i in pool_idx]
        X = choice_set_features(chooser, alternatives, t, graph, None, include_state=True)[:, feature_idx]
        u = X @ beta
        u -= u.max()
        p = np.exp(u)
        p /= p.sum()
        chosen = int(rng.choice(take, p=p))
        instances.append(
            ChoiceInstance(
                chooser=chooser,
                time=t,
                alternatives=alternatives,
                chosen=chosen,
                X=X,
                feature_names=tuple(config.feature_names),
            )
        )
        graph.append_edge(chooser, alternatives[chosen], t)
        t += 1
    return instances, graph


# -- serialization ---------------------------------------------------------------


def write_choice_sets(path, instances, meta: dict | None = None) -> None:
    """Write instances as JSON lines, optionally preceded by one meta line."""
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for inst in instances:
            fh.write(
                json.dumps(
                    {
                        "chooser": _plain(inst.chooser),
                        "time": inst.time,
                        "alternatives": [_plain(a) for a in inst.alternatives],
                        "chosen": inst.chosen,
                        "X": inst.X.tolist(),
                        "feature_names": list(inst.feature_names),
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def read_choice_sets(path) -> tuple[list[ChoiceInstance], dict | None]:
    """Read a JSON-lines choice-set file; returns (instances, meta-or-None). A bad line is a SchemaError."""
    instances: list[ChoiceInstance] = []
    meta = None
    for line, obj in _json_lines(path):
        if "meta" in obj and "chooser" not in obj:
            meta = obj["meta"]
            continue
        try:
            fields = [obj[key] for key in ("chooser", "time", "alternatives", "chosen", "X", "feature_names")]
        except KeyError as exc:
            raise SchemaError("missing key", line=line, field=exc.args[0]) from None
        for key in ("time", "chosen"):
            if type(obj[key]) is not int:
                raise SchemaError(f"not an integer: {obj[key]!r}", line=line, field=key)
        try:
            instances.append(ChoiceInstance(*fields[:5], feature_names=tuple(fields[5])))
        except (TypeError, ValueError) as exc:
            raise SchemaError(str(exc), line=line) from None
    return instances, meta


def _plain(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value
