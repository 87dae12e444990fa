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

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .authors import _ROLES, AuthorDirectory, ROLE_MIXED, ROLE_PATIENT
from .events import SchemaError, _int64_time, _json_lines, _sorted_unique
from .graph import TemporalGraph
from .initiations import _as_table

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

_ROLE_MIXED, _ROLE_PATIENT = _ROLES.index(ROLE_MIXED), _ROLES.index(ROLE_PATIENT)

_WRITE_BATCH = 128  # instances whose X are rendered together by write_choice_sets
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


@functools.cache
def _censored_logs(n: int) -> np.ndarray:
    """censored_log(k, 1.0) for every k below n."""
    return np.array([censored_log(k, 1.0) for k in range(n)])


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

    Advances the graph cursor to the int64 time ``t`` (it must not already
    be past it), records the set there and runs the feature kernel on it. A
    float ``t`` raises TypeError and one outside int64 OverflowError, with
    the cursor left where it was. An alternative with no activity at any
    time raises UnknownCandidateError.
    """
    t = _int64_time(t)
    graph.advance_to(t)
    known = _known(alternatives, graph, directory)
    if not all(known):
        raise UnknownCandidateError(f"candidate {alternatives[known.index(False)]!r} has no activity at any time")
    return _set_features([_record(graph, chooser, t, alternatives)], graph, directory, include_state)


def feature_names(include_state: bool = False) -> tuple:
    return FEATURE_NAMES + (STATE_FEATURE,) if include_state else FEATURE_NAMES


def _known(nodes, graph: TemporalGraph, directory: AuthorDirectory | None) -> list[bool]:
    """Whether each node has activity at some time: an activation on the graph or a directory entry."""
    return [graph.activation_time(x) is not None or (directory is not None and x in directory) for x in nodes]


# -- the feature kernel ----------------------------------------------------------
#
# The sequential loops (build_choice_sets, initiation_features, and
# choice_set_features for one set) hold the cursor. At a set's time each
# records what depends on the cursor: the weak-component root of the chooser
# and of every alternative. Every other column is a lookup by (node, t) in the
# graph's edge index or the directory's columns, so _set_features computes
# them for all rows of a block of sets at once.

_BLOCK_ROWS = 1024  # rows per kernel call; bounds the kernel's temporaries


def _record(graph: TemporalGraph, chooser, t, alternatives) -> tuple:
    """(t, keys, codes, component roots) of a set at the cursor ``t``; keys are the chooser and the alternatives."""
    keys = [chooser, *alternatives]
    codes = graph._codes(keys)
    return t, keys, codes, graph._components(codes)


def _blocks(records, graph, directory, include_state):
    """(record, feature matrix) of each record of ``records``, computed about
    _BLOCK_ROWS rows at a time. ``records`` is consumed lazily, so the
    generator behind it keeps moving the cursor between blocks."""
    block, rows = [], 0
    for record in records:
        block.append(record)
        rows += len(record[1]) - 1
        if rows >= _BLOCK_ROWS:
            yield from _featurized(block, graph, directory, include_state)
            block, rows = [], 0
    if block:
        yield from _featurized(block, graph, directory, include_state)


def _featurized(block, graph, directory, include_state):
    """Each record of ``block`` with its rows of the kernel's matrix."""
    X = _set_features(block, graph, directory, include_state)
    return zip(block, np.split(X, np.cumsum([len(keys) - 1 for _, keys, _, _ in block])[:-1]))


def _set_features(records, graph: TemporalGraph, directory: AuthorDirectory | None, include_state) -> np.ndarray:
    """Feature rows of every alternative of ``records`` (from :func:`_record`), stacked in order.

    Bit-equal to the per-pair definitions: degrees count the edges before
    each row's t, logs come from :func:`censored_log`, and the directory
    columns from ``AuthorDirectory._activity_columns``. Every node of a set,
    its chooser first, is a query; the choosers' rows are dropped at the end.
    """
    sizes = np.array([len(r[1]) for r in records])
    head = (sizes.cumsum() - sizes).repeat(sizes)  # each query's chooser's query, which stands for its set
    alternative = head != np.arange(len(head))

    def column(i):
        return np.fromiter(chain.from_iterable(r[i] for r in records), dtype=np.int64, count=len(head))

    codes, roots = column(2), column(3)
    t = np.array([r[0] for r in records], dtype=np.int64).repeat(sizes)
    X = np.zeros((len(head), len(feature_names(include_state))))
    X[:, 4] = roots == roots[head]
    # A query's edge to w before t is keyed (its set's head) * span + w. An
    # alternative is reciprocal when it has an edge to its chooser, and a
    # friend of friend when some key of its edges is a key of its chooser's:
    # a common neighbour, with no self-edges never the chooser or itself.
    index = graph._row_index()
    degrees, i, w = index.adjacent(codes, t)
    outgoing = i < len(codes)
    i %= len(codes)
    X[i[outgoing & (w == codes[head][i])], 3] = 1.0
    key = head[i] * (max(int(codes.max()), index.n_codes) + 1) + w
    mine = alternative[i]
    table, near = np.sort(key[~mine]), key[mine]
    X[i[mine][table.searchsorted(near, "right") > table.searchsorted(near)], 5] = 1.0
    logs = _censored_logs(int(degrees.max()) + 1)
    X[:, 0], X[:, 1], X[:, 2] = logs[degrees[0]], degrees[1] > 0, logs[degrees[1]]
    if directory is not None:
        keys = list(chain.from_iterable(r[1] for r in records))
        rows = directory._feature_rows(keys)
        role, condition = directory._role_codes[rows], directory._condition_codes[rows]
        X[:, 6], X[:, 7] = role == _ROLE_MIXED, role == _ROLE_PATIENT
        X[:, 8] = (role != 0) & (role == role[head])
        X[:, 9] = (condition != 0) & (condition == condition[head])
        count, frequency, recent, since_first, multisite, mixedsite = directory._activity_columns(rows, t)
        X[:, 10], X[:, 11], X[:, 12], X[:, 13], X[:, 14], X[:, 15] = (
            multisite, mixedsite, count, frequency, recent, since_first
        )
        if include_state:
            state = directory._state_code_column(keys)
            X[:, 16] = (state != 0) & (state == state[head])
    return X[alternative]


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
    building the set. The replay records each set; the feature kernel runs
    on blocks of them.
    """
    names = feature_names(include_state)
    skipped: list[SkippedChoice] = []
    table = _as_table(initiations)
    if directory is not None:
        for author, first in directory.first_update_times().items():
            graph.register_node(author, first)

    def records():
        for index, (chooser, receiver, t) in enumerate(zip(*table.endpoints(), table.time.tolist())):
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
            negatives = sample_negatives(nodes, sampler.n_negatives, seed, exclude, k)
            yield _record(graph, chooser, t, [receiver] + negatives)

    instances = [
        ChoiceInstance(chooser=keys[0], time=t, alternatives=keys[1:], chosen=0, X=X, feature_names=names)
        for (t, keys, _, _), X in _blocks(records(), graph, directory, include_state)
    ]
    return instances, skipped


def initiation_features(
    initiations, graph: TemporalGraph, directory: AuthorDirectory | None, include_state: bool = False
) -> tuple[list, np.ndarray]:
    """Each initiation's receiver as an alternative of its initiator at the initiation's time.

    Returns the table of the initiations whose receiver has activity at some
    time, and their feature rows. The initiations must be in time order; the
    graph cursor advances through them.
    """
    table = _as_table(initiations)
    kept = table._select(_known(table.endpoints()[1], graph, directory))

    def records():
        for chooser, receiver, t in zip(*kept.endpoints(), kept.time.tolist()):
            graph.advance_to(t)
            yield _record(graph, chooser, t, [receiver])

    rows = [X for _, X in _blocks(records(), graph, directory, include_state)]
    return kept, np.concatenate(rows) if rows else np.zeros((0, len(feature_names(include_state))))


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


def write_choice_sets(path, instances, meta: dict | None = None, label=None) -> None:
    """Write instances as JSON lines, optionally preceded by one meta line.

    Each line is ``json.dumps(..., sort_keys=True)`` of the instance, with
    the chooser and alternatives mapped through ``label`` when it is given.
    ``X`` goes first, as "X" sorts first, and its text comes from
    :func:`_matrix_texts`.
    """
    name = _plain if label is None else label
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for start in range(0, len(instances), _WRITE_BATCH):
            batch = instances[start : start + _WRITE_BATCH]
            for inst, x_text in zip(batch, _matrix_texts([inst.X for inst in batch])):
                rest = {
                    "alternatives": [name(a) for a in inst.alternatives],
                    "chooser": name(inst.chooser),
                    "chosen": inst.chosen,
                    "feature_names": list(inst.feature_names),
                    "time": inst.time,
                }
                fh.write(f'{{"X": {x_text}, {json.dumps(rest, sort_keys=True)[1:]}\n')


def _matrix_texts(matrices) -> list[str]:
    """The ``json.dumps`` text of each float64 matrix, rendering ``repr`` once
    per distinct bit pattern (so -0.0 and 0.0 stay apart)."""
    bits = np.concatenate([m.ravel() for m in matrices]).view(np.uint64)
    distinct = _sorted_unique(bits)
    reprs = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    cells = reprs[np.searchsorted(distinct, bits)].tolist()
    texts, at = [], 0
    for m in matrices:
        n_rows, n_cols = m.shape
        end = at + n_rows * n_cols
        rows = [", ".join(cells[i : i + n_cols]) for i in range(at, end, n_cols)] if n_cols else [""] * n_rows
        texts.append("[[" + "], [".join(rows) + "]]")
        at = end
    return texts


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
