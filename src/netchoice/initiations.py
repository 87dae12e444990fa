"""Initiation extraction, network-context classification, and timelines.

An initiation is the first directed interaction from one author to another —
exactly the unique-edge stream of the temporal graph. Each initiation is
classified by the weak-component positions of its endpoints at that moment:

* joining_component — an isolate connects to an existing component,
* bridging_component — two components (both size >= 2) merge,
* joining_isolates — two isolates connect,
* intra_component — both endpoints already share a component.

A component requires at least two connected authors; size-1 nodes are
isolates. Equal-timestamp edges are processed in (source, target) order, so
classification within a tie is deterministic. Extraction is the graph's own
first-edge reduction: ``extract_initiations`` reads the edges of ``build``,
and a log keeps that reduction, so extracting from a log that a graph was
built from (or building one after) reduces it only once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from itertools import repeat
from operator import attrgetter

import numpy as np

from .events import SchemaError, _csv_columns, _parse_int, _write_csv
from .graph import InvalidEdgeError, TemporalGraph, _intern_records, _replay, _time_column, build


class InitiationType(str, Enum):
    JOINING_COMPONENT = "joining_component"
    BRIDGING_COMPONENT = "bridging_component"
    JOINING_ISOLATES = "joining_isolates"
    INTRA_COMPONENT = "intra_component"


@dataclass(frozen=True, slots=True)
class Initiation:
    """First directed edge for an ordered author pair.

    ``itype`` is None until classified. ``is_reciprocal`` marks that the
    reverse edge already existed strictly earlier, which always places the
    pair in one component, so reciprocal initiations are intra-component.
    ``initiator_was_isolate`` records whether the initiator was unconnected
    just before this edge.
    """

    initiator: object
    receiver: object
    time: int
    itype: InitiationType | None = None
    is_reciprocal: bool = False
    initiator_was_isolate: bool = False


def _initiations(initiators: list, *columns) -> list[Initiation]:
    """``Initiation`` rows from one column per field, in field order.

    Each slot is set through its member descriptor on ``object.__new__``
    instances, one ``map`` per field; the rows are those of the keyword
    constructor, at a fraction of its cost.
    """
    out = list(map(object.__new__, repeat(Initiation, len(initiators))))
    for field, column in zip(fields(Initiation), (initiators, *columns)):
        deque(map(getattr(Initiation, field.name).__set__, out, column), maxlen=0)
    return out


def extract_initiations(interactions) -> list[Initiation]:
    """Reduce an interaction stream to its unique-edge stream, in time order.

    Accepts a DirectedInteractionLog, an iterable of DirectedInteraction or
    (source, target, time) tuples, or an already-built TemporalGraph; any
    input but a graph goes through ``build``. Ties at equal timestamps are
    ordered by (source, target). Types are left unset.
    """
    graph = interactions if isinstance(interactions, TemporalGraph) else build(interactions)
    unset = repeat(None), repeat(False), repeat(False)
    return _initiations(*graph._endpoints(0, graph.n_edges), graph._times.tolist(), *unset)


def classify_initiation(state, initiator, receiver) -> tuple[InitiationType, bool]:
    """Classify one edge against ``state``, a ``graph.UnionFind`` of the edges strictly before it."""
    if initiator == receiver:
        raise InvalidEdgeError(f"initiation from {initiator!r} to itself")
    connected_i = state.component_size(initiator) >= 2
    connected_r = state.component_size(receiver) >= 2
    if connected_i and connected_r:
        if state.same_component(initiator, receiver):
            itype = InitiationType.INTRA_COMPONENT
        else:
            itype = InitiationType.BRIDGING_COMPONENT
    elif connected_i or connected_r:
        itype = InitiationType.JOINING_COMPONENT
    else:
        itype = InitiationType.JOINING_ISOLATES
    return itype, not connected_i


def classify_initiations(initiations: list[Initiation]) -> list[Initiation]:
    """Replay the unique-edge stream, filling type and reciprocity flags.

    Rows are processed in (time, initiator, receiver) order. The reciprocity
    flag requires the reverse edge strictly earlier in time; an
    equal-timestamp reverse edge does not count, although it does already
    join the pair's components for classification purposes. A row reads only
    the latest earlier-processed row of its reverse pair.
    """
    rows = list(initiations)
    initiators, receivers, times = (list(map(attrgetter(name), rows)) for name in ("initiator", "receiver", "time"))
    labels = np.array(initiators + receivers) if rows and isinstance(initiators[0], (int, np.integer)) else None
    if labels is not None and labels.dtype == np.int64:  # int labels are coded by one sort
        keys, coded = np.unique(labels, return_inverse=True)
        n, src, dst, times = len(keys), coded[: len(rows)], coded[len(rows) :], _time_column(times)
    else:
        table = TemporalGraph()  # the graph holds the sorted label table
        src, dst, times = _intern_records(table, initiators, receivers, times)
        n = len(table._labels)
    order = np.lexsort((src * n + dst, times))  # n * n fits in int64 for any label count that fits in memory
    src, dst, times = src[order], dst[order], times[order]
    loops = np.flatnonzero(src == dst)
    if len(loops):
        raise InvalidEdgeError(f"initiation from {initiators[order[loops[0]]]!r} to itself")
    # A stable sort by unordered pair keeps each pair's rows in processing
    # order. Carrying each direction's last index forward gives every row the
    # latest earlier row of its reverse pair, unless that index lies before
    # the row's own group.
    pos = np.arange(len(src))
    pair = np.minimum(src, dst) * n + np.maximum(src, dst)
    by_pair = np.argsort(pair, kind="stable")
    pair, forward, pair_times = pair[by_pair], (src < dst)[by_pair], times[by_pair]
    group_start = np.maximum.accumulate(np.where(np.diff(pair, prepend=-1) != 0, pos, 0))
    last = [np.maximum.accumulate(np.where(forward == direction, pos, -1)) for direction in (False, True)]
    previous = np.where(forward, *last)
    reciprocal = np.empty(len(src), dtype=bool)
    reciprocal[by_pair] = (previous >= group_start) & (pair_times[previous] < pair_times)
    codes = []
    _replay([], [], src.tolist(), dst.tolist(), 0, codes, [])
    order = order.tolist()
    return _initiations(
        list(map(initiators.__getitem__, order)),
        map(receivers.__getitem__, order),
        times.tolist(),
        map(_CODE_TYPES.__getitem__, codes),
        reciprocal.tolist(),
        map(_CODE_ISOLATED.__getitem__, codes),
    )


def initiations_from_interactions(interactions) -> list[Initiation]:
    """Extract and classify in one pass."""
    return classify_initiations(extract_initiations(interactions))


def reciprocal_flag(graph: TemporalGraph, initiator, receiver) -> bool:
    """True when the reverse edge exists strictly before the graph cursor."""
    return graph.has_edge(receiver, initiator)


@dataclass
class WindowStats:
    """Counts and shares for one time window of classified initiations."""

    start: int
    total: int
    counts: dict
    shares: dict
    reciprocal_share: float
    joining_component_isolate_share: float | None
    bridging_or_isolates_share: float

    def to_json_dict(self) -> dict:
        return {
            "start": self.start,
            "total": self.total,
            "counts": {k.value: v for k, v in self.counts.items()},
            "shares": {k.value: v for k, v in self.shares.items()},
            "reciprocal_share": self.reciprocal_share,
            "joining_component_isolate_share": self.joining_component_isolate_share,
            "bridging_or_isolates_share": self.bridging_or_isolates_share,
        }


@dataclass
class TimelineStats:
    """Per-window and overall initiation-type composition."""

    window_seconds: int
    start: int
    windows: dict  # window start -> WindowStats; empty windows are absent
    overall: WindowStats

    def to_json_dict(self) -> dict:
        return {
            "window_seconds": self.window_seconds,
            "start": self.start,
            "windows": {str(k): w.to_json_dict() for k, w in sorted(self.windows.items())},
            "overall": self.overall.to_json_dict(),
        }


def _window_stats(start, type_counts: list, reciprocal: int, jc_isolate: int) -> WindowStats:
    """One window's stats from its counts per type (in InitiationType's order),
    of reciprocal initiations and of joining-component ones from an isolate."""
    total = sum(type_counts)
    counts = dict(zip(InitiationType, type_counts))
    jc_total = counts[InitiationType.JOINING_COMPONENT]
    shares = {t: c / total for t, c in counts.items()}
    combined = shares[InitiationType.BRIDGING_COMPONENT] + shares[InitiationType.JOINING_ISOLATES]
    return WindowStats(
        start=start,
        total=total,
        counts=counts,
        shares=shares,
        reciprocal_share=reciprocal / total,
        joining_component_isolate_share=(jc_isolate / jc_total) if jc_total else None,
        bridging_or_isolates_share=combined,
    )


def timeline_stats(initiations: list[Initiation], window_seconds: int, start: int | None = None) -> TimelineStats:
    """Bin classified initiations into fixed windows and tally type shares.

    Windows with no initiations are simply absent (their shares are
    undefined, not zero). ``start`` anchors the first window; it defaults to
    the earliest initiation time.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    if not initiations:
        raise ValueError("no initiations to summarize")
    n_types = len(InitiationType)
    codes = np.fromiter(map(_TYPE_CODES.__getitem__, map(attrgetter("itype"), initiations)), dtype=np.int64)
    if (codes == n_types).any():
        raise ValueError("initiations must be classified first")
    column = list(map(attrgetter("time"), initiations))
    times = np.array(column)
    t0 = start if start is not None else times.min().item() if times.dtype == np.int64 else min(column)
    early = np.flatnonzero(times < t0)
    if len(early):
        raise ValueError(f"initiation at {column[early[0]]} precedes window start {t0}")
    exact = times.dtype == np.int64 and type(t0) is int and type(window_seconds) is int
    if not (exact and -(2**63) <= t0 and int(times.max()) - t0 < 2**63 and window_seconds < 2**63):
        times = np.array(column, dtype=object)  # Python arithmetic, which cannot overflow
    # Each initiation's window start, and per window its counts by type and by flag.
    windows, row_window = np.unique(t0 + window_seconds * ((times - t0) // window_seconds), return_inverse=True)
    reciprocal, isolated = (np.fromiter(map(attrgetter(name), initiations), dtype=bool) for name in _CSV_COLUMNS[4:])
    jc_isolate = isolated & (codes == 0)
    type_counts = np.bincount(row_window * n_types + codes, minlength=len(windows) * n_types).reshape(-1, n_types)
    per_flag = (np.bincount(row_window[flag], minlength=len(windows)).tolist() for flag in (reciprocal, jc_isolate))
    rows = zip(windows.tolist(), type_counts.tolist(), *per_flag)
    return TimelineStats(
        window_seconds=window_seconds,
        start=t0,
        windows={row[0]: _window_stats(*row) for row in rows},
        overall=_window_stats(t0, type_counts.sum(axis=0).tolist(), int(reciprocal.sum()), int(jc_isolate.sum())),
    )


@dataclass
class ReciprocationCell:
    """Reciprocation tally for one (initiator role, receiver role) cell."""

    count: int
    reciprocated: int

    @property
    def probability(self) -> float:
        return self.reciprocated / self.count


def reciprocation_rate_by_role(initiations: list[Initiation], roles) -> dict:
    """Empirical P(reciprocated | initiator role, receiver role) with counts.

    An initiation counts as reciprocated when the reverse ordered pair occurs
    anywhere in the stream, i.e. the dyad becomes mutual. Cells never
    observed are absent from the result. ``roles`` maps author -> role; an
    unknown author falls in the None role bucket.
    """
    pairs = {(i.initiator, i.receiver) for i in initiations}
    cells: dict = {}
    for ini in initiations:
        key = (roles.get(ini.initiator), roles.get(ini.receiver))
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = ReciprocationCell(count=0, reciprocated=0)
        cell.count += 1
        cell.reciprocated += (ini.receiver, ini.initiator) in pairs
    return cells


def write_initiations_csv(path, initiations: list[Initiation], label=None, header_comment: str | None = None) -> None:
    """Write initiator,receiver,time,itype,is_reciprocal,initiator_was_isolate."""
    label = label if label is not None else (lambda x: x)
    rows = (
        (
            label(ini.initiator),
            label(ini.receiver),
            ini.time,
            "" if ini.itype is None else ini.itype.value,
            int(ini.is_reciprocal),
            int(ini.initiator_was_isolate),
        )
        for ini in initiations
    )
    _write_csv(path, _CSV_COLUMNS, rows, header_comment)


def read_initiations_csv(path) -> list[Initiation]:
    """Read back an initiations CSV (author ids stay strings); a bad value is a SchemaError with line and field."""
    out: list[Initiation] = []
    lines, cols = _csv_columns(path, _CSV_COLUMNS)
    for line, initiator, receiver, t, itype, *flags in zip(lines, *(cols[name] for name in _CSV_COLUMNS)):
        if itype not in _ITYPES:
            raise SchemaError(f"unknown initiation type: {itype!r}", line=line, field="itype")
        t = _parse_int(t, line, "time", minimum=-(2**63))
        flags = [bool(_parse_int(flag, line, name)) for flag, name in zip(flags, _CSV_COLUMNS[4:])]
        out.append(Initiation(initiator, receiver, t, _ITYPES[itype], *flags))
    return out


_TYPE_CODES = {**{itype: code for code, itype in enumerate(InitiationType)}, None: len(InitiationType)}
# By graph._replay's codes: the type, and whether the source was an isolate.
_CODE_TYPES = (*InitiationType, InitiationType.JOINING_COMPONENT)
_CODE_ISOLATED = (True, False, True, False, False)
_CSV_COLUMNS = ("initiator", "receiver", "time", "itype", "is_reciprocal", "initiator_was_isolate")
_ITYPES = {"": None, **{itype.value: itype for itype in InitiationType}}
