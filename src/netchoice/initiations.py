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
built from (or building one after) reduces it only once. Initiations stay
columns (:class:`Initiations`); a row is built only when a caller reads one.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, eq

import numpy as np

from .events import DirectedInteractionLog, SchemaError, _ColumnLog, _csv_columns, _parse_int, _write_csv
from .graph import InvalidEdgeError, TemporalGraph, _code_span, _intern_records, _reduced, _replay, _time_column, build


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


class Initiations(_ColumnLog):
    """A read-only sequence of :class:`Initiation` rows, held as columns.

    ``src`` and ``dst`` are int64 codes of the initiator and receiver,
    ``time`` is int64, ``type_code`` indexes ``InitiationType`` (its length
    when unclassified), and the two flags are bool. ``labels`` is None when
    the codes are the labels themselves (a log's author codes), else the list
    of the label of each code. A row is built only when it is read; a slice
    is a table, and a table equals any sequence of equal rows.
    """

    __slots__ = ("labels", "src", "dst", "time", "type_code", "is_reciprocal", "initiator_was_isolate")

    def __getitem__(self, i):
        return self._select(i) if isinstance(i, slice) else super().__getitem__(i)

    def __iter__(self):
        """Each row, built as it is read: the one place rows are made."""
        return map(Initiation, *self.endpoints(), self.time.tolist(), map(_TYPES.__getitem__, self.type_code.tolist()),
                   self.is_reciprocal.tolist(), self.initiator_was_isolate.tolist())

    def _row(self, i) -> Initiation:
        return next(iter(self._select(slice(i, i + 1))))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"Initiations({list(self)!r})"

    def endpoints(self) -> tuple[list, list]:
        """The initiators and the receivers, as labels."""
        src, dst, labels = self.src.tolist(), self.dst.tolist(), self.labels
        return (src, dst) if labels is None else (list(map(labels.__getitem__, src)), list(map(labels.__getitem__, dst)))


def _row_table(initiators: list, receivers: list, *columns) -> Initiations:
    """A table whose labels are the objects given, one per row and end."""
    codes = np.arange(2 * len(initiators))
    return Initiations(initiators + receivers, codes[: len(initiators)], codes[len(initiators) :], *columns)


def _as_table(initiations) -> Initiations:
    """A table itself, or the table of any iterable of ``Initiation`` rows (whose times must be int64)."""
    if isinstance(initiations, Initiations):
        return initiations
    rows = list(initiations)
    initiators, receivers, times, itypes, *flags = (list(map(attrgetter(name), rows)) for name in _CSV_COLUMNS)
    type_codes = np.fromiter(map(_TYPE_CODES.__getitem__, itypes), dtype=np.int8, count=len(itypes))
    return _row_table(initiators, receivers, _time_column(times), type_codes, *(np.array(f, dtype=bool) for f in flags))


def extract_initiations(interactions) -> Initiations:
    """Reduce an interaction stream to its unique-edge stream, in time order.

    Accepts a DirectedInteractionLog, an iterable of DirectedInteraction or
    (source, target, time) tuples, or an already-built TemporalGraph; records
    go through ``build``, and a log is read from its first-edge reduction.
    Ties at equal timestamps are ordered by (source, target). Types are left
    unset. The table's columns are the graph's own, read-only, so a later
    append to the graph leaves the table as it is.
    """
    if isinstance(interactions, DirectedInteractionLog):
        labels, (times, srcs, dsts) = None, _reduced(interactions)[:3]
    else:
        graph = interactions if isinstance(interactions, TemporalGraph) else build(interactions)
        times, srcs, dsts = graph._times, graph._srcs, graph._dsts
        labels = None if graph._labels is None else graph._labels.copy()  # a later append extends the graph's
    unset = np.full(len(times), len(InitiationType), dtype=np.int8)
    return Initiations(labels, srcs, dsts, times, unset, *np.zeros((2, len(times)), dtype=bool))


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


def classify_initiations(initiations) -> Initiations:
    """Replay the unique-edge stream, filling type and reciprocity flags.

    Rows are processed in (time, initiator, receiver) order. The reciprocity
    flag requires the reverse edge strictly earlier in time; an
    equal-timestamp reverse edge does not count, although it does already
    join the pair's components for classification purposes. A row reads only
    the latest earlier-processed row of its reverse pair. A table of codes
    already in that order (what ``extract_initiations`` makes of a log or of
    its graph) is replayed as it is; any other input is interned and sorted
    first, and its rows keep their own label objects.
    """
    table = _as_table(initiations)
    src, dst, times = table.src, table.dst, table.time
    (t, u), (s, v), (d, w) = ((column[1:], column[:-1]) for column in (times, src, dst))
    if table.labels is None and np.all((t > u) | (t == u) & ((s > v) | (s == v) & (d >= w))):  # in processing order
        n = _code_span(src, dst)
    else:
        labels, src, dst = _intern_records(*table.endpoints())
        n = len(labels)
        order = np.lexsort((src * n + dst, times))  # n * n fits in int64 for any label count that fits in memory
        table, src, dst = table._select(order), src[order], dst[order]
        times = table.time
    loops = np.flatnonzero(src == dst)
    if len(loops):
        raise InvalidEdgeError(f"initiation from {table[int(loops[0])].initiator!r} to itself")
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
    # An end that no earlier row has is an isolate. Its row joins it to the other
    # end and closes no cycle, so those links are set at once; the replay unions
    # only rows between connected ends, and a merge of 0 marks intra-component.
    ends = np.column_stack((src, dst)).ravel()
    first = np.full(n, len(ends))
    np.minimum.at(first, ends, np.arange(len(ends)))
    new_src, new_dst = first[src] == 2 * pos, first[dst] == 2 * pos + 1
    parent = np.arange(n)
    parent[src[new_src & ~new_dst]], parent[dst[new_dst]] = dst[new_src & ~new_dst], src[new_dst]
    connected = np.flatnonzero(~(new_src | new_dst))
    merges = array("q")
    _replay(parent.tolist(), [1] * n, src[connected].tolist(), dst[connected].tolist(), 0, merges)
    type_code = _OPEN_TYPES[2 * new_src + new_dst]
    type_code[connected[np.frombuffer(merges, dtype=np.int64) == 0]] = _TYPE_CODES[InitiationType.INTRA_COMPONENT]
    return Initiations(table.labels, table.src, table.dst, times, type_code, reciprocal, new_src)


def initiations_from_interactions(interactions) -> Initiations:
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


def timeline_stats(initiations, window_seconds: int, start: int | None = None) -> TimelineStats:
    """Bin classified initiations into fixed windows and tally type shares.

    Windows with no initiations are simply absent (their shares are
    undefined, not zero). ``start`` anchors the first window; it defaults to
    the earliest initiation time.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    table = _as_table(initiations)
    if not table:
        raise ValueError("no initiations to summarize")
    n_types, codes, times = len(InitiationType), table.type_code, table.time
    if (codes == n_types).any():
        raise ValueError("initiations must be classified first")
    t0 = start if start is not None else times.min().item()
    early = np.flatnonzero(times < t0)
    if len(early):
        raise ValueError(f"initiation at {times[early[0]]} precedes window start {t0}")
    exact = type(t0) is int and type(window_seconds) is int
    if not (exact and -(2**63) <= t0 and int(times.max()) - t0 < 2**63 and window_seconds < 2**63):
        times = times.astype(object)  # Python arithmetic, which cannot overflow
    # Each initiation's window start, and per window its counts by type and by flag.
    windows, row_window = np.unique(t0 + window_seconds * ((times - t0) // window_seconds), return_inverse=True)
    reciprocal, jc_isolate = table.is_reciprocal, table.initiator_was_isolate & (codes == 0)
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


def reciprocation_rate_by_role(initiations, roles) -> dict:
    """Empirical P(reciprocated | initiator role, receiver role) with counts.

    An initiation counts as reciprocated when the reverse ordered pair occurs
    anywhere in the stream, i.e. the dyad becomes mutual. Cells never
    observed are absent from the result. ``roles`` maps author -> role; an
    unknown author falls in the None role bucket.
    """
    initiators, receivers = _as_table(initiations).endpoints()
    pairs = set(zip(initiators, receivers))
    cells: dict = {}
    for key, reciprocated in zip(
        zip(map(roles.get, initiators), map(roles.get, receivers)), map(pairs.__contains__, zip(receivers, initiators))
    ):
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = ReciprocationCell(count=0, reciprocated=0)
        cell.count += 1
        cell.reciprocated += reciprocated
    return cells


def write_initiations_csv(path, initiations, label=None, header_comment: str | None = None) -> None:
    """Write initiator,receiver,time,itype,is_reciprocal,initiator_was_isolate."""
    table = _as_table(initiations)
    initiators, receivers = table.endpoints()
    if label is not None:
        initiators, receivers = map(label, initiators), map(label, receivers)
    type_values = map(_TYPE_VALUES.__getitem__, table.type_code.tolist())
    flags = (flag.astype(np.int64).tolist() for flag in (table.is_reciprocal, table.initiator_was_isolate))
    _write_csv(path, _CSV_COLUMNS, zip(initiators, receivers, table.time.tolist(), type_values, *flags), header_comment)


def read_initiations_csv(path) -> Initiations:
    """Read back an initiations CSV as a table with str labels (one per row and end) and int64
    times; a bad value is a SchemaError with line and field."""
    lines, cols = _csv_columns(path, _CSV_COLUMNS)
    times, type_codes, flags = [], [], []
    for line, t, itype, *row_flags in zip(lines, *(cols[name] for name in _CSV_COLUMNS[2:])):
        if itype not in _TYPE_VALUES:
            raise SchemaError(f"unknown initiation type: {itype!r}", line=line, field="itype")
        times.append(_parse_int(t, line, "time", minimum=-(2**63)))
        type_codes.append(_TYPE_VALUES.index(itype))
        for flag, name in zip(row_flags, _CSV_COLUMNS[4:]):
            if flag not in ("0", "1"):
                raise SchemaError(f"flag must be 0 or 1: {flag!r}", line=line, field=name)
        flags.append([flag == "1" for flag in row_flags])
    return _row_table(
        cols["initiator"], cols["receiver"], np.array(times, dtype=np.int64), np.array(type_codes, dtype=np.int8),
        *np.array(flags, dtype=bool).reshape(-1, 2).T,
    )


# Type codes index _TYPES; the last, len(InitiationType), marks an unclassified row.
_TYPES = (*InitiationType, None)
_TYPE_CODES = {itype: code for code, itype in enumerate(_TYPES)}
_TYPE_VALUES = (*(itype.value for itype in InitiationType), "")
# The type of a row by (initiator new, receiver new): bridging unless an end is new.
_OPEN_TYPES = np.array([1, 0, 0, 2], dtype=np.int8)
_CSV_COLUMNS = ("initiator", "receiver", "time", "itype", "is_reciprocal", "initiator_was_isolate")
