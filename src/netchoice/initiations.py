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
first-edge reduction: ``extract_initiations`` reads the edges of ``build``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

from .graph import ComponentState, InvalidEdgeError, TemporalGraph, UnionFind, build


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


def extract_initiations(interactions) -> list[Initiation]:
    """Reduce an interaction stream to its unique-edge stream, in time order.

    Accepts a DirectedInteractionLog, an iterable of DirectedInteraction or
    (source, target, time) tuples, or an already-built TemporalGraph; any
    input but a graph goes through ``build``. Ties at equal timestamps are
    ordered by (source, target). Types are left unset.
    """
    graph = interactions if isinstance(interactions, TemporalGraph) else build(interactions)
    return [Initiation(initiator=s, receiver=d, time=t) for s, d, t, _ in graph.edges()]


def classify_initiation(state: ComponentState, initiator, receiver) -> tuple[InitiationType, bool]:
    """Classify one edge against the component state strictly before it."""
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

    The reciprocity flag requires the reverse edge strictly earlier in time;
    an equal-timestamp reverse edge does not count, although it does already
    join the pair's components for classification purposes.
    """
    ordered = sorted(initiations, key=lambda i: (i.time, i.initiator, i.receiver))
    dsu = UnionFind()
    state = ComponentState(dsu)
    first_time: dict = {}
    out: list[Initiation] = []
    for ini in ordered:
        itype, was_isolate = classify_initiation(state, ini.initiator, ini.receiver)
        reverse = first_time.get((ini.receiver, ini.initiator))
        is_reciprocal = reverse is not None and reverse < ini.time
        out.append(Initiation(ini.initiator, ini.receiver, ini.time, itype, is_reciprocal, was_isolate))
        dsu.union(ini.initiator, ini.receiver)
        first_time[(ini.initiator, ini.receiver)] = ini.time
    return out


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


def _window_stats(start: int, members: list[Initiation]) -> WindowStats:
    total = len(members)
    counts = {t: 0 for t in InitiationType}
    reciprocal = 0
    jc_total = 0
    jc_isolate = 0
    for ini in members:
        counts[ini.itype] += 1
        reciprocal += ini.is_reciprocal
        if ini.itype is InitiationType.JOINING_COMPONENT:
            jc_total += 1
            jc_isolate += ini.initiator_was_isolate
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
    if any(i.itype is None for i in initiations):
        raise ValueError("initiations must be classified first")
    t0 = min(i.time for i in initiations) if start is None else start
    bins: dict[int, list[Initiation]] = {}
    for ini in initiations:
        if ini.time < t0:
            raise ValueError(f"initiation at {ini.time} precedes window start {t0}")
        key = t0 + window_seconds * ((ini.time - t0) // window_seconds)
        bins.setdefault(key, []).append(ini)
    windows = {k: _window_stats(k, members) for k, members in sorted(bins.items())}
    return TimelineStats(
        window_seconds=window_seconds,
        start=t0,
        windows=windows,
        overall=_window_stats(t0, list(initiations)),
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
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["initiator", "receiver", "time", "itype", "is_reciprocal", "initiator_was_isolate"])
        for ini in initiations:
            writer.writerow(
                [
                    label(ini.initiator),
                    label(ini.receiver),
                    ini.time,
                    "" if ini.itype is None else ini.itype.value,
                    int(ini.is_reciprocal),
                    int(ini.initiator_was_isolate),
                ]
            )


def read_initiations_csv(path) -> list[Initiation]:
    """Read back an initiations CSV (author ids stay strings)."""
    out: list[Initiation] = []
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            fh.seek(0)
        reader = csv.DictReader(fh)
        for row in reader:
            out.append(
                Initiation(
                    initiator=row["initiator"],
                    receiver=row["receiver"],
                    time=int(row["time"]),
                    itype=InitiationType(row["itype"]) if row["itype"] else None,
                    is_reciprocal=bool(int(row["is_reciprocal"])),
                    initiator_was_isolate=bool(int(row["initiator_was_isolate"])),
                )
            )
    return out
