"""Directed temporal author network with streaming time-cursor queries.

The graph is built once from a directed interaction stream (one edge per
ordered author pair, stamped with the pair's first interaction time) and then
replayed chronologically: ``advance_to(t)`` moves the cursor to ``t`` and
joins the weak components of every edge strictly before ``t``, after which
degree, adjacency, weak-component, and friend-of-friend queries all answer
against the state *before* ``t``. Strict semantics guarantee that a choice set
assembled at an initiation's timestamp never sees the initiation itself.

Adjacency is not replayed. Each node's out- and in-edges form rows sorted by
(time, edge order), cut from one stable sort of the edge arrays the first
time the node is queried; a query reads the part of a row strictly before the
cursor with one binary search. ``append_edge`` extends the cached rows of
both endpoints, so the index is never rebuilt.

Union-find supports no deletion, so the cursor is monotone; callers replay
history in order, which is how every analysis here consumes the network.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left

import numpy as np

from .events import DirectedInteraction, DirectedInteractionLog


class MonotonicityError(ValueError):
    """The time cursor only moves forward."""


class UndefinedShareError(ValueError):
    """Largest-component share is undefined with zero activated nodes."""


class UnionFind:
    """Union-find over hashable nodes with union by size and path compression.

    Nodes are registered lazily on their first union; anything never unioned
    is an implicit singleton.
    """

    __slots__ = ("parent", "size", "largest_size", "largest_root", "n_components")

    def __init__(self):
        self.parent: dict = {}
        self.size: dict = {}
        self.largest_size = 0
        self.largest_root = None
        self.n_components = 0

    def find(self, x):
        parent = self.parent
        if x not in parent:
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> bool:
        """Join the components of ``a`` and ``b``; False when they already were one."""
        return self.union_pairs((a,), (b,)) > 0

    def union_pairs(self, srcs, dsts) -> int:
        """Union ``srcs[i]`` with ``dsts[i]`` for every ``i``.

        Returns how many of the unions merged two components. ``find`` is
        inlined, so a long edge list costs no call per pair.
        """
        parent, size = self.parent, self.size
        largest_size, largest_root, n_components = self.largest_size, self.largest_root, self.n_components
        merges = 0
        for a, b in zip(srcs, dsts):
            if a in parent:
                ra = parent[a]
                while parent[ra] != ra:
                    ra = parent[ra]
                while parent[a] != ra:
                    parent[a], a = ra, parent[a]
            else:
                parent[a] = ra = a
                size[a] = 1
                n_components += 1
            if b in parent:
                rb = parent[b]
                while parent[rb] != rb:
                    rb = parent[rb]
                while parent[b] != rb:
                    parent[b], b = rb, parent[b]
            else:
                parent[b] = rb = b
                size[b] = 1
                n_components += 1
            if ra == rb:
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            merged = size[ra] = size[ra] + size.pop(rb)
            n_components -= 1
            merges += 1
            if merged > largest_size:
                largest_size, largest_root = merged, ra
        self.largest_size, self.largest_root, self.n_components = largest_size, largest_root, n_components
        return merges

    def component_size(self, x) -> int:
        return self.size.get(self.find(x), 1)

    def same_component(self, a, b) -> bool:
        return a == b or self.find(a) == self.find(b)


class ComponentState:
    """Weak-component view: union-find plus the activated-node count."""

    __slots__ = ("dsu", "activated_count")

    def __init__(self, dsu: UnionFind, activated_count: int | None = None):
        self.dsu = dsu
        self.activated_count = activated_count

    def component_size(self, x) -> int:
        return self.dsu.component_size(x)

    def same_component(self, a, b) -> bool:
        return self.dsu.same_component(a, b)

    @property
    def largest_size(self) -> int:
        return self.dsu.largest_size


def _as_list(seq) -> list:
    return seq.tolist() if isinstance(seq, np.ndarray) else seq


def _edge_codes(srcs, dsts):
    """Int codes of both endpoint columns, the code count, and the node -> code map.

    Arrays built from a log already hold int codes (the map is then None);
    any other node keys are interned in order of first appearance.
    """
    if isinstance(srcs, np.ndarray):
        return srcs, dsts, int(max(srcs.max(), dsts.max())) + 1 if len(srcs) else 0, None
    code_of: dict = {}
    src_codes = np.array([code_of.setdefault(x, len(code_of)) for x in srcs], dtype=np.int64)
    dst_codes = np.array([code_of.setdefault(x, len(code_of)) for x in dsts], dtype=np.int64)
    return src_codes, dst_codes, len(code_of), code_of


def _csr(keys, n: int):
    """Stable order of ``keys`` and the row offsets of each key in ``range(n)``."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return np.argsort(keys, kind="stable"), offsets


class _RowIndex:
    """Every node's out- and in-edges, sorted by (node, time, edge order).

    Edges are stored in time order, so a stable sort on the node code alone
    keeps each row in (time, edge order).
    """

    __slots__ = ("code_of", "n_codes", "out_offsets", "out_times", "targets", "in_offsets", "in_times", "sources")

    def __init__(self, times, srcs, dsts):
        src_codes, dst_codes, self.n_codes, self.code_of = _edge_codes(srcs, dsts)
        if self.code_of is None:
            src_nodes, dst_nodes = src_codes, dst_codes
        else:
            src_nodes = np.fromiter(srcs, dtype=object, count=len(srcs))
            dst_nodes = np.fromiter(dsts, dtype=object, count=len(dsts))
        times = np.asarray(times)
        order, offsets = _csr(src_codes, self.n_codes)
        self.out_offsets, self.out_times, self.targets = offsets.tolist(), times[order], dst_nodes[order]
        order, offsets = _csr(dst_codes, self.n_codes)
        self.in_offsets, self.in_times, self.sources = offsets.tolist(), times[order], src_nodes[order]

    def row(self, node) -> tuple[list, list, list, list]:
        """(out times, targets, in times, sources) of ``node``, as fresh lists."""
        if self.code_of is None:
            ok = isinstance(node, (int, np.integer)) and 0 <= node < self.n_codes
            code = int(node) if ok else None
        else:
            code = self.code_of.get(node)
        if code is None:
            return [], [], [], []
        a, b = self.out_offsets[code], self.out_offsets[code + 1]
        c, d = self.in_offsets[code], self.in_offsets[code + 1]
        return (
            self.out_times[a:b].tolist(),
            self.targets[a:b].tolist(),
            self.in_times[c:d].tolist(),
            self.sources[c:d].tolist(),
        )


class TemporalGraph:
    """Unique-edge author network replayed through a monotone time cursor."""

    def __init__(self, vocab=None):
        self.vocab = vocab
        self._times: np.ndarray | list = np.zeros(0, dtype=np.int64)
        self._srcs: np.ndarray | list = np.zeros(0, dtype=np.int64)
        self._dsts: np.ndarray | list = np.zeros(0, dtype=np.int64)
        self._counts: np.ndarray | list = np.zeros(0, dtype=np.int64)
        self._activation: dict = {}
        self._act_times: list | None = None
        self._act_nodes: list | None = None
        self._index: _RowIndex | None = None
        self._rows: dict = {}  # node -> _RowIndex.row(node), extended by append_edge
        self._dsu = UnionFind()
        self._cursor = -math.inf
        self._ptr = 0
        self._pair_index: dict | None = None

    # -- construction -----------------------------------------------------

    @property
    def cursor(self):
        return self._cursor

    @property
    def n_edges(self) -> int:
        return len(self._times)

    def edges(self):
        """Yield (source, target, first_time, interaction_count) in time order."""
        for i in range(len(self._times)):
            yield (self._srcs[i], self._dsts[i], int(self._times[i]), int(self._counts[i]))

    def register_node(self, node, time) -> None:
        """Record a node activation (e.g. a first update) outside the edge stream."""
        known = self._activation.get(node)
        if known is None or time < known:
            self._activation[node] = time
            self._act_times = None

    def _activation_order(self):
        if self._act_times is None:
            nodes = list(self._activation)
            times = np.array(list(self._activation.values()))
            order = np.lexsort((np.array([str(node) for node in nodes]), times))
            self._act_nodes = [nodes[i] for i in order.tolist()]
            self._act_times = times[order].tolist()
        return self._act_times, self._act_nodes

    def activation_time(self, node):
        """When the node first appeared (edge endpoint or registration), or None."""
        return self._activation.get(node)

    def activation_prefix(self, t) -> tuple[list, int]:
        """All nodes in activation order and the count ``k`` activated strictly before ``t``.

        ``nodes[:k]`` are the nodes activated before ``t``; the list is shared,
        not copied, and stays valid until the next registration or append.
        """
        times, nodes = self._activation_order()
        return nodes, bisect_left(times, t)

    def activated_count(self, t=None) -> int:
        """Nodes activated strictly before ``t`` (default: the cursor)."""
        t = self._cursor if t is None else t
        times, _ = self._activation_order()
        return bisect_left(times, t)

    def nodes_activated_before(self, t) -> list:
        nodes, k = self.activation_prefix(t)
        return nodes[:k]

    # -- replay ------------------------------------------------------------

    def advance_to(self, t) -> None:
        """Move the cursor to ``t``, joining the components of every edge strictly before it."""
        if t < self._cursor:
            raise MonotonicityError(f"cursor at {self._cursor} cannot move back to {t}")
        times, ptr = self._times, self._ptr
        if isinstance(times, np.ndarray):
            end = int(np.searchsorted(times, t, side="left"))
        else:
            end = bisect_left(times, t, ptr)
        if end > ptr:
            self._dsu.union_pairs(_as_list(self._srcs[ptr:end]), _as_list(self._dsts[ptr:end]))
            self._ptr = end
        self._cursor = t

    def _to_mutable(self) -> None:
        if isinstance(self._times, list):
            return
        self._times = self._times.tolist()
        self._srcs = self._srcs.tolist() if isinstance(self._srcs, np.ndarray) else list(self._srcs)
        self._dsts = self._dsts.tolist() if isinstance(self._dsts, np.ndarray) else list(self._dsts)
        self._counts = self._counts.tolist()
        self._pair_index = {(s, d): i for i, (s, d) in enumerate(zip(self._srcs, self._dsts))}

    def append_edge(self, src, dst, t) -> bool:
        """Append one interaction to the stream (used by growth simulations).

        Returns True when the ordered pair is new (a fresh edge), False when
        it only increments an existing edge's interaction count. Appends must
        keep the stream time-sorted.
        """
        if src == dst:
            raise ValueError("self-edges are not representable")
        self._to_mutable()
        if self._times and t < self._times[-1]:
            raise MonotonicityError(f"append at {t} precedes last edge time {self._times[-1]}")
        if t < self._cursor:
            raise MonotonicityError(f"append at {t} precedes cursor {self._cursor}")
        idx = self._pair_index.get((src, dst))
        if idx is not None:
            self._counts[idx] += 1
            return False
        self._pair_index[(src, dst)] = len(self._times)
        self._times.append(t)
        self._srcs.append(src)
        self._dsts.append(dst)
        self._counts.append(1)
        if self._index is not None:
            # Rows not yet cached are cut from the index, which holds no edge
            # appended after it was built; so every appended edge must be in
            # the cached rows of both its endpoints.
            out_times, targets, _, _ = self._row(src)
            out_times.append(t)
            targets.append(dst)
            _, _, in_times, sources = self._row(dst)
            in_times.append(t)
            sources.append(src)
        for node in (src, dst):
            known = self._activation.get(node)
            if known is None or t < known:
                self._activation[node] = t
                self._act_times = None
        return True

    # -- queries (state strictly before the cursor) -------------------------

    def _row(self, node) -> tuple[list, list, list, list]:
        row = self._rows.get(node)
        if row is None:
            if self._index is None:
                self._index = _RowIndex(self._times, self._srcs, self._dsts)
            row = self._rows[node] = self._index.row(node)
        return row

    def adjacency(self, a) -> tuple[list, list]:
        """``a``'s targets and sources over the edges strictly before the cursor."""
        out_times, targets, in_times, sources = self._row(a)
        cursor = self._cursor
        return targets[: bisect_left(out_times, cursor)], sources[: bisect_left(in_times, cursor)]

    def out_degree(self, a) -> int:
        return bisect_left(self._row(a)[0], self._cursor)

    def in_degree(self, a) -> int:
        return bisect_left(self._row(a)[2], self._cursor)

    def out_neighbors(self, a) -> set:
        return set(self.adjacency(a)[0])

    def has_edge(self, a, b) -> bool:
        out_times, targets, _, _ = self._row(a)
        return b in targets[: bisect_left(out_times, self._cursor)]

    def same_wcc(self, a, b) -> bool:
        return self._dsu.same_component(a, b)

    def wcc_root(self, a):
        """Representative of ``a``'s weak component; equal roots mean one component."""
        return self._dsu.find(a)

    def is_friend_of_friend(self, a, b) -> bool:
        """True when some third node is an undirected neighbor of both."""
        # With no self-edges, a common neighbour is never a or b itself.
        targets, sources = self.adjacency(a)
        und = set(targets).union(sources)
        targets, sources = self.adjacency(b)
        return not (und.isdisjoint(targets) and und.isdisjoint(sources))

    def component_state(self) -> ComponentState:
        return ComponentState(self._dsu, self.activated_count())

    def largest_wcc_share(self) -> float:
        """Share of activated nodes inside the largest weak component."""
        activated = self.activated_count()
        if activated == 0:
            raise UndefinedShareError("no nodes activated before the cursor")
        return max(self._dsu.largest_size, 1) / activated

    def scc_snapshot(self) -> list[int]:
        """Strongly-connected component sizes (descending) before the cursor."""
        src_codes, dst_codes, n_codes, _ = _edge_codes(self._srcs[: self._ptr], self._dsts[: self._ptr])
        sizes = _tarjan_scc_sizes(src_codes, dst_codes, n_codes)
        # Every endpoint lies in exactly one SCC; the other activated nodes are isolates.
        sizes.extend([1] * (self.activated_count() - sum(sizes)))
        sizes.sort(reverse=True)
        return sizes

    # -- export -------------------------------------------------------------

    def _label(self, node):
        if self.vocab is not None and isinstance(node, (int, np.integer)):
            return self.vocab.authors.id(int(node))
        return node

    def to_edge_csv(self, path, header_comment: str | None = None) -> None:
        """Write the full edge list as source,target,first_time,interaction_count."""
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["source", "target", "first_time", "interaction_count"])
            for src, dst, t, count in self.edges():
                writer.writerow([self._label(src), self._label(dst), t, count])


def build(interactions, extra_nodes=None) -> TemporalGraph:
    """Build a temporal graph from a directed interaction stream.

    The edge set keeps the first occurrence per ordered (source, target) pair;
    later repeats only increment the edge's interaction count. ``extra_nodes``
    maps node -> activation time for nodes that should count as present (e.g.
    authors' first update times) even before or without any interaction.
    """
    graph = TemporalGraph(vocab=getattr(interactions, "vocab", None))
    if isinstance(interactions, DirectedInteractionLog):
        _build_from_log(graph, interactions)
    else:
        _build_from_records(graph, interactions)
    if extra_nodes:
        for node, t in extra_nodes.items():
            graph.register_node(node, t)
    return graph


def _build_from_log(graph: TemporalGraph, log: DirectedInteractionLog) -> None:
    if len(log) == 0:
        return
    span = np.int64(max(len(log.vocab.authors), 1))
    key = log.src.astype(np.int64) * span + log.dst
    order = np.lexsort((log.timestamp, key))
    k_sorted = key[order]
    first = np.ones(len(k_sorted), dtype=bool)
    first[1:] = k_sorted[1:] != k_sorted[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(k_sorted)))
    pair = k_sorted[first]
    times = log.timestamp[order][first]
    srcs = (pair // span).astype(np.int64)
    dsts = (pair % span).astype(np.int64)
    order2 = np.lexsort((dsts, srcs, times))
    graph._times = times[order2]
    graph._srcs = srcs[order2]
    graph._dsts = dsts[order2]
    graph._counts = counts[order2]
    _register_endpoint_activations(graph)


def _build_from_records(graph: TemporalGraph, records) -> None:
    first: dict = {}
    counts: dict = {}
    for rec in records:
        if isinstance(rec, DirectedInteraction):
            src, dst, t = rec.source_author, rec.target_author, rec.timestamp
        else:
            src, dst, t = rec[0], rec[1], rec[2]
        if src == dst:
            raise ValueError(f"self-edge {src!r}")
        pair = (src, dst)
        counts[pair] = counts.get(pair, 0) + 1
        known = first.get(pair)
        if known is None or t < known:
            first[pair] = t
    # Ties at equal timestamps break on the natural ordering of the node keys.
    ordered = sorted(first.items(), key=lambda kv: (kv[1], kv[0][0], kv[0][1]))
    graph._times = [t for _, t in ordered]
    graph._srcs = [pair[0] for pair, _ in ordered]
    graph._dsts = [pair[1] for pair, _ in ordered]
    graph._counts = [counts[pair] for pair, _ in ordered]
    graph._pair_index = {pair: i for i, (pair, _) in enumerate(ordered)}
    _register_endpoint_activations(graph)


def _register_endpoint_activations(graph: TemporalGraph) -> None:
    if isinstance(graph._times, np.ndarray) and len(graph._times):
        nodes = np.concatenate((graph._srcs, graph._dsts))
        times = np.concatenate((graph._times, graph._times))
        order = np.argsort(nodes, kind="stable")
        ns, ts = nodes[order], times[order]
        starts = np.ones(len(ns), dtype=bool)
        starts[1:] = ns[1:] != ns[:-1]
        starts = np.flatnonzero(starts)
        mins = np.minimum.reduceat(ts, starts)
        graph._activation = {int(n): int(t) for n, t in zip(ns[starts], mins)}
    else:
        activation = graph._activation
        for seq in (zip(graph._srcs, graph._times), zip(graph._dsts, graph._times)):
            for node, t in seq:
                known = activation.get(node)
                if known is None or t < known:
                    activation[node] = t
    graph._act_times = None


def _tarjan_scc_sizes(src_codes, dst_codes, n: int) -> list[int]:
    """Iterative Tarjan over the edges ``src_codes[i] -> dst_codes[i]``, all codes below ``n``.

    Returns the component sizes of every node with an edge.
    """
    order, offsets = _csr(src_codes, n)
    offsets = offsets.tolist()
    adjacency = dst_codes[order].tolist()
    endpoints = np.bincount(src_codes, minlength=n) + np.bincount(dst_codes, minlength=n)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sizes: list[int] = []
    counter = 0
    for root in np.flatnonzero(endpoints).tolist():
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [[root, offsets[root]]]
        while work:
            frame = work[-1]
            v, i = frame
            end = offsets[v + 1]
            while i < end:
                w = adjacency[i]
                i += 1
                if index[w] < 0:
                    frame[1] = i
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append([w, offsets[w]])
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
                if lowlink[v] == index[v]:
                    size = 0
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        size += 1
                        if w == v:
                            break
                    sizes.append(size)
    return sizes


def largest_wcc_share_series(graph: TemporalGraph):
    """Replay a fresh graph and yield (time, activated, largest_size, share).

    One row per distinct edge time, with the state including all edges at
    that time; after each row the cursor sits just past that time. The graph
    must not have been advanced yet.
    """
    if graph._ptr != 0:
        raise ValueError("series requires an un-replayed graph")
    times = np.asarray(graph._times)
    if len(times) == 0:
        return
    starts = np.flatnonzero(np.concatenate(([True], times[1:] != times[:-1])))
    ends = np.append(starts[1:], len(times)).tolist()
    group_times = times[starts]
    act_times, _ = graph._activation_order()
    # Activated at or before t, i.e. strictly before the cursor t + 1 (which could wrap in int64).
    activated = np.searchsorted(np.asarray(act_times), group_times, side="right").tolist()
    srcs, dsts, dsu = _as_list(graph._srcs), _as_list(graph._dsts), graph._dsu
    for t, start, end, count in zip(group_times.tolist(), starts.tolist(), ends, activated):
        dsu.union_pairs(srcs[start:end], dsts[start:end])
        graph._ptr, graph._cursor = end, t + 1
        largest = max(dsu.largest_size, 1) if count else 0
        share = largest / count if count else float("nan")
        yield int(t), count, largest, share
