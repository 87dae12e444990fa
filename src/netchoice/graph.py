"""Directed temporal author network with streaming time-cursor queries.

The graph is built once from a directed interaction stream (one edge per
ordered author pair, stamped with the pair's first interaction time) and then
replayed chronologically: ``advance_to(t)`` applies every edge strictly
before ``t``, after which degree, adjacency, weak-component, and
friend-of-friend queries all answer against the state *before* ``t``. Strict
semantics guarantee that a choice set assembled at an initiation's timestamp
never sees the initiation itself.

Union-find supports no deletion, so the cursor is monotone; callers replay
history in order, which is how every analysis here consumes the network.
"""

from __future__ import annotations

import csv
import math

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
        ra, rb = self.find(a), self.find(b)
        if ra == rb and ra in self.parent:
            return False
        for r in (ra, rb):
            if r not in self.parent:
                self.parent[r] = r
                self.size[r] = 1
                self.n_components += 1
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        del self.size[rb]
        self.n_components -= 1
        if self.size[ra] > self.largest_size:
            self.largest_size = self.size[ra]
            self.largest_root = ra
        return True

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


class TemporalGraph:
    """Unique-edge author network replayed through a monotone time cursor."""

    def __init__(self, vocab=None):
        self.vocab = vocab
        self._times: np.ndarray | list = np.zeros(0, dtype=np.int64)
        self._srcs: np.ndarray | list = np.zeros(0, dtype=np.int64)
        self._dsts: np.ndarray | list = np.zeros(0, dtype=np.int64)
        self._counts: np.ndarray | list = np.zeros(0, dtype=np.int64)
        self._activation: dict = {}
        self._act_times: np.ndarray | None = None
        self._act_nodes: list | None = None
        self._out: dict = {}
        self._in: dict = {}
        self._und: dict = {}
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

    def _activation_arrays(self):
        if self._act_times is None:
            items = sorted(self._activation.items(), key=lambda kv: (kv[1], str(kv[0])))
            self._act_nodes = [node for node, _ in items]
            self._act_times = np.array([t for _, t in items], dtype=np.float64)
        return self._act_times, self._act_nodes

    def activation_time(self, node):
        """When the node first appeared (edge endpoint or registration), or None."""
        return self._activation.get(node)

    def activation_prefix(self, t) -> tuple[list, int]:
        """All nodes in activation order and the count ``k`` activated strictly before ``t``.

        ``nodes[:k]`` are the nodes activated before ``t``; the list is shared,
        not copied, and stays valid until the next registration or append.
        """
        times, nodes = self._activation_arrays()
        return nodes, int(np.searchsorted(times, t, side="left"))

    def activated_count(self, t=None) -> int:
        """Nodes activated strictly before ``t`` (default: the cursor)."""
        t = self._cursor if t is None else t
        times, _ = self._activation_arrays()
        return int(np.searchsorted(times, t, side="left"))

    def nodes_activated_before(self, t) -> list:
        nodes, k = self.activation_prefix(t)
        return nodes[:k]

    # -- replay ------------------------------------------------------------

    def _apply_edge(self, src, dst) -> None:
        self._out.setdefault(src, set()).add(dst)
        self._in.setdefault(dst, set()).add(src)
        self._und.setdefault(src, set()).add(dst)
        self._und.setdefault(dst, set()).add(src)
        self._dsu.union(src, dst)

    def advance_to(self, t) -> None:
        """Apply every edge with time strictly before ``t`` and move the cursor."""
        if t < self._cursor:
            raise MonotonicityError(f"cursor at {self._cursor} cannot move back to {t}")
        times, srcs, dsts = self._times, self._srcs, self._dsts
        ptr, n = self._ptr, len(times)
        while ptr < n and times[ptr] < t:
            self._apply_edge(srcs[ptr], dsts[ptr])
            ptr += 1
        self._ptr = ptr
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
        for node in (src, dst):
            known = self._activation.get(node)
            if known is None or t < known:
                self._activation[node] = t
                self._act_times = None
        return True

    # -- queries (state strictly before the cursor) -------------------------

    def out_degree(self, a) -> int:
        return len(self._out.get(a, ()))

    def in_degree(self, a) -> int:
        return len(self._in.get(a, ()))

    def out_neighbors(self, a) -> set:
        return set(self._out.get(a, ()))

    def has_edge(self, a, b) -> bool:
        nbrs = self._out.get(a)
        return nbrs is not None and b in nbrs

    def same_wcc(self, a, b) -> bool:
        return self._dsu.same_component(a, b)

    def is_friend_of_friend(self, a, b) -> bool:
        """True when some third node is an undirected neighbor of both."""
        na = self._und.get(a)
        nb = self._und.get(b)
        if not na or not nb:
            return False
        if len(na) > len(nb):
            na, nb = nb, na
        for c in na:
            if c != a and c != b and c in nb:
                return True
        return False

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
        sizes = _tarjan_scc_sizes(self._out)
        seen = set(self._out)
        seen.update(self._in)
        isolates = self.activated_count() - len(seen)
        sizes.extend([1] * isolates)
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


def _tarjan_scc_sizes(adjacency: dict) -> list[int]:
    """Iterative Tarjan over a dict-of-sets adjacency; returns component sizes."""
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    sizes: list[int] = []
    counter = 0
    nodes = set(adjacency)
    for targets in adjacency.values():
        nodes.update(targets)
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adjacency.get(root, ())))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adjacency.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                size = 0
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    size += 1
                    if w == v:
                        break
                sizes.append(size)
    return sizes


def largest_wcc_share_series(graph: TemporalGraph):
    """Replay a fresh graph and yield (time, activated, largest_size, share).

    One row per distinct edge time, with the state including all edges at
    that time. The graph must not have been advanced yet.
    """
    if graph._ptr != 0:
        raise ValueError("series requires an un-replayed graph")
    times = graph._times
    n = len(times)
    i = 0
    while i < n:
        t = times[i]
        while i < n and times[i] == t:
            i += 1
        graph.advance_to(t + 1)
        activated = graph.activated_count()
        largest = max(graph._dsu.largest_size, 1) if activated else 0
        share = largest / activated if activated else float("nan")
        yield int(t), activated, largest, share
