"""Directed temporal author network with streaming time-cursor queries.

The graph is built once from a directed interaction stream (one edge per
ordered author pair, stamped with the pair's first interaction time) and then
replayed chronologically: ``advance_to(t)`` moves the cursor to ``t`` and
joins the weak components of every edge strictly before ``t``, after which
degree, adjacency, weak-component, and friend-of-friend queries all answer
against the state *before* ``t``. Strict semantics guarantee that a choice set
assembled at an initiation's timestamp never sees the initiation itself.

One reduction builds every graph. ``build`` turns its input into three int64
columns -- a log already holds vocabulary codes; record labels are interned
in sorted order, so codes sort like the labels -- and one numpy pass keeps
the first edge per ordered pair with its interaction count, finds every
endpoint's activation time and rejects self-edges. A log keeps its
reduction, so it is reduced once however many graphs are built from it. The
edges are read-only int64 code columns in (time, source, target) order,
shared by every graph of one log. An append replaces them with copies (one
edge longer, or counting a repeat), so readers take them as they are and a
column once read never changes. A graph whose nodes are not vocabulary
codes also keeps a label table; node keys and codes are translated only when
an edge is stored, a row is read, a component root is read, a choice set is
recorded for the feature kernel, and in ``edges()``, so every query is keyed
by the node keys callers pass.

Adjacency is not replayed. One immutable index (``_RowIndex``) holds each
node's out- and in-edges as rows in (time, edge order), from one sort of
(row, edge) keys. The edges before the cursor are the first ``_ptr`` in time
order, so a one-node query reads each of its rows up to the cursor with one
``searchsorted``; the choice-set feature kernel counts and gathers many
nodes' edges before their own times the same way. An append costs O(E): one
comparison over the columns finds a repeated pair, and a new edge copies them
and drops the index, so the next query pays one O(E log E) build; growth
simulations, the one caller that appends, grow small graphs.

Weak components come from ``_replay``, the union-find replay over int codes
that initiation classification shares. It supports no deletion, so the
cursor is monotone; callers replay history in order, which is how every
analysis here consumes the network.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left

import numpy as np

from .events import DirectedInteraction, DirectedInteractionLog, _int64_time, _write_csv


class InvalidEdgeError(ValueError):
    """An edge with identical endpoints: no graph or initiation can hold it."""


class MonotonicityError(ValueError):
    """The time cursor only moves forward."""


class UndefinedShareError(ValueError):
    """Largest-component share is undefined with zero activated nodes."""


class UnionFind:
    """Union-find over hashable nodes with union by size and path compression.

    Nodes are registered lazily on their first union; anything never unioned
    is an implicit singleton. The package replays edges through ``_replay``;
    this label-keyed form is the tests' one-edge reference.
    """

    __slots__ = ("parent", "size", "largest_size")

    def __init__(self):
        self.parent: dict = {}
        self.size: dict = {}
        self.largest_size = 0

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
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size.get(ra, 1) < self.size.get(rb, 1):
            ra, rb = rb, ra
        self.parent.setdefault(ra, ra)
        self.parent[rb] = ra
        merged = self.size[ra] = self.size.get(ra, 1) + self.size.pop(rb, 1)
        self.largest_size = max(self.largest_size, merged)
        return True

    def component_size(self, x) -> int:
        return self.size.get(self.find(x), 1)

    def same_component(self, a, b) -> bool:
        return a == b or self.find(a) == self.find(b)


def _frozen(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


_EMPTY = _frozen(np.zeros(0, dtype=np.int64))  # an edge-free graph's columns


def _replay(parent: list, size: list, srcs, dsts, largest: int, merges=None) -> int:
    """Union ``srcs[i]`` with ``dsts[i]`` in order; the largest component size after the last.

    The one union-find replay (Tarjan, JACM 1975): ``parent`` and ``size``
    are lists indexed by int code, grown to cover every code fed and updated
    in place with union by size and path compression. ``largest`` is the
    largest size before the first edge. When ``merges`` is given (a list or
    an ``array('q')``), each edge appends the size of the component its union
    made, or 0 when its ends already shared one.
    """
    n_codes = max(max(srcs, default=-1), max(dsts, default=-1)) + 1
    size.extend([1] * (n_codes - len(parent)))
    parent.extend(range(len(parent), n_codes))
    for a, b in zip(srcs, dsts):
        ra = parent[a]
        while parent[ra] != ra:
            ra = parent[ra]
        while parent[a] != ra:
            parent[a], a = ra, parent[a]
        rb = parent[b]
        while parent[rb] != rb:
            rb = parent[rb]
        while parent[b] != rb:
            parent[b], b = rb, parent[b]
        if ra == rb:
            if merges is not None:
                merges.append(0)
            continue
        sa, sb = size[ra], size[rb]
        if sa < sb:
            ra, rb = rb, ra
        parent[rb] = ra
        merged = size[ra] = sa + sb
        if merged > largest:
            largest = merged
        if merges is not None:
            merges.append(merged)
    return largest


def _csr(keys, n: int):
    """Stable order of ``keys`` and the row offsets of each key in ``range(n)``."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=offsets[1:])
    return np.argsort(keys, kind="stable"), offsets


def _code_span(src_codes, dst_codes) -> int:
    """One more than the largest code in either column (0 when both are empty)."""
    return int(max(src_codes.max(), dst_codes.max())) + 1 if len(src_codes) else 0


class _RowIndex:
    """Every node's out- and in-edges as rows in (time, edge order).

    With ``n`` the code capacity, row ``x`` holds the out-edges of code ``x``
    and row ``n + 1 + x`` its in-edges; rows ``n`` and ``2n + 1`` stay empty
    and stand for every code at or past ``n``. Row ``r`` fills the slots
    ``starts[r]:starts[r + 1]``. A slot holds the edge's other end, and its
    key is its row times ``width`` plus the edge's place in the time-sorted
    edge columns. The edges before ``t`` are the first
    ``searchsorted(times, t)``, so one ``searchsorted`` of (row, that count)
    keys finds, for every query at once, its row's edges before its own
    ``t``. The index is immutable: a graph that gains an edge builds it anew.
    """

    __slots__ = ("n_codes", "times", "width", "sides", "starts", "keys", "ends")

    def __init__(self, times, src_codes, dst_codes):
        e, n = len(times), _code_span(src_codes, dst_codes)
        self.n_codes, self.times, self.width = n, times, e + 1
        self.sides = np.array([[0], [n + 1]])  # a code's out- and in-row, less the code
        keys = np.concatenate((src_codes, dst_codes + (n + 1)))  # rows, then keys
        counts = np.bincount(keys, minlength=2 * n + 2)
        keys *= self.width
        keys[:e] += np.arange(e)
        keys[e:] += np.arange(e)
        order = keys.argsort()  # keys are unique
        self.keys = keys[order]
        keys[:e], keys[e:] = dst_codes, src_codes  # the buffer now holds each entry's other end
        self.ends = keys[order]
        self.starts = np.concatenate(([0], counts.cumsum()))

    def first(self, code, count) -> tuple[list, list]:
        """The other ends of ``code``'s out- and in-edges among the first ``count`` edges, as lists of codes."""
        if code is None or code >= self.n_codes:
            return [], []
        rows = self.sides.ravel() + code
        starts, stops = self.starts[rows].tolist(), self.keys.searchsorted(rows * self.width + count).tolist()
        return self.ends[starts[0] : stops[0]].tolist(), self.ends[starts[1] : stops[1]].tolist()

    def adjacent(self, codes, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges of each ``codes[i]`` before ``t[i]``, for n queries: the
        (2, n) out- and in-degrees, and per edge ``i`` (plus n for an
        in-edge) and its other end."""
        rows = np.minimum(codes, self.n_codes) + self.sides
        starts = self.starts[rows]
        degrees = self.keys.searchsorted(rows * self.width + self.times.searchsorted(t)) - starts
        # The gather's k-th edge lies at starts[i] plus k minus the edges of the queries before i.
        i = np.arange(rows.size).repeat(degrees.ravel())
        at = (starts - degrees.cumsum().reshape(rows.shape) + degrees).ravel().repeat(degrees.ravel())
        return degrees, i, self.ends[at + np.arange(len(i))]


class TemporalGraph:
    """Unique-edge author network replayed through a monotone time cursor.

    Nodes are the vocabulary's int codes when ``vocab`` is given (graphs
    built from a log); otherwise any sortable hashable keys, interned in a
    label table.
    """

    def __init__(self, vocab=None):
        self.vocab = vocab
        # Read-only int64 code columns in time order; an append replaces them.
        self._times = self._srcs = self._dsts = self._counts = _EMPTY
        self._labels: list | None = None if vocab is not None else []  # code -> node key
        self._code_of: dict | None = None if vocab is not None else {}  # node key -> code
        self._activation: dict = {}
        self._act_times: list | None = None
        self._act_nodes: list | None = None
        self._index: _RowIndex | None = None  # built by the first query after a build or an append
        # Code-indexed union-find of the edges before the cursor, fed by _replay.
        self._parent, self._size, self._largest = [], [], 0
        self._cursor = -math.inf
        self._ptr = 0

    # -- node keys and codes --------------------------------------------------

    def _keys(self, codes: list) -> list:
        labels = self._labels
        return codes if labels is None else [labels[c] for c in codes]

    def _code(self, node):
        """The code ``node`` is stored under, or None when it has none."""
        if self._code_of is not None:
            return self._code_of.get(node)
        return int(node) if isinstance(node, (int, np.integer)) and 0 <= node < len(self.vocab.authors) else None

    def _intern(self, node) -> int:
        if self._code_of is None:
            return self._code(node)
        code = self._code_of.get(node)
        if code is None:
            code = self._code_of[node] = len(self._labels)
            self._labels.append(node)
        return code

    def _codes(self, nodes: list) -> list:
        """Codes of ``nodes``; a label graph interns the ones it has no code for."""
        return nodes if self._code_of is None else [self._intern(node) for node in nodes]

    def _components(self, codes) -> list:
        """Weak-component root code of each code before the cursor; a code no union reached is its own root."""
        parent, n = self._parent, len(self._parent)
        roots = []
        for code in codes:
            if code < n:
                while parent[code] != code:
                    code = parent[code]
            roots.append(code)
        return roots

    def _endpoints(self, start: int, end: int) -> tuple[list, list]:
        """Source and target keys of edges ``start`` to ``end``."""
        return self._keys(self._srcs[start:end].tolist()), self._keys(self._dsts[start:end].tolist())

    # -- construction -----------------------------------------------------

    @property
    def cursor(self):
        return self._cursor

    @property
    def n_edges(self) -> int:
        return len(self._times)

    def edges(self):
        """Iterate (source, target, first_time, interaction_count) in time order; times and counts are Python ints."""
        srcs, dsts = self._endpoints(0, len(self._times))
        return zip(srcs, dsts, self._times.tolist(), self._counts.tolist())

    def register_node(self, node, time) -> None:
        """Record a node activation (e.g. a first update) outside the edge stream."""
        known = self._activation.get(node)
        if known is None or time < known:
            self._activation[node] = time
            self._act_times = self._act_nodes = None

    def _activation_times(self) -> list:
        """Every activation time, sorted."""
        if self._act_times is None:
            self._act_times = np.sort(np.array(list(self._activation.values()))).tolist()
        return self._act_times

    def activation_time(self, node):
        """When the node first appeared (edge endpoint or registration), or None."""
        return self._activation.get(node)

    def activation_prefix(self, t) -> tuple[list, int]:
        """All nodes in activation order and the count ``k`` activated strictly before ``t``.

        ``nodes[:k]`` are the nodes activated before ``t``; the list is shared,
        not copied, and stays valid until the next registration or append.
        """
        if self._act_nodes is None:
            nodes = list(self._activation)
            times = np.array(list(self._activation.values()))
            order = np.lexsort((np.array([str(node) for node in nodes]), times))
            self._act_nodes = [nodes[i] for i in order.tolist()]
            self._act_times = times[order].tolist()
        return self._act_nodes, bisect_left(self._act_times, t)

    def activated_count(self, t=None) -> int:
        """Nodes activated strictly before ``t`` (default: the cursor)."""
        return bisect_left(self._activation_times(), self._cursor if t is None else t)

    def nodes_activated_before(self, t) -> list:
        nodes, k = self.activation_prefix(t)
        return nodes[:k]

    # -- replay ------------------------------------------------------------

    def advance_to(self, t) -> None:
        """Move the cursor to ``t``, joining the components of every edge strictly before it."""
        if t < self._cursor:
            raise MonotonicityError(f"cursor at {self._cursor} cannot move back to {t}")
        ptr, times = self._ptr, self._times
        if ptr == len(times):
            end = ptr  # every edge is joined already
        elif isinstance(t, (int, np.signedinteger)) and -(2**63) <= t < 2**63:
            end = ptr + int(times[ptr:].searchsorted(t))  # a float or a wider int takes bisect_left
        else:
            end = bisect_left(times, t, ptr)
        if end > ptr:
            srcs, dsts = self._srcs[ptr:end].tolist(), self._dsts[ptr:end].tolist()
            self._largest = _replay(self._parent, self._size, srcs, dsts, self._largest)
            self._ptr = end
        self._cursor = t

    def append_edge(self, src, dst, t) -> bool:
        """Append one interaction to the stream (used by growth simulations).

        Returns True when the ordered pair is new (a fresh edge), False when
        it only increments an existing edge's interaction count. Appends must
        keep the stream time-sorted, at int64 times (a float raises TypeError,
        an int past int64 OverflowError); a graph of codes (built from a log)
        refuses a node that is no code of its vocabulary with ValueError. A
        refused append changes nothing.
        """
        s, d = self._code(src), self._code(dst)
        if self._code_of is None and None in (s, d):  # a graph of codes
            raise ValueError(f"node {src if s is None else dst!r} is not an author code")
        if src == dst:
            raise InvalidEdgeError(f"self-edge {src!r}")
        times = self._times
        if len(times) and t < times[-1]:
            raise MonotonicityError(f"append at {t} precedes last edge time {times[-1]}")
        if t < self._cursor:
            raise MonotonicityError(f"append at {t} precedes cursor {self._cursor}")
        t = _int64_time(t)
        if None not in (s, d):
            repeat = ((self._srcs == s) & (self._dsts == d)).nonzero()[0]
            if len(repeat):
                counts = self._counts.copy()
                counts[repeat] += 1
                self._counts = _frozen(counts)
                return False
        grown = np.empty((4, len(times) + 1), dtype=np.int64)  # the columns, one edge longer, as its rows
        grown[:, :-1] = times, self._srcs, self._dsts, self._counts
        grown[:, -1] = t, self._intern(src), self._intern(dst), 1  # after every refusal: no label is interned in vain
        self._times, self._srcs, self._dsts, self._counts = _frozen(grown)
        self._index = None
        for node in (src, dst):
            self.register_node(node, t)
        return True

    # -- queries (state strictly before the cursor) -------------------------

    def _row_index(self) -> _RowIndex:
        """The index of every edge, built by the first query after a build or an append."""
        if self._index is None:
            self._index = _RowIndex(self._times, self._srcs, self._dsts)
        return self._index

    def adjacency(self, a) -> tuple[list, list]:
        """``a``'s targets and sources over the edges strictly before the cursor: the first ``_ptr`` edges."""
        targets, sources = self._row_index().first(self._code(a), self._ptr)
        return self._keys(targets), self._keys(sources)

    def out_degree(self, a) -> int:
        return len(self.adjacency(a)[0])

    def in_degree(self, a) -> int:
        return len(self.adjacency(a)[1])

    def out_neighbors(self, a) -> set:
        return set(self.adjacency(a)[0])

    def has_edge(self, a, b) -> bool:
        return b in self.adjacency(a)[0]

    def same_wcc(self, a, b) -> bool:
        return self.wcc_root(a) == self.wcc_root(b)

    def wcc_root(self, a):
        """Key of the representative of ``a``'s weak component (``a`` when alone); equal roots mean one component."""
        code = self._code(a)
        return a if code is None else self._keys(self._components([code]))[0]

    def is_friend_of_friend(self, a, b) -> bool:
        """True when some third node is an undirected neighbor of both."""
        # With no self-edges, a common neighbour is never a or b itself.
        targets, sources = self.adjacency(a)
        und = set(targets).union(sources)
        targets, sources = self.adjacency(b)
        return not (und.isdisjoint(targets) and und.isdisjoint(sources))

    def largest_wcc_share(self) -> float:
        """Share of activated nodes inside the largest weak component."""
        activated = self.activated_count()
        if activated == 0:
            raise UndefinedShareError("no nodes activated before the cursor")
        return max(self._largest, 1) / activated

    def scc_snapshot(self) -> list[int]:
        """Strongly-connected component sizes (descending) before the cursor."""
        src_codes, dst_codes = _scc_core(self._srcs[: self._ptr], self._dsts[: self._ptr])
        sizes = _tarjan_scc_sizes(src_codes, dst_codes, _code_span(src_codes, dst_codes))
        # Every endpoint lies in exactly one SCC; the other activated nodes are isolates.
        sizes.extend([1] * (self.activated_count() - sum(sizes)))
        sizes.sort(reverse=True)
        return sizes

    # -- export -------------------------------------------------------------

    def _label(self, node):
        return node if self.vocab is None else self.vocab.authors.id(node)

    def to_edge_csv(self, path, header_comment: str | None = None) -> None:
        """Write the full edge list as source,target,first_time,interaction_count."""
        rows = ((self._label(src), self._label(dst), t, count) for src, dst, t, count in self.edges())
        _write_csv(path, ("source", "target", "first_time", "interaction_count"), rows, header_comment)


def build(interactions, extra_nodes=None) -> TemporalGraph:
    """Build a temporal graph from a directed interaction stream.

    ``interactions`` is a DirectedInteractionLog (nodes are its vocabulary
    codes) or an iterable of DirectedInteraction or (source, target, time)
    records (nodes are their labels). The edge set keeps the first occurrence
    per ordered (source, target) pair; later repeats only increment the
    edge's interaction count. Equal-time edges are ordered by (source,
    target): by vocabulary code for a log, by the labels' order for records.
    ``extra_nodes`` maps node -> activation time for nodes that should count
    as present (e.g. authors' first update times) even before or without any
    interaction. A self-edge raises InvalidEdgeError.
    """
    if isinstance(interactions, DirectedInteractionLog):
        graph = TemporalGraph(vocab=interactions.vocab)
        reduced = _reduced(interactions)
    else:
        graph = TemporalGraph()
        rows = [
            (rec.source_author, rec.target_author, rec.timestamp) if isinstance(rec, DirectedInteraction) else rec
            for rec in interactions
        ]
        srcs, dsts, times = (list(map(operator.itemgetter(i), rows)) for i in range(3))
        times = _time_column(times)
        labels, src_codes, dst_codes = _intern_records(srcs, dsts)
        graph._labels, graph._code_of = labels, {label: code for code, label in enumerate(labels)}
        reduced = _reduced((src_codes, dst_codes, times), labels)
    graph._times, graph._srcs, graph._dsts, graph._counts, nodes, first_times = reduced
    graph._activation = dict(zip(graph._keys(nodes.tolist()), first_times.tolist()))
    if extra_nodes:
        for node, t in extra_nodes.items():
            graph.register_node(node, t)
    return graph


def _intern_records(srcs: list, dsts: list) -> tuple[list, np.ndarray, np.ndarray]:
    """The sorted labels of ``srcs`` and ``dsts`` and the code of each as two int64
    columns, so codes sort like the labels."""
    labels = sorted(set(srcs).union(dsts))
    code_of = {label: code for code, label in enumerate(labels)}
    return (
        labels,
        np.fromiter(map(code_of.__getitem__, srcs), dtype=np.int64, count=len(srcs)),
        np.fromiter(map(code_of.__getitem__, dsts), dtype=np.int64, count=len(dsts)),
    )


def _time_column(times: list):
    """Record times as int64; floats would be truncated, and ints beyond int64 wrap or become objects."""
    column = np.array(times) if times else _EMPTY
    if column.dtype != np.int64:
        raise ValueError(f"record times must be int64 integers, got {column.dtype}")
    return column


def _reduced(source, labels=None) -> tuple:
    """The first-edge reduction of ``source``: a DirectedInteractionLog, or the
    (src, dst, times) code columns of records, whose ``labels`` name a self-edge.

    A log keeps its reduction in its ``_memo`` slot, so it is reduced once
    however many graphs are built from it. This is the one caller of
    ``_first_edges``.
    """
    memo = getattr(source, "_memo", None)
    if memo is None:
        is_log = isinstance(source, DirectedInteractionLog)
        memo = _first_edges(*((source.src, source.dst, source.timestamp) if is_log else source), labels)
        if is_log:
            object.__setattr__(source, "_memo", memo)
    return memo


def _first_edges(src, dst, times, labels=None) -> tuple:
    """The first edge per ordered (src, dst) code pair and each endpoint's activation.

    The one first-edge reduction. Returns read-only int64 columns: the edges'
    times, sources, targets and interaction counts in (time, src, dst) order,
    then every endpoint code and its activation time. A self-edge raises
    InvalidEdgeError naming its code, or its label from ``labels``.
    """
    loops = np.flatnonzero(src == dst)
    if len(loops):
        node = int(src[loops[0]])
        raise InvalidEdgeError(f"self-edge {node if labels is None else labels[node]!r}")
    if len(src) == 0:
        return (_EMPTY,) * 6
    # The code columns are not widened; the packed key, its sort order and
    # the sorted keys are the only row-length temporaries, each freed once used.
    span = _code_span(src, dst)
    key = src.astype(np.int64) * span
    key += dst
    order = np.lexsort((times, key))
    k_sorted = key[order]
    del key
    first = np.ones(len(k_sorted), dtype=bool)
    first[1:] = k_sorted[1:] != k_sorted[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(k_sorted)))
    pair, first_times = k_sorted[starts], times[order[starts]].astype(np.int64, copy=False)
    del k_sorted, order
    srcs, dsts = pair // span, pair % span
    by_time = np.argsort(first_times, kind="stable")  # the pairs are in (src, dst) order
    first_times, srcs, dsts = first_times[by_time], srcs[by_time], dsts[by_time]
    # Edges are time-sorted, so a node's first appearance is its activation.
    nodes, at = np.unique(np.column_stack((srcs, dsts)).ravel(), return_index=True)
    return tuple(map(_frozen, (first_times, srcs, dsts, counts[by_time], nodes, first_times[at // 2])))


def _scc_core(src_codes, dst_codes):
    """The edges left once nodes that cannot lie on a cycle are trimmed.

    A node with no in-edge or no out-edge is an SCC of its own, and so is
    every node it leaves that way once removed (the trim step of McLendon et
    al., JPDC 2005). Each round removes every such node among the edges left;
    rounds go on while one removes at least a quarter of them, so the work
    stays linear in the edges.
    """
    n = _code_span(src_codes, dst_codes)
    while len(src_codes):
        cyclic = np.bincount(src_codes, minlength=n).astype(bool) & np.bincount(dst_codes, minlength=n).astype(bool)
        keep = cyclic[src_codes] & cyclic[dst_codes]
        before = len(src_codes)
        src_codes, dst_codes = src_codes[keep], dst_codes[keep]
        if 4 * (before - len(src_codes)) < before:
            break
    return src_codes, dst_codes


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
    that time. The graph is joined in full at the first row: from then on
    its cursor sits just past the last edge time, as ``advance_to(last + 1)``
    leaves it. The graph must not have been advanced yet.
    """
    if graph._ptr != 0:
        raise ValueError("series requires an un-replayed graph")
    times = graph._times
    if len(times) == 0:
        return
    starts = np.flatnonzero(np.concatenate(([True], times[1:] != times[:-1])))
    group_times = times[starts]
    merges = array("q")
    largest = _replay(graph._parent, graph._size, graph._srcs.tolist(), graph._dsts.tolist(), graph._largest, merges)
    graph._largest, graph._ptr, graph._cursor = largest, len(times), int(group_times[-1]) + 1
    # A group's largest size is the running maximum of the merges at its last edge (none before: 0).
    sizes = np.maximum.accumulate(np.frombuffer(merges, dtype=np.int64))[np.append(starts[1:], len(times)) - 1]
    # Activated at or before t, i.e. strictly before the cursor t + 1 (which could wrap in int64).
    activated = np.searchsorted(np.asarray(graph._activation_times()), group_times, side="right")
    sizes = np.where(activated > 0, np.maximum(sizes, 1), 0)
    with np.errstate(invalid="ignore"):
        shares = sizes / activated  # 0 / 0 is nan
    yield from zip(group_times.tolist(), activated.tolist(), sizes.tolist(), shares.tolist())
