import copy
import math
import pickle

import numpy as np
import pytest

from conftest import bfs_components, component_of, random_edge_stream, traced_peak

from netchoice import graph as graph_module
from netchoice.events import DirectedInteraction, DirectedInteractionLog, LogVocab
from netchoice.graph import (
    InvalidEdgeError,
    MonotonicityError,
    TemporalGraph,
    UndefinedShareError,
    UnionFind,
    _code_span,
    _scc_core,
    _tarjan_scc_sizes,
    build,
    largest_wcc_share_series,
)
from netchoice.initiations import extract_initiations


def replay(edges, extra_nodes=None):
    g = build(edges, extra_nodes=extra_nodes)
    return g


class TestBuild:
    def test_first_occurrence_keeps_count(self):
        g = build([("a", "b", 3), ("a", "b", 7)])
        assert list(g.edges()) == [("a", "b", 3, 2)]

    def test_empty(self):
        g = build([])
        assert g.n_edges == 0
        assert g.activated_count(10) == 0

    def test_random_multiset_vs_group_by_min(self):
        rng = np.random.default_rng(0)
        edges = random_edge_stream(rng, n_nodes=15, n_edges=300, t_max=40)
        g = build(edges)
        expected = {}
        for src, dst, t in edges:
            key = (src, dst)
            expected[key] = min(expected.get(key, t), t)
        got = {(s, d): t for s, d, t, _ in g.edges()}
        assert got == expected
        counts = {}
        for src, dst, _ in edges:
            counts[(src, dst)] = counts.get((src, dst), 0) + 1
        assert {(s, d): c for s, d, _, c in g.edges()} == counts

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            build([("a", "a", 1)])

    @pytest.mark.parametrize("bad", [1.5, 2**63, 2**70])
    def test_record_time_outside_int64_rejected(self, bad):
        with pytest.raises(ValueError):
            build([("a", "b", 1), ("a", "c", bad)])

    def test_self_edge_in_log_rejected(self):
        """A log made with its constructor skips the record checks; build still rejects a -> a."""
        vocab = LogVocab()
        a, b = vocab.authors.code("a"), vocab.authors.code("b")
        site = vocab.sites.code("s")
        log = DirectedInteractionLog(
            vocab,
            np.array([a, a], dtype=np.int32),
            np.array([a, b], dtype=np.int32),
            np.array([1, 2], dtype=np.int64),
            np.zeros(2, dtype=np.int8),
            np.array([site, site], dtype=np.int32),
        )
        with pytest.raises(InvalidEdgeError):
            build(log)


class TestAdvance:
    def test_monotonicity_error(self):
        g = build([("a", "b", 5)])
        g.advance_to(10)
        with pytest.raises(MonotonicityError):
            g.advance_to(9)

    def test_strictly_before_semantics(self):
        g = build([("a", "b", 5)])
        g.advance_to(5)
        assert not g.has_edge("a", "b")
        g.advance_to(6)
        assert g.has_edge("a", "b")


class TestDegreesAndEdges:
    def test_isolated_node_zero(self):
        g = build([("a", "b", 1)], extra_nodes={"z": 0})
        g.advance_to(10)
        assert g.out_degree("z") == 0
        assert g.in_degree("z") == 0

    def test_star_in_degree(self):
        g = build([(f"n{i}", "hub", i) for i in range(5)])
        g.advance_to(100)
        assert g.in_degree("hub") == 5
        assert g.out_degree("hub") == 0

    def test_has_edge_directionality(self):
        g = build([("b", "a", 5)])
        g.advance_to(6)
        assert g.has_edge("b", "a")
        assert not g.has_edge("a", "b")

    def test_empty_graph_queries(self):
        g = build([])
        assert not g.has_edge("a", "b")
        assert g.same_wcc("a", "a")
        assert not g.same_wcc("a", "b")
        assert not g.is_friend_of_friend("a", "b")

    def test_degrees_match_scan_oracle(self):
        rng = np.random.default_rng(1)
        edges = random_edge_stream(rng, n_nodes=20, n_edges=200, t_max=60)
        g = build(edges)
        for cursor in (0, 10, 30, 61):
            g.advance_to(cursor)
            applied = {(s, d) for s, d, t in edges if t < cursor}
            for node in range(20):
                assert g.out_degree(node) == len({d for s, d in applied if s == node})
                assert g.in_degree(node) == len({s for s, d in applied if d == node})
                for other in range(20):
                    assert g.has_edge(node, other) == ((node, other) in applied)

    def test_degree_monotone_in_cursor(self):
        rng = np.random.default_rng(2)
        edges = random_edge_stream(rng, n_nodes=10, n_edges=80, t_max=50)
        g = build(edges)
        last = {n: 0 for n in range(10)}
        for cursor in range(0, 55, 5):
            g.advance_to(cursor)
            for node in range(10):
                deg = g.out_degree(node) + g.in_degree(node)
                assert deg >= last[node]
                last[node] = deg


class TestComponents:
    def test_path_same_wcc(self):
        g = build([("a", "c", 1), ("c", "b", 2)])
        g.advance_to(3)
        assert g.same_wcc("a", "b")

    def test_disjoint_pairs(self):
        g = build([("a", "b", 1), ("c", "d", 2)])
        g.advance_to(3)
        assert not g.same_wcc("a", "c")

    def test_same_wcc_reflexive_symmetric(self):
        rng = np.random.default_rng(3)
        edges = random_edge_stream(rng, n_nodes=12, n_edges=40, t_max=30)
        g = build(edges)
        g.advance_to(31)
        for a in range(12):
            assert g.same_wcc(a, a)
            for b in range(12):
                assert g.same_wcc(a, b) == g.same_wcc(b, a)

    def test_union_find_matches_bfs_along_stream(self):
        rng = np.random.default_rng(4)
        edges = sorted(random_edge_stream(rng, n_nodes=40, n_edges=500, t_max=200), key=lambda e: e[2])
        g = build(edges)
        nodes = sorted({e[0] for e in edges} | {e[1] for e in edges})
        seen_times = sorted({t for _, _, t in edges})
        for cursor in seen_times + [seen_times[-1] + 1]:
            g.advance_to(cursor)
            applied = [(s, d) for s, d, t in edges if t < cursor]
            comps = bfs_components(applied)
            for i, a in enumerate(nodes):
                comp_a = component_of(comps, a)
                for b in nodes[i + 1 :]:
                    expected = comp_a is not None and b in comp_a
                    assert g.same_wcc(a, b) == expected, (cursor, a, b)

    def test_largest_share_triangle_plus_isolate(self):
        g = build([("a", "b", 1), ("b", "c", 1), ("c", "a", 1)], extra_nodes={"z": 0})
        g.advance_to(2)
        assert g.largest_wcc_share() == pytest.approx(0.75)

    def test_all_isolates_share(self):
        g = build([], extra_nodes={f"n{i}": 0 for i in range(4)})
        g.advance_to(1)
        assert g.largest_wcc_share() == pytest.approx(0.25)

    def test_share_undefined_without_activation(self):
        g = build([("a", "b", 5)])
        g.advance_to(2)
        with pytest.raises(UndefinedShareError):
            g.largest_wcc_share()

    def test_share_matches_bfs_oracle_along_stream(self):
        rng = np.random.default_rng(5)
        edges = sorted(random_edge_stream(rng, n_nodes=25, n_edges=150, t_max=100), key=lambda e: e[2])
        g = build(edges)
        for cursor in sorted({t for _, _, t in edges} | {101}):
            g.advance_to(cursor)
            applied = [(s, d) for s, d, t in edges if t < cursor]
            activated = {n for e in applied for n in e[:2]}
            if not activated:
                continue
            comps = bfs_components(applied)
            largest = max((len(c) for c in comps), default=1)
            assert g.largest_wcc_share() == pytest.approx(largest / len(activated))


class TestFriendOfFriend:
    def test_shared_undirected_neighbor(self):
        g = build([("a", "c", 1), ("b", "c", 2)])
        g.advance_to(3)
        assert g.is_friend_of_friend("a", "b")

    def test_direct_edge_only_is_not_fof(self):
        g = build([("a", "b", 1)])
        g.advance_to(2)
        assert not g.is_friend_of_friend("a", "b")

    def test_direct_edge_does_not_disqualify(self):
        g = build([("a", "b", 1), ("a", "c", 1), ("c", "b", 1)])
        g.advance_to(2)
        assert g.is_friend_of_friend("a", "b")

    def test_matches_two_hop_brute_force(self):
        rng = np.random.default_rng(6)
        edges = random_edge_stream(rng, n_nodes=15, n_edges=60, t_max=40)
        g = build(edges)
        for cursor in (5, 20, 41):
            g.advance_to(cursor)
            und = {}
            for s, d, t in edges:
                if t < cursor:
                    und.setdefault(s, set()).add(d)
                    und.setdefault(d, set()).add(s)
            for a in range(15):
                for b in range(15):
                    if a == b:
                        continue
                    expected = any(
                        c not in (a, b) and c in und.get(b, ())
                        for c in und.get(a, ())
                    )
                    assert g.is_friend_of_friend(a, b) == expected, (cursor, a, b)


class TestSCC:
    def test_two_cycle_plus_singletons(self):
        g = build([("a", "b", 1), ("b", "a", 2), ("a", "c", 3)])
        g.advance_to(4)
        assert g.scc_snapshot() == [2, 1]

    def test_dag_all_singletons(self):
        g = build([("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
        g.advance_to(4)
        assert g.scc_snapshot() == [1, 1, 1]

    def test_isolated_activated_nodes_counted(self):
        g = build([("a", "b", 1)], extra_nodes={"z": 0})
        g.advance_to(2)
        assert g.scc_snapshot() == [1, 1, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_transitive_closure_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(5, 50))
        edges = random_edge_stream(rng, n_nodes=n_nodes, n_edges=int(rng.integers(10, 120)), t_max=50)
        g = build(edges)
        g.advance_to(51)
        applied = {(s, d) for s, d, _ in edges}
        nodes = sorted({n for e in applied for n in e})
        reach = {n: {n} for n in nodes}
        changed = True
        while changed:
            changed = False
            for s, d in applied:
                new = reach[d] - reach[s]
                if new:
                    reach[s] |= new
                    changed = True
        assigned = set()
        sizes = []
        for n in nodes:
            if n in assigned:
                continue
            scc = {m for m in reach[n] if n in reach[m]}
            assigned |= scc
            sizes.append(len(scc))
        assert g.scc_snapshot() == sorted(sizes, reverse=True)


class TestStreamingAppend:
    def test_append_edge_dedups_and_counts(self):
        g = TemporalGraph()
        assert g.append_edge("a", "b", 1)
        assert not g.append_edge("a", "b", 4)
        assert g.append_edge("b", "a", 5)
        g.advance_to(6)
        assert g.has_edge("a", "b") and g.has_edge("b", "a")
        assert [c for _, _, _, c in g.edges()] == [2, 1]

    def test_append_must_stay_sorted(self):
        g = TemporalGraph()
        g.append_edge("a", "b", 10)
        with pytest.raises(MonotonicityError):
            g.append_edge("b", "c", 5)

    def test_append_after_build(self):
        g = build([("a", "b", 1)])
        g.append_edge("b", "c", 7)
        g.advance_to(8)
        assert g.has_edge("b", "c")


class TestSeriesAndExport:
    def test_share_series(self):
        g = build([("a", "b", 1), ("c", "d", 2), ("b", "c", 3)])
        rows = list(largest_wcc_share_series(g))
        assert [r[0] for r in rows] == [1, 2, 3]
        assert rows[0][3] == pytest.approx(1.0)      # one dyad of 2 activated
        assert rows[1][3] == pytest.approx(0.5)      # two dyads over 4
        assert rows[2][3] == pytest.approx(1.0)      # merged

    def test_edge_csv_round_trip(self, tmp_path):
        g = build([("a", "b", 3), ("a", "b", 7), ("b", "c", 5)])
        path = tmp_path / "edges.csv"
        g.to_edge_csv(path, header_comment="config_hash=deadbeef")
        text = path.read_text().splitlines()
        assert text[0] == "# config_hash=deadbeef"
        assert text[1] == "source,target,first_time,interaction_count"
        assert text[2] == "a,b,3,2"
        assert text[3] == "b,c,5,1"


def test_union_find_component_sizes():
    dsu = UnionFind()
    dsu.union(1, 2)
    dsu.union(3, 4)
    dsu.union(2, 3)
    assert dsu.component_size(1) == 4
    assert dsu.largest_size == 4
    assert dsu.component_size(99) == 1


def scc_sizes_oracle(pairs, activated) -> list[int]:
    """SCC sizes by transitive closure; activated nodes without edges are singletons."""
    nodes = {n for pair in pairs for n in pair} | set(activated)
    reach = {n: {n} for n in nodes}
    changed = True
    while changed:
        changed = False
        for s, d in pairs:
            new = reach[d] - reach[s]
            if new:
                reach[s] |= new
                changed = True
    assigned, sizes = set(), []
    for n in nodes:
        if n not in assigned:
            scc = {m for m in reach[n] if n in reach[m]}
            assigned |= scc
            sizes.append(len(scc))
    return sorted(sizes, reverse=True)


def coded_graph(stream, extra_nodes):
    """An int-coded graph (built from a log) and the label -> code map."""
    records = [DirectedInteraction(s, d, t, "guestbook", "site") for s, d, t in stream]
    log = DirectedInteractionLog.from_records(records)
    extra = {log.vocab.authors.code(n): t for n, t in extra_nodes.items()}
    code = {log.vocab.authors.id(c): c for c in range(len(log.vocab.authors))}
    return build(log, extra_nodes=extra), code


class TestQueriesAgainstScan:
    """Every adjacency query at every cursor equals a scan of the edges strictly before it.

    Part of each stream is appended after the build, interleaved with the
    queries, so rows cached (or not yet cached) before an append must show
    the appended edge once the cursor has passed it.
    """

    @staticmethod
    def check(g, node, edges, activation, cursor, queried):
        pairs = {(s, d) for s, d, t in edges if t < cursor}
        activated = [n for n, t in activation.items() if t < cursor]
        und = {n: set() for n in queried}
        for s, d in pairs:
            und.setdefault(s, set()).add(d)
            und.setdefault(d, set()).add(s)
        comps = bfs_components(pairs)
        assert g.activated_count() == len(activated)
        assert g.scc_snapshot() == scc_sizes_oracle(pairs, activated), cursor
        for a in queried:
            outs = {d for s, d in pairs if s == a}
            ins = {s for s, d in pairs if d == a}
            assert g.out_degree(node[a]) == len(outs), (cursor, a)
            assert g.in_degree(node[a]) == len(ins), (cursor, a)
            assert g.out_neighbors(node[a]) == {node[d] for d in outs}, (cursor, a)
            comp_a = component_of(comps, a)
            for b in queried:
                assert g.has_edge(node[a], node[b]) == ((a, b) in pairs), (cursor, a, b)
                assert g.same_wcc(node[a], node[b]) == (a == b or (comp_a is not None and b in comp_a))
                fof = bool((und[a] & und[b]) - {a, b})
                assert g.is_friend_of_friend(node[a], node[b]) == fof, (cursor, a, b)

    @pytest.mark.parametrize("coded", [False, True], ids=["labels", "int-codes"])
    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_appends(self, seed, coded):
        rng = np.random.default_rng(100 + seed)
        labels = [f"n{i}" for i in range(12)]
        stream = [(labels[s], labels[d], t) for s, d, t in random_edge_stream(rng, n_nodes=12, n_edges=70, t_max=40)]
        split = 20
        built = [e for e in stream if e[2] < split]
        later = sorted((e for e in stream if e[2] >= split), key=lambda e: e[2])
        extra = {"z0": 3, "z1": 25}
        if coded:
            g, code = coded_graph(built, extra)
            # Nodes first seen in appended edges get fresh codes.
            for s, d, _ in later:
                for n in (s, d):
                    code.setdefault(n, len(code))
        else:
            g = build(built, extra_nodes=extra)
            code = {n: n for n in labels + list(extra)}
        activation = dict(extra)
        for s, d, t in built:
            for n in (s, d):
                activation[n] = min(activation.get(n, t), t)
        nodes = sorted(code)
        cursors = sorted({t for _, _, t in stream} | {0, 41})
        applied, j = list(built), 0
        for k, cursor in enumerate(cursors):
            g.advance_to(cursor)
            # Query a growing subset, so some rows are first cut after appends.
            queried = nodes[: 2 + k * len(nodes) // len(cursors)]
            self.check(g, code, applied, activation, cursor, queried)
            stop = cursors[k + 1] if k + 1 < len(cursors) else math.inf
            while j < len(later) and later[j][2] < stop:
                s, d, t = later[j]
                g.append_edge(code[s], code[d], t)
                applied.append(later[j])
                for n in (s, d):
                    activation[n] = min(activation.get(n, t), t)
                j += 1
        assert j == len(later)


class TestSeriesAgainstReplay:
    @pytest.mark.parametrize("coded", [False, True], ids=["labels", "int-codes"])
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_per_time_advance_and_bfs(self, seed, coded):
        rng = np.random.default_rng(200 + seed)
        labels = [f"n{i}" for i in range(25)]
        stream = [(labels[s], labels[d], t) for s, d, t in random_edge_stream(rng, n_nodes=25, n_edges=90, t_max=60)]
        extra = {"z0": 0, "z1": 30, "n0": 70}

        def fresh():
            return coded_graph(stream, extra)[0] if coded else build(stream, extra_nodes=extra)

        g = fresh()
        rows = list(largest_wcc_share_series(g))
        first = {}
        for s, d, t in stream:
            first[(s, d)] = min(first.get((s, d), t), t)
        times = sorted(set(first.values()))
        assert [r[0] for r in rows] == times
        assert g.cursor == times[-1] + 1
        replayed = fresh()
        activation = dict(extra)
        for s, d, t in stream:
            for n in (s, d):
                activation[n] = min(activation.get(n, t), t)
        for t, activated, largest, share in rows:
            replayed.advance_to(t + 1)
            assert activated == replayed.activated_count()
            assert activated == sum(1 for at in activation.values() if at <= t)
            comps = bfs_components([(s, d) for s, d, tau in stream if tau <= t])
            assert largest == max(len(c) for c in comps)
            assert share == pytest.approx(largest / activated)
            assert share == pytest.approx(replayed.largest_wcc_share())

    def test_int64_max_timestamp(self):
        """The loaders accept 2**63 - 1; the row at that time and the cursor past it stay exact."""
        top = 2**63 - 1
        records = [DirectedInteraction("a", "b", 5, "guestbook", "s"), DirectedInteraction("b", "c", top, "guestbook", "s")]
        g = build(DirectedInteractionLog.from_records(records))
        assert list(largest_wcc_share_series(g)) == [(5, 2, 2, 1.0), (top, 3, 3, 1.0)]
        assert g.activated_count() == 3
        assert g.largest_wcc_share() == 1.0


class TestComponentsAgainstUnionFind:
    """Weak components at random cursors equal a label-keyed UnionFind fed the same edges.

    Record graphs use int labels whose sorted codes differ from the labels,
    so a root code returned where a key is due shows up as a wrong class.
    """

    @staticmethod
    def check(g, oracle, nodes, activated):
        for a in nodes:
            root = g.wcc_root(a)
            assert oracle.same_component(root, a), (a, root)
            for b in nodes:
                same = oracle.same_component(a, b)
                assert g.same_wcc(a, b) == same, (a, b)
                assert (g.wcc_root(b) == root) == same, (a, b)
        if activated:
            assert g.largest_wcc_share() == max(oracle.largest_size, 1) / activated

    @pytest.mark.parametrize("coded", [False, True], ids=["int-labels", "int-codes"])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_checkpoints_with_appends(self, seed, coded):
        rng = np.random.default_rng(700 + seed)
        labels = [(53 * i) % 97 - 40 for i in range(24)]
        stream = [(labels[s], labels[d], t) for s, d, t in random_edge_stream(rng, n_nodes=16, n_edges=60, t_max=50)]
        if coded:
            g, code = coded_graph(stream, {})
        else:
            g, code = build(stream), {n: n for n in labels}
        # Later edges reach eight nodes no built edge has, so they are interned
        # fresh: a graph of codes takes them once its vocabulary holds them.
        for n in labels:
            if n not in code:
                code[n] = g.vocab.authors.code(n)
        later = sorted(
            ((labels[s], labels[d], int(t)) for s, d, t in random_edge_stream(rng, n_nodes=24, n_edges=40, t_max=40)),
            key=lambda e: e[2],
        )
        edges = sorted(((code[s], code[d], t) for s, d, t in stream), key=lambda e: e[2])
        nodes = sorted(code.values())
        oracle, fed, j, top = UnionFind(), 0, 0, 50
        for cursor in sorted(rng.choice(np.arange(1, 101), size=8, replace=False).tolist()):
            while j < len(later) and later[j][2] + top <= cursor:
                s, d, t = later[j]
                g.append_edge(code[s], code[d], t + top)
                edges.append((code[s], code[d], t + top))
                j += 1
            g.advance_to(cursor)
            while fed < len(edges) and edges[fed][2] < cursor:
                oracle.union(*edges[fed][:2])
                fed += 1
            self.check(g, oracle, nodes, g.activated_count())

    def test_series_leaves_the_state_of_advance(self):
        rng = np.random.default_rng(9)
        labels = [(31 * i) % 59 - 20 for i in range(20)]
        stream = [(labels[s], labels[d], t) for s, d, t in random_edge_stream(rng, n_nodes=20, n_edges=50, t_max=30)]
        extra = {labels[0]: 100}
        series_graph, fresh = build(stream, extra_nodes=extra), build(stream, extra_nodes=extra)
        rows = list(largest_wcc_share_series(series_graph))
        fresh.advance_to(rows[-1][0] + 1)
        assert series_graph.cursor == fresh.cursor
        assert series_graph.scc_snapshot() == fresh.scc_snapshot()
        assert series_graph.largest_wcc_share() == fresh.largest_wcc_share()
        assert series_graph.activated_count() == fresh.activated_count()
        oracle = UnionFind()
        for s, d, _, _ in fresh.edges():
            oracle.union(s, d)
        for g in (series_graph, fresh):
            self.check(g, oracle, labels, g.activated_count())
        with pytest.raises(MonotonicityError):
            series_graph.advance_to(rows[-1][0])


def test_build_peak_per_input_row():
    # 200k interactions over 1,600 pairs: the first-edge reduction's
    # temporaries, not its output, set the peak. Widening the int32 code
    # columns to int64 copies took it to about 50 bytes per row.
    rng = np.random.default_rng(1)
    n = 200_000
    vocab = LogVocab()
    for i in range(80):
        vocab.authors.code(f"a{i}")
    log = DirectedInteractionLog(
        vocab, rng.integers(0, 40, n).astype(np.int32), rng.integers(40, 80, n).astype(np.int32),
        rng.integers(0, 10**6, n), np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int32),
    )
    g, peak = traced_peak(lambda: build(log))
    assert g.n_edges == 1600
    assert peak <= 32 * n, f"{peak / n:.1f} bytes per input row"


def trim_oracle(pairs):
    """The SCC trim rule one round at a time over Python sets: the edges left
    after each round, and the edges left at the end, in their given order."""
    edges, left = list(pairs), []
    while edges:
        both = {s for s, _ in edges} & {d for _, d in edges}
        kept = [(s, d) for s, d in edges if s in both and d in both]
        removed = len(edges) - len(kept)
        edges = kept
        left.append(len(kept))
        if 4 * removed < removed + len(kept):
            break
    return left, edges


def untrimmed_scc(g):
    """``scc_snapshot`` through Tarjan over every edge before the cursor, with no trimming."""
    src, dst = np.array(g._srcs[: g._ptr]), np.array(g._dsts[: g._ptr])
    sizes = _tarjan_scc_sizes(src, dst, _code_span(src, dst))
    return sorted(sizes + [1] * (g.activated_count() - sum(sizes)), reverse=True)


def binary_in_tree(depth):
    """Edges child -> parent of a complete binary tree, nodes 0 (root) to 2 ** (depth + 1) - 2 in heap order."""
    return [(child, (child - 1) // 2) for child in range(1, 2 ** (depth + 1) - 1)]


def cycle(nodes):
    return list(zip(nodes, nodes[1:] + nodes[:1]))


TREE = binary_in_tree(6)  # nodes 0-126
TREE_INTO_CYCLE = TREE + [(0, 127)] + cycle([127, 128, 129])
CHAIN = [0, 2, 5, 9, 14, 20]  # first node of each cycle
SCC_CASES = {
    # Each round trims one tree level; the seventh removes the root's edge
    # into the cycle, and the eighth removes nothing: the cycle is left.
    "tree-into-cycle": (TREE_INTO_CYCLE, [66, 34, 18, 10, 6, 4, 3, 3]),
    # A 40-edge tail out of the cycle loses one edge a round, so the third
    # round removes under a quarter and a core with trimmable nodes is left.
    "tree-into-cycle-with-tail": (TREE_INTO_CYCLE + list(zip([127, *range(130, 169)], range(130, 170))), [105, 72, 55]),
    # One round removes the path's first edge, then the rule stops: Tarjan
    # walks the 4,990-edge path into the 10-node cycle.
    "path-into-cycle": ([(i, i + 1) for i in range(4999)] + [(4999, 4990)], [4999]),
    # Cycles of 2-6 nodes, each joined to the next by one edge: no node can be trimmed.
    "chain-of-cycles": (
        [edge for k in range(2, 7) for edge in cycle(list(range(CHAIN[k - 2], CHAIN[k - 1])))]
        + list(zip(CHAIN[:4], CHAIN[1:5])),
        [24],
    ),
}


class TestSCCTrimming:
    """``scc_snapshot`` trims nodes that cannot lie on a cycle before Tarjan runs.

    Every case lists the edges left after each round at the last cursor;
    partial cursors replay the edges in a shuffled time order, so prefixes
    of each shape reach Tarjan too.
    """

    @pytest.mark.parametrize("case", sorted(SCC_CASES))
    def test_rounds(self, case):
        pairs, rounds = SCC_CASES[case]
        assert trim_oracle(pairs)[0] == rounds
        src, dst = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        left = _scc_core(src, dst)
        assert list(zip(*(column.tolist() for column in left))) == trim_oracle(pairs)[1]

    @pytest.mark.parametrize("case", sorted(SCC_CASES))
    def test_partial_cursors_match_untrimmed_tarjan(self, case, monkeypatch):
        pairs, _ = SCC_CASES[case]
        rng = np.random.default_rng(len(pairs))
        times = rng.permutation(len(pairs)).tolist()
        g = build([(s, d, t) for (s, d), t in zip(pairs, times)])
        by_time = [pair for _, pair in sorted(zip(times, pairs))]
        fed = []

        def spy(src_codes, dst_codes, n):
            fed.append(sorted(zip(src_codes.tolist(), dst_codes.tolist())))
            return _tarjan_scc_sizes(src_codes, dst_codes, n)

        monkeypatch.setattr(graph_module, "_tarjan_scc_sizes", spy)
        small = len(pairs) < 1000
        for cursor in sorted({len(pairs) // 7, len(pairs) // 3, len(pairs) // 2, len(pairs) - 1, len(pairs)}):
            g.advance_to(cursor)
            # Codes equal labels: the labels are 0 to n - 1.
            prefix = by_time[:cursor]
            snapshot = g.scc_snapshot()
            assert fed.pop() == sorted(trim_oracle(prefix)[1]), cursor
            assert snapshot == untrimmed_scc(g), cursor
            if small:
                assert snapshot == scc_sizes_oracle(set(prefix), {n for pair in prefix for n in pair}), cursor

    def test_last_cursor_sizes(self):
        g = build([(s, d, 0) for s, d in SCC_CASES["path-into-cycle"][0]])
        g.advance_to(1)
        assert g.scc_snapshot() == [10] + [1] * 4990
        g = build([(s, d, 0) for s, d in SCC_CASES["chain-of-cycles"][0]])
        g.advance_to(1)
        assert g.scc_snapshot() == [6, 5, 4, 3, 2]


class TestActivationOrder:
    """Nodes 9 and 10 activate together: ``str`` order puts 10 first, int order 9."""

    def graph(self):
        return build([(9, 10, 5), (3, 9, 7), (10, 3, 7)], extra_nodes={4: 2, 12: 5})

    def test_prefix_order_and_counts(self):
        g = self.graph()
        nodes, k = g.activation_prefix(6)
        assert (nodes, k) == ([4, 10, 12, 9, 3], 4)
        assert g.nodes_activated_before(6) == [4, 10, 12, 9]
        for t, expected in [(2, 0), (3, 1), (5, 1), (6, 4), (8, 5)]:
            assert g.activated_count(t) == expected == g.activation_prefix(t)[1], t
        rows = list(largest_wcc_share_series(g))
        assert [(t, count) for t, count, _, _ in rows] == [(5, 4), (7, 5)]
        assert [(count, g.activated_count(t + 1)) for t, count, _, _ in rows] == [(4, 4), (5, 5)]

    def test_register_after_series_invalidates(self):
        g = self.graph()
        list(largest_wcc_share_series(g))
        assert g.activated_count() == 5
        g.register_node(8, 5)
        assert g.activation_prefix(6) == ([4, 10, 12, 8, 9, 3], 5)
        assert g.activated_count() == 6 == g.activated_count(8)

    def test_append_after_series_invalidates(self):
        g = self.graph()
        list(largest_wcc_share_series(g))
        assert g.activation_prefix(9) == ([4, 10, 12, 9, 3], 5)
        assert g.append_edge(11, 9, 9)
        assert g.activation_prefix(10) == ([4, 10, 12, 9, 3, 11], 6)
        assert (g.activated_count(9), g.activated_count(10)) == (5, 6)


def directed_log(pairs, n_authors=None):
    """A log of (source code, target code, time) rows over authors ``a0``, ``a1``, ..."""
    vocab = LogVocab()
    src, dst, times = (np.array([row[i] for row in pairs], dtype=dtype) for i, dtype in enumerate("iiq"))
    for i in range(n_authors if n_authors is not None else int(max(src.max(), dst.max())) + 1):
        vocab.authors.code(f"a{i}")
    site = vocab.sites.code("s")
    return DirectedInteractionLog(vocab, src, dst, times, np.zeros(len(src), dtype=np.int8), np.full(len(src), site, np.int32))


MEMO_ROWS = [(0, 1, 5), (1, 2, 6), (0, 1, 7), (2, 0, 6), (3, 1, 9)]


def graph_state(g):
    return list(g.edges()), {n: g.activation_time(n) for n in range(6)}, g.n_edges


def edge_columns(g) -> tuple:
    return g._times, g._srcs, g._dsts, g._counts


def assert_frozen_columns(g):
    """The edge columns are read-only int64 arrays, before and after any append."""
    for column in edge_columns(g):
        assert isinstance(column, np.ndarray) and column.dtype == np.int64 and not column.flags.writeable


class TestFirstEdgeMemo:
    """A directed log is reduced to its first edges once; each graph of it shares that reduction."""

    def test_builds_agree(self):
        log = directed_log(MEMO_ROWS)
        first, second = build(log), build(log)
        assert graph_state(first) == graph_state(second)
        assert list(first.edges()) == [(0, 1, 5, 2), (1, 2, 6, 1), (2, 0, 6, 1), (3, 1, 9, 1)]

    def test_log_is_reduced_once(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(len(args[0]))
            return first_edges(*args)

        first_edges = graph_module._first_edges
        monkeypatch.setattr(graph_module, "_first_edges", spy)
        log = directed_log(MEMO_ROWS)
        g = build(log)
        rows = extract_initiations(log)
        build(log, extra_nodes={5: 1})
        assert calls == [len(MEMO_ROWS)]
        assert [(i.initiator, i.receiver, i.time) for i in rows] == [(s, d, t) for s, d, t, _ in g.edges()]
        build([("a", "b", 1)])
        build([("a", "b", 1)])
        assert calls == [len(MEMO_ROWS), 1, 1]  # records are not memoized

    def test_append_reaches_neither_the_memo_nor_another_graph(self):
        log = directed_log(MEMO_ROWS, n_authors=6)
        first, second = build(log), build(log)
        before = graph_state(second)
        memo = [column.copy() for column in graph_module._reduced(log)]
        assert first.append_edge(4, 5, 10) and not first.append_edge(0, 1, 11)
        assert first.n_edges == 5 and list(first.edges())[0] == (0, 1, 5, 3)
        assert all(np.array_equal(a, b) for a, b in zip(log._memo, memo))
        assert graph_state(second) == graph_state(build(log)) == before

    def test_copies_and_pickles_carry_no_memo(self):
        log = directed_log(MEMO_ROWS)
        build(log)
        assert log._memo is not None
        for other in (copy.copy(log), copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
            assert not hasattr(other, "_memo")
            assert graph_state(build(other)) == graph_state(build(log))

    def test_self_edge_raises_on_every_build(self):
        log = directed_log([(0, 1, 1), (2, 2, 3)])
        for _ in range(2):
            with pytest.raises(InvalidEdgeError, match="self-edge 2"):
                build(log)
        assert not hasattr(log, "_memo")

    def test_extra_nodes_stay_with_their_graph(self):
        log = directed_log(MEMO_ROWS, n_authors=6)
        with_extra = build(log, extra_nodes={5: 1, 0: 2})
        assert (with_extra.activation_time(5), with_extra.activation_time(0)) == (1, 2)
        plain = build(log)
        assert (plain.activation_time(5), plain.activation_time(0)) == (None, 5)
        assert plain.activated_count(100) == 4

    def test_edges_are_python_ints_before_and_after_an_append(self):
        g = build(directed_log(MEMO_ROWS, n_authors=6))
        for _ in range(2):
            edges = list(g.edges())
            assert edges and all(type(value) is int for edge in edges for value in edge)
            g.append_edge(4, 5, 20)
        assert all(type(i.time) is int for i in extract_initiations(g))

    def test_graphs_share_the_memo_until_one_appends(self):
        log = directed_log(MEMO_ROWS, n_authors=6)
        first, second = build(log), build(log)
        columns = ("_times", "_srcs", "_dsts", "_counts")
        assert all(np.shares_memory(getattr(first, name), getattr(second, name)) for name in columns)
        first.append_edge(4, 5, 20)
        assert not any(np.shares_memory(np.asarray(getattr(first, name)), getattr(second, name)) for name in columns)
        assert all(np.shares_memory(getattr(second, name), column) for name, column in zip(columns, log._memo))

    def test_second_build_copies_no_column(self):
        # 200k rows over a million possible pairs keep about 180k edges; a
        # second build that copied its edge columns would take 1.4 MB apiece.
        rng = np.random.default_rng(3)
        n = 200_000
        log = directed_log(list(zip(rng.integers(0, 1000, n), rng.integers(1000, 2000, n), rng.integers(0, 10**6, n))))
        first = build(log)
        second, peak = traced_peak(lambda: build(log))
        assert second.n_edges == first.n_edges > 150_000
        assert peak < 8 * n, f"{peak} bytes"


class TestAppendNodeCheck:
    """A graph of codes refuses an append whose node is no code, before it stores or copies anything."""

    def test_negative_and_non_int_nodes_are_refused(self):
        log = DirectedInteractionLog.from_records(
            [DirectedInteraction("a", "b", 5, "guestbook", "s"), DirectedInteraction("b", "c", 6, "guestbook", "s")]
        )
        g = build(log)
        before, memo = graph_state(g), log._memo
        refused = ((-1, 2), (2, -1), ("a", 2), (0, 1.0), (None, 2), (2**63, 1), (np.uint64(2**63), 1), (0, 3), (3, 0))
        for src, dst in refused:
            with pytest.raises(ValueError, match="is not an author code"):
                g.append_edge(src, dst, 10)
        assert graph_state(g) == before and log._memo is memo
        assert all(column is shared for column, shared in zip(edge_columns(g), memo))  # none was replaced
        g.advance_to(100)
        assert g.largest_wcc_share() == 1.0
        assert g.scc_snapshot() == [1, 1, 1]

    def test_label_graphs_take_any_key(self):
        g = build([("a", "b", 5)])
        assert g.append_edge(-1, "a", 6) and g.append_edge(None, -1, 7)
        assert g.n_edges == 3

    def test_code_past_the_vocabulary_is_refused_and_the_graph_exports(self, tmp_path):
        g = build(directed_log([(0, 1, 5), (1, 2, 6)]))
        with pytest.raises(ValueError, match="3 is not an author code"):
            g.append_edge(0, 3, 9)  # the first code past the three authors
        path = tmp_path / "edges.csv"
        g.to_edge_csv(path)
        assert path.read_text().splitlines() == ["source,target,first_time,interaction_count", "a0,a1,5,1", "a1,a2,6,1"]


def refusal_graph(kind):
    """Edges a->b at 1 and b->c at 2, the cursor at 5, and the pair the refusals try: c->d."""
    if kind == "labels":
        g, pair = build([("a", "b", 1), ("b", "c", 2)]), ("c", "d")
    else:
        g, pair = build(directed_log([(0, 1, 1), (1, 2, 2)], n_authors=4)), (2, 3)
    g.advance_to(5)
    return g, pair


# Each refused append, with the error the graph raises for it; a label graph takes any key,
# so only a code graph refuses a node.
REFUSALS = (
    ("float time", lambda c, d: (c, d, 6.5), TypeError),
    ("time past int64", lambda c, d: (c, d, 2**63), OverflowError),
    ("time before the last edge", lambda c, d: (c, d, 1), MonotonicityError),
    ("time before the cursor", lambda c, d: (c, d, 3), MonotonicityError),
    ("self-edge", lambda c, d: (d, d, 6), InvalidEdgeError),
    ("non-code node", lambda c, d: (-1, d, 6), ValueError),
)
REFUSAL_CASES = [(kind, *refusal) for kind in ("labels", "codes") for refusal in REFUSALS[: 5 + (kind == "codes")]]


class TestRefusedAppend:
    """A refused append interns no label and replaces no column, so the same pair can still be appended."""

    @pytest.mark.parametrize("kind, name, args, error", REFUSAL_CASES, ids=[f"{c[0]}-{c[1]}" for c in REFUSAL_CASES])
    def test_refusal_changes_nothing(self, kind, name, args, error):
        g, (c, d) = refusal_graph(kind)
        nodes = ("a", "b", "c", "d") if kind == "labels" else range(4)

        def state():
            activations = {node: g.activation_time(node) for node in nodes}
            return list(g.edges()), activations, g.n_edges, copy.copy(g._labels), edge_columns(g)

        before = state()
        with pytest.raises(error):
            g.append_edge(*args(c, d))
        after = state()
        assert after[:4] == before[:4]
        assert all(column is kept for column, kept in zip(after[4], before[4]))
        assert g.append_edge(c, d, 6)
        assert list(g.edges()) == before[0] + [(c, d, 6, 1)]
        assert_frozen_columns(g)

    @pytest.mark.parametrize("kind", ["labels", "codes"])
    def test_extracted_table_outlives_appends(self, kind):
        g, (c, d) = refusal_graph(kind)
        table = extract_initiations(g)
        rows, columns = list(table), [column.copy() for column in (table.src, table.dst, table.time)]
        labels = copy.copy(table.labels)
        assert g.append_edge(c, d, 6) and not g.append_edge(c, d, 7)
        assert list(table) == rows and table.labels == labels and len(extract_initiations(g)) == len(rows) + 1
        assert all(np.array_equal(now, kept) for now, kept in zip((table.src, table.dst, table.time), columns))


# Every kind of cursor: Python and numpy ints at and past both ends of int64, and floats.
ADVANCE_CURSORS = (
    -(2**63), np.int64(-(2**63)), -(2**63) + 1, np.int32(-1), 0, np.int64(0), 1, 0.5, -1.5, 1e300, -1e300,
    2**63 - 2, np.int64(2**63 - 1), 2**63 - 1, 2**63, 2**70, -(2**70), True,
)
EXTREME_EDGE_TIMES = (-(2**63), -(2**63) + 1, 0, 1, 2**63 - 2, 2**63 - 1)


class TestAdvanceCursorKinds:
    """``advance_to`` joins exactly the edges strictly before any cursor (searchsorted for
    int64 cursors, bisect for the others), over the log's shared columns and over the
    columns appends replace them with."""

    @pytest.mark.parametrize("append", [False, True], ids=["numpy", "appended"])
    @pytest.mark.parametrize("seed", range(3))
    def test_cursor_kinds_join_the_same_edges(self, seed, append):
        rng = np.random.default_rng(1400 + seed)
        pairs = [rng.choice(12, size=2, replace=False).tolist() for _ in range(40)]
        log = directed_log([(a, b, EXTREME_EDGE_TIMES[rng.integers(6)]) for a, b in pairs], n_authors=14)
        memo = [column.copy() for column in graph_module._reduced(log)]
        for cursor in ADVANCE_CURSORS:
            g, sibling = build(log), build(log)
            if append:
                assert g.append_edge(12, 13, 2**63 - 1)
            assert_frozen_columns(g)
            exact = int(cursor) if isinstance(cursor, np.integer) else cursor
            before = [(s, d) for s, d, t, _ in g.edges() if t < exact]
            if exact >= 0:
                g.advance_to(0)  # the search then starts past the edges before 0
            g.advance_to(cursor)
            assert g._ptr == len(before), cursor
            oracle = UnionFind()
            for s, d in before:
                oracle.union(s, d)
            for a in range(14):
                assert [g.same_wcc(a, b) for b in range(14)] == [oracle.same_component(a, b) for b in range(14)]
            assert g._largest == oracle.largest_size
            if append and exact <= 2**63 - 1:
                assert g.append_edge(13, 12, 2**63 - 1) and not g.append_edge(12, 13, 2**63 - 1)
                assert_frozen_columns(g)
            # Neither the log's reduction nor a sibling graph of the same log sees an append.
            assert all(np.array_equal(column, kept) for column, kept in zip(log._memo, memo))
            assert all(column is shared for column, shared in zip(edge_columns(sibling), log._memo))

    @staticmethod
    def check_queries(g, cursor):
        exact = int(cursor) if isinstance(cursor, np.integer) else cursor
        before = [(s, d) for s, d, t, _ in g.edges() if t < exact]
        for a in range(14):
            outs, ins = [d for s, d in before if s == a], [s for s, d in before if d == a]
            assert g.adjacency(a) == (outs, ins), (cursor, a)
            assert (g.out_degree(a), g.in_degree(a)) == (len(outs), len(ins)), (cursor, a)
            assert g.out_neighbors(a) == set(outs), (cursor, a)
            assert [g.has_edge(a, b) for b in range(14)] == [b in outs for b in range(14)], (cursor, a)

    @pytest.mark.parametrize("append", [False, True], ids=["numpy", "appended"])
    @pytest.mark.parametrize("seed", range(3))
    def test_queries_read_the_edges_before_any_cursor(self, seed, append):
        # A one-node query reads the first _ptr edges of the node's rows; for
        # every cursor kind those are the edges strictly before the cursor,
        # whether the index was built before or after an append.
        rng = np.random.default_rng(1500 + seed)
        pairs = [rng.choice(12, size=2, replace=False).tolist() for _ in range(40)]
        log = directed_log([(a, b, EXTREME_EDGE_TIMES[rng.integers(6)]) for a, b in pairs], n_authors=14)
        for cursor in ADVANCE_CURSORS:
            g = build(log)
            self.check_queries(g, -math.inf)  # the index is built before any append
            if append:
                assert g.append_edge(12, 13, 2**63 - 1) and g.append_edge(13, 0, 2**63 - 1)
                self.check_queries(g, -math.inf)
            g.advance_to(cursor)
            self.check_queries(g, cursor)
            if (int(cursor) if isinstance(cursor, np.integer) else cursor) <= 2**63 - 1:
                assert g.append_edge(0, 13, 2**63 - 1)  # at or past the cursor: no query sees it
                self.check_queries(g, cursor)
