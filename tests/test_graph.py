import math

import numpy as np
import pytest

from conftest import bfs_components, component_of, random_edge_stream

from netchoice.events import DirectedInteraction, DirectedInteractionLog
from netchoice.graph import (
    MonotonicityError,
    TemporalGraph,
    UndefinedShareError,
    UnionFind,
    build,
    largest_wcc_share_series,
)


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
