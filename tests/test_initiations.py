import copy
import dataclasses
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bfs_components, component_of, random_edge_stream

from netchoice.events import DirectedInteraction, DirectedInteractionLog, SchemaError, unique_pair_count
from netchoice.graph import UnionFind, build
from netchoice.initiations import (
    Initiation,
    Initiations,
    InitiationType,
    InvalidEdgeError,
    TimelineStats,
    WindowStats,
    classify_initiation,
    classify_initiations,
    extract_initiations,
    initiations_from_interactions,
    read_initiations_csv,
    reciprocal_flag,
    reciprocation_rate_by_role,
    timeline_stats,
    write_initiations_csv,
)

JC = InitiationType.JOINING_COMPONENT
BC = InitiationType.BRIDGING_COMPONENT
JI = InitiationType.JOINING_ISOLATES
IC = InitiationType.INTRA_COMPONENT


def classify_oracle(prior_edges, a, b):
    """Type of edge (a, b) given the undirected components of prior edges."""
    comps = bfs_components(prior_edges)
    comp_a = component_of(comps, a)
    comp_b = component_of(comps, b)
    if comp_a is None and comp_b is None:
        return JI, True
    if comp_a is None:
        return JC, True
    if comp_b is None:
        return JC, False
    return (IC if comp_a is comp_b else BC), False


class TestExtract:
    def test_unique_edges_in_time_order(self):
        out = extract_initiations([("a", "b", 3), ("a", "b", 7), ("b", "a", 9)])
        assert [(i.initiator, i.receiver, i.time) for i in out] == [("a", "b", 3), ("b", "a", 9)]
        assert all(i.itype is None for i in out)

    def test_empty(self):
        assert extract_initiations([]) == []

    def test_tie_break_by_source_target(self):
        out = extract_initiations([("b", "a", 5), ("a", "b", 5), ("a", "c", 5)])
        assert [(i.initiator, i.receiver) for i in out] == [("a", "b"), ("a", "c"), ("b", "a")]

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(0)
        edges = random_edge_stream(rng, n_nodes=12, n_edges=300, t_max=50)
        out = extract_initiations(edges)
        expected = {}
        for s, d, t in edges:
            expected[(s, d)] = min(expected.get((s, d), t), t)
        assert {(i.initiator, i.receiver): i.time for i in out} == expected
        times = [i.time for i in out]
        assert times == sorted(times)

    def test_from_graph_matches_direct(self):
        rng = np.random.default_rng(1)
        edges = random_edge_stream(rng, n_nodes=10, n_edges=100, t_max=40)
        direct = extract_initiations(edges)
        via_graph = extract_initiations(build(edges))
        assert [(i.initiator, i.receiver, i.time) for i in direct] == [
            (i.initiator, i.receiver, i.time) for i in via_graph
        ]


    def test_from_log_with_ties(self):
        """A log's ties break on vocabulary codes (first appearance), not on the labels."""
        rng = np.random.default_rng(2)
        labels = [f"u{i:02d}" for i in rng.permutation(30)]
        stream = [(labels[s], labels[d], t) for s, d, t in random_edge_stream(rng, n_nodes=30, n_edges=600, t_max=8)]
        records = [DirectedInteraction(s, d, t, "guestbook", "x") for s, d, t in stream]
        log = DirectedInteractionLog.from_records(records)
        first = {}
        for s, d, t in zip(log.src.tolist(), log.dst.tolist(), log.timestamp.tolist()):
            first[(s, d)] = min(first.get((s, d), t), t)
        expected = sorted((t, s, d) for (s, d), t in first.items())
        out = extract_initiations(log)
        assert [(i.time, i.initiator, i.receiver) for i in out] == expected
        assert out == extract_initiations(build(log))
        assert all(type(v) is int for i in out for v in (i.initiator, i.receiver, i.time))
        assert unique_pair_count(log) == build(log).n_edges
        # The codes order the ties differently from the labels, so the check above has teeth.
        name = log.vocab.authors.id
        as_labels = [(t, name(s), name(d)) for t, s, d in expected]
        assert as_labels != sorted(as_labels)


class TestClassify:
    def test_both_isolates(self):
        state = UnionFind()
        assert classify_initiation(state, "a", "b") == (JI, True)

    def test_isolate_joins_component(self):
        dsu = UnionFind()
        dsu.union("b", "c")
        dsu.union("c", "d")
        itype, was_isolate = classify_initiation(dsu, "a", "b")
        assert (itype, was_isolate) == (JC, True)
        itype, was_isolate = classify_initiation(dsu, "b", "a")
        assert (itype, was_isolate) == (JC, False)

    def test_intra_component_via_path(self):
        dsu = UnionFind()
        dsu.union("a", "c")
        dsu.union("c", "b")
        assert classify_initiation(dsu, "a", "b") == (IC, False)

    def test_bridging(self):
        dsu = UnionFind()
        dsu.union("a", "x")
        dsu.union("b", "y")
        assert classify_initiation(dsu, "a", "b") == (BC, False)

    def test_self_edge_rejected(self):
        with pytest.raises(InvalidEdgeError):
            classify_initiation(UnionFind(), "a", "a")

    @pytest.mark.parametrize("seed", range(6))
    def test_stream_matches_bfs_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        edges = random_edge_stream(rng, n_nodes=30, n_edges=1000, t_max=400)
        classified = initiations_from_interactions(edges)
        prior = []
        for ini in classified:
            expected_type, expected_isolate = classify_oracle(prior, ini.initiator, ini.receiver)
            assert ini.itype is expected_type, ini
            assert ini.initiator_was_isolate == expected_isolate, ini
            prior.append((ini.initiator, ini.receiver))

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(9)
        edges = random_edge_stream(rng, n_nodes=15, n_edges=200, t_max=60)
        one = initiations_from_interactions(edges)
        two = initiations_from_interactions(list(reversed(edges)))
        assert one == two


class TestReciprocity:
    def test_reverse_before(self):
        out = initiations_from_interactions([("b", "a", 5), ("a", "b", 9)])
        flags = {(i.initiator, i.receiver): i.is_reciprocal for i in out}
        assert flags == {("b", "a"): False, ("a", "b"): True}

    def test_first_edge_never_reciprocal(self):
        out = initiations_from_interactions([("a", "b", 1)])
        assert not out[0].is_reciprocal

    def test_equal_timestamp_not_reciprocal(self):
        out = initiations_from_interactions([("a", "b", 5), ("b", "a", 5)])
        assert all(not i.is_reciprocal for i in out)

    def test_reciprocal_implies_intra_component(self):
        rng = np.random.default_rng(10)
        edges = random_edge_stream(rng, n_nodes=12, n_edges=400, t_max=100)
        for ini in initiations_from_interactions(edges):
            if ini.is_reciprocal:
                assert ini.itype is IC

    def test_graph_based_flag_matches_scan(self):
        rng = np.random.default_rng(11)
        edges = sorted(random_edge_stream(rng, n_nodes=10, n_edges=150, t_max=50), key=lambda e: e[2])
        g = build(edges)
        for ini in extract_initiations(edges):
            g.advance_to(ini.time)
            expected = any(s == ini.receiver and d == ini.initiator and t < ini.time for s, d, t in edges)
            assert reciprocal_flag(g, ini.initiator, ini.receiver) == expected


def classify_loop_oracle(initiations):
    """One edge at a time through ``classify_initiation`` and ``UnionFind``, with a last-time dict per pair."""
    ordered = sorted(initiations, key=lambda i: (i.time, i.initiator, i.receiver))
    dsu = UnionFind()
    state = dsu
    last_time: dict = {}
    out = []
    for ini in ordered:
        itype, was_isolate = classify_initiation(state, ini.initiator, ini.receiver)
        reverse = last_time.get((ini.receiver, ini.initiator))
        out.append(Initiation(ini.initiator, ini.receiver, ini.time, itype, reverse is not None and reverse < ini.time, was_isolate))
        dsu.union(ini.initiator, ini.receiver)
        last_time[(ini.initiator, ini.receiver)] = ini.time
    return out


def random_initiation_rows(rng, labels, n_rows, t_max):
    """Rows with repeated pairs and equal-time reverse edges, in shuffled order."""
    rows = []
    while len(rows) < n_rows:
        a, b = rng.choice(len(labels), size=2, replace=False).tolist()
        t = int(rng.integers(t_max))
        rows.append(Initiation(labels[a], labels[b], t))
        draw = rng.random()
        if draw < 0.2:
            rows.append(Initiation(labels[b], labels[a], t))
        elif draw < 0.35:
            rows.append(Initiation(labels[a], labels[b], int(rng.integers(t_max))))
    return [rows[i] for i in rng.permutation(len(rows))]


LABEL_SETS = {
    "str": [f"n{i}" for i in range(14)],
    # Ints whose sorted order differs from their first appearance and from any code.
    "int": [(37 * i) % 101 - 50 for i in range(14)],
}


class TestClassifyAgainstLoop:
    @pytest.mark.parametrize("kind", sorted(LABEL_SETS))
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams(self, seed, kind):
        rng = np.random.default_rng(500 + seed)
        for _ in range(40):
            rows = random_initiation_rows(rng, LABEL_SETS[kind], int(rng.integers(1, 60)), int(rng.integers(1, 25)))
            got = classify_initiations(rows)
            assert got == classify_loop_oracle(rows)
            assert [type(i.is_reciprocal) for i in got] == [bool] * len(rows)
            assert [type(i.initiator_was_isolate) for i in got] == [bool] * len(rows)

    def test_repeated_pair_reads_latest_reverse_row(self):
        # a -> b at 1 and again at 5. b -> a at 5 is processed after a -> b at 5,
        # so it reads that row, whose time is not below its own: not reciprocal,
        # although a -> b at 1 is earlier. b -> a at 7 reads the same row: reciprocal.
        rows = [Initiation("b", "a", 7), Initiation("b", "a", 5), Initiation("a", "b", 5), Initiation("a", "b", 1)]
        got = classify_initiations(rows)
        assert [(i.initiator, i.time, i.is_reciprocal) for i in got] == [
            ("a", 1, False), ("a", 5, False), ("b", 5, False), ("b", 7, True),
        ]
        assert got == classify_loop_oracle(rows)

    @pytest.mark.parametrize("kind", sorted(LABEL_SETS))
    def test_self_edge_message_matches(self, kind):
        labels = LABEL_SETS[kind]
        rows = [
            Initiation(labels[0], labels[1], 3),
            Initiation(labels[2], labels[2], 4),
            Initiation(labels[3], labels[3], 2),
            Initiation(labels[4], labels[5], 1),
        ]
        with pytest.raises(InvalidEdgeError) as expected:
            classify_loop_oracle(rows)
        with pytest.raises(InvalidEdgeError) as got:
            classify_initiations(rows)
        assert str(got.value) == str(expected.value) == f"initiation from {labels[3]!r} to itself"

    def test_empty(self):
        assert classify_initiations([]) == []


def table_of(labels, rows):
    """A table over the label list ``labels`` from (src code, dst code, time, type, reciprocal, isolate) rows."""
    codes = {itype: code for code, itype in enumerate((*InitiationType, None))}
    src, dst, times, itypes, reciprocal, isolated = (list(column) for column in zip(*rows)) if rows else [[]] * 6
    return Initiations(
        labels, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(times, dtype=np.int64),
        np.array([codes[t] for t in itypes], dtype=np.int8), np.array(reciprocal, dtype=bool), np.array(isolated, dtype=bool),
    )


TABLE_LABELS = ["a", 2, "c", "b", 3, "d"]
TABLE_ROWS = [(0, 3, 1, JC, False, True), (1, 4, 2, None, True, False), (2, 5, 3, IC, False, True)]
CONSTRUCTED = [
    Initiation("a", "b", 1, JC, False, True),
    Initiation(2, 3, 2, None, True, False),
    Initiation("c", "d", 3, IC, False, True),
]


class TestInitiationsTable:
    """``Initiations`` is a read-only sequence whose rows are built as they are read."""

    def test_rows_match_constructed(self):
        table = table_of(TABLE_LABELS, TABLE_ROWS)
        assert list(table) == CONSTRUCTED
        assert [hash(i) for i in table] == [hash(i) for i in CONSTRUCTED]
        assert [repr(i) for i in table] == [repr(i) for i in CONSTRUCTED]
        assert [repr(table[i]) for i in range(3)] == [repr(i) for i in CONSTRUCTED]

    def test_defaults_and_frozen(self):
        (ini,) = extract_initiations([("a", "b", 4)])
        assert ini == Initiation("a", "b", 4)
        assert repr(ini) == repr(Initiation("a", "b", 4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ini.time = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            ini.itype = JC

    def test_codes_are_python_ints(self):
        (ini,) = table_of(None, [(7, 9, -(2**63), BC, True, False)])
        assert ini == Initiation(7, 9, -(2**63), BC, True, False)
        assert [type(v) for v in (ini.initiator, ini.receiver, ini.time)] == [int] * 3
        assert [type(v) for v in (ini.is_reciprocal, ini.initiator_was_isolate)] == [bool] * 2

    def test_len_bool_and_indexing(self):
        table = table_of(TABLE_LABELS, TABLE_ROWS)
        assert len(table) == 3 and table
        assert not table_of([], []) and len(table_of([], [])) == 0
        assert [table[i] for i in (0, 1, 2, -1, -2, -3)] == [CONSTRUCTED[i] for i in (0, 1, 2, -1, -2, -3)]
        assert table[np.int64(1)] == CONSTRUCTED[1]
        for i in (3, -4, 100):
            with pytest.raises(IndexError):
                table[i]
        with pytest.raises(TypeError):
            table[1.0]

    def test_slice_is_a_table(self):
        table = table_of(TABLE_LABELS, TABLE_ROWS)
        for part in (slice(1, None), slice(None, None, -1), slice(0, 0), slice(None, None, 2)):
            got = table[part]
            assert isinstance(got, Initiations)
            assert list(got) == CONSTRUCTED[part]

    def test_equality(self):
        table = table_of(TABLE_LABELS, TABLE_ROWS)
        other = table_of(["c", "d", "a", "b", 2, 3], [(2, 3, 1, JC, False, True), (4, 5, 2, None, True, False),
                                                         (0, 1, 3, IC, False, True)])
        for same in (CONSTRUCTED, tuple(CONSTRUCTED), other, table):
            assert table == same and same == table
            assert not (table != same) and not (same != table)
        changed = CONSTRUCTED[:2] + [Initiation("c", "d", 3, IC, True, True)]
        for different in (CONSTRUCTED[:2], changed, [], (), table[1:], [("a", "b", 1)] * 3):
            assert table != different and different != table
            assert not (table == different)
        assert table_of([], []) == [] and [] == table_of([], []) and table_of([], []) == ()
        assert table != "abc" and table != 3
        with pytest.raises(TypeError):
            hash(table)

    def test_read_only(self):
        table = table_of(TABLE_LABELS, TABLE_ROWS)
        with pytest.raises(AttributeError):
            table.time = table.time
        with pytest.raises(ValueError):
            table.time[0] = 5

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
    def test_copy_and_pickle_round_trips(self, clone):
        for table in (table_of(TABLE_LABELS, TABLE_ROWS), initiations_from_interactions([(1, 2, 5), (2, 3, 6)])):
            got = clone(table)
            assert isinstance(got, Initiations) and got == table
            assert [repr(i) for i in got] == [repr(i) for i in table]

    @pytest.mark.parametrize("kind", ["labels", "log"])
    def test_extract_then_append(self, kind):
        edges = [(0, 1, 5), (1, 2, 6), (2, 0, 6)]
        if kind == "labels":
            g = build([(f"n{s}", f"n{d}", t) for s, d, t in edges])
            new, old = ("n3", "n0"), ("n0", "n1")
        else:
            records = [DirectedInteraction(f"a{s}", f"a{d}", t, "guestbook", "s") for s, d, t in edges + [(3, 0, 9)]]
            g = build(DirectedInteractionLog.from_records(records[:3], vocab=DirectedInteractionLog.from_records(records).vocab))
            new, old = (3, 0), (0, 1)
        assert g.append_edge(*new, 10)
        table = extract_initiations(g)
        before = list(table)
        assert g.append_edge(*new[::-1], 11) and not g.append_edge(*old, 12)
        assert list(table) == before and len(table) == 4
        assert [(i.initiator, i.receiver) for i in extract_initiations(g)][-2:] == [new, new[::-1]]
        assert classify_initiations(table) == classify_loop_oracle(before)


class TestTimeline:
    def test_window_shares(self):
        inits = [
            Initiation("a", "b", 0, JI, False, True),
            Initiation("c", "d", 5, JI, False, True),
            Initiation("a", "d", 8, IC, False, False),
            Initiation("d", "a", 9, IC, True, False),
        ]
        stats = timeline_stats(inits, window_seconds=10)
        window = stats.windows[0]
        assert window.shares[JI] == pytest.approx(0.5)
        assert window.shares[IC] == pytest.approx(0.5)
        assert window.shares[JC] == 0.0
        assert window.shares[BC] == 0.0
        assert window.reciprocal_share == pytest.approx(0.25)
        assert window.bridging_or_isolates_share == pytest.approx(0.5)

    def test_empty_windows_absent(self):
        inits = [
            Initiation("a", "b", 0, JI, False, True),
            Initiation("c", "d", 95, JI, False, True),
        ]
        stats = timeline_stats(inits, window_seconds=10)
        assert sorted(stats.windows) == [0, 90]

    def test_shares_sum_to_one_and_counts_total(self):
        rng = np.random.default_rng(12)
        edges = random_edge_stream(rng, n_nodes=20, n_edges=500, t_max=1000)
        inits = initiations_from_interactions(edges)
        stats = timeline_stats(inits, window_seconds=100)
        assert sum(w.total for w in stats.windows.values()) == len(inits)
        for w in stats.windows.values():
            assert sum(w.shares.values()) == pytest.approx(1.0, abs=1e-12)

    def test_joining_component_direction_share(self):
        inits = [
            Initiation("a", "b", 0, JC, False, True),
            Initiation("c", "d", 1, JC, False, False),
            Initiation("e", "f", 2, JC, False, True),
            Initiation("g", "h", 3, JI, False, True),
        ]
        stats = timeline_stats(inits, window_seconds=100)
        assert stats.overall.joining_component_isolate_share == pytest.approx(2 / 3)

    def test_no_joining_component_reports_none(self):
        inits = [Initiation("a", "b", 0, JI, False, True)]
        stats = timeline_stats(inits, window_seconds=10)
        assert stats.overall.joining_component_isolate_share is None

    def test_unclassified_rejected(self):
        with pytest.raises(ValueError):
            timeline_stats([Initiation("a", "b", 0)], window_seconds=10)

    def test_counting_oracle(self):
        rng = np.random.default_rng(13)
        edges = random_edge_stream(rng, n_nodes=15, n_edges=300, t_max=600)
        inits = initiations_from_interactions(edges)
        window = 50
        stats = timeline_stats(inits, window_seconds=window)
        t0 = min(i.time for i in inits)
        for start, w in stats.windows.items():
            members = [i for i in inits if start <= i.time < start + window]
            assert w.total == len(members)
            for itype in InitiationType:
                assert w.counts[itype] == sum(i.itype is itype for i in members)
        assert stats.to_json_dict()["windows"][str(t0 + ((inits[0].time - t0) // window) * window)]


class TestReciprocationByRole:
    def test_all_reciprocated(self):
        inits = [
            Initiation("a", "b", 1, JI, False, True),
            Initiation("b", "a", 2, IC, True, False),
        ]
        roles = {"a": "P", "b": "CG"}
        cells = reciprocation_rate_by_role(inits, roles)
        assert cells[("P", "CG")].probability == 1.0
        assert cells[("CG", "P")].probability == 1.0

    def test_unobserved_cells_absent(self):
        inits = [Initiation("a", "b", 1, JI, False, True)]
        cells = reciprocation_rate_by_role(inits, {"a": "P", "b": "P"})
        assert ("CG", "CG") not in cells
        assert cells[("P", "P")].count == 1
        assert cells[("P", "P")].reciprocated == 0

    def test_tally_oracle(self):
        rng = np.random.default_rng(14)
        edges = random_edge_stream(rng, n_nodes=10, n_edges=200, t_max=80)
        inits = initiations_from_interactions(edges)
        roles = {n: ("P" if n % 2 else "CG") for n in range(10)}
        cells = reciprocation_rate_by_role(inits, roles)
        pairs = {(i.initiator, i.receiver) for i in inits}
        for (ri, rr), cell in cells.items():
            members = [i for i in inits if roles[i.initiator] == ri and roles[i.receiver] == rr]
            assert cell.count == len(members)
            assert cell.reciprocated == sum((i.receiver, i.initiator) in pairs for i in members)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    edges = random_edge_stream(rng, n_nodes=8, n_edges=60, t_max=40)
    inits = initiations_from_interactions(edges)
    path = tmp_path / "initiations.csv"
    write_initiations_csv(path, inits, label=lambda n: f"a{n}", header_comment="config_hash=1234")
    back = read_initiations_csv(path)
    assert [(f"a{i.initiator}", f"a{i.receiver}", i.time, i.itype, i.is_reciprocal) for i in inits] == [
        (i.initiator, i.receiver, i.time, i.itype, i.is_reciprocal) for i in back
    ]


HEADER = "initiator,receiver,time,itype,is_reciprocal,initiator_was_isolate\n"


@pytest.mark.parametrize(
    "row, line, field",
    [
        ("a,b,x,joining_isolates,0,0", 2, "time"),
        ("a,b,1,joining_nobody,0,0", 2, "itype"),
        ("a,b,1,joining_isolates,yes,0", 2, "is_reciprocal"),
        ("a,b,1,joining_isolates,0,-1", 2, "initiator_was_isolate"),
        ("a,b,1,joining_isolates,7,0", 2, "is_reciprocal"),
        ("a,b,1,joining_isolates,0,2", 2, "initiator_was_isolate"),
    ],
)
def test_csv_bad_row_names_line_and_field(tmp_path, row, line, field):
    path = tmp_path / "initiations.csv"
    path.write_text(HEADER + row + "\n")
    with pytest.raises(SchemaError) as err:
        read_initiations_csv(path)
    assert (err.value.line, err.value.field) == (line, field)
    # A header comment shifts every line by one.
    path.write_text("# config_hash=1\n" + HEADER + "a,b,1,,0,0\n" + row + "\n")
    with pytest.raises(SchemaError) as err:
        read_initiations_csv(path)
    assert (err.value.line, err.value.field) == (line + 2, field)


def test_csv_round_trip_non_ascii(tmp_path):
    inits = [Initiation("zoë", "王", 3, JI, False, True)]
    path = tmp_path / "initiations.csv"
    write_initiations_csv(path, inits)
    assert path.read_bytes().decode("utf-8").splitlines()[1] == "zoë,王,3,joining_isolates,0,1"
    assert read_initiations_csv(path) == inits


def test_csv_reads_back_a_table(tmp_path):
    inits = [Initiation("zoë", "王", -(2**63), JI, False, True), Initiation("a", "b", 2**63 - 1, None, True, False)]
    path = tmp_path / "initiations.csv"
    write_initiations_csv(path, Initiations(["zoë", "a", "王", "b"], np.array([0, 1]), np.array([2, 3]),
                                            np.array([-(2**63), 2**63 - 1]), np.array([2, 4], dtype=np.int8),
                                            np.array([False, True]), np.array([True, False])))
    back = read_initiations_csv(path)
    assert isinstance(back, Initiations) and back.time.dtype == np.int64
    assert back == inits and [repr(i) for i in back] == [repr(i) for i in inits]
    write_initiations_csv(tmp_path / "again.csv", back)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def window_stats_oracle(start, members):
    """One window's stats, one initiation at a time."""
    total = len(members)
    counts = {t: 0 for t in InitiationType}
    reciprocal = jc_total = jc_isolate = 0
    for ini in members:
        counts[ini.itype] += 1
        reciprocal += ini.is_reciprocal
        if ini.itype is InitiationType.JOINING_COMPONENT:
            jc_total += 1
            jc_isolate += ini.initiator_was_isolate
    shares = {t: c / total for t, c in counts.items()}
    return WindowStats(
        start=start,
        total=total,
        counts=counts,
        shares=shares,
        reciprocal_share=reciprocal / total,
        joining_component_isolate_share=(jc_isolate / jc_total) if jc_total else None,
        bridging_or_isolates_share=shares[BC] + shares[JI],
    )


def timeline_oracle(initiations, window_seconds, start=None):
    """``timeline_stats`` binning one initiation at a time, in Python ints."""
    t0 = min(i.time for i in initiations) if start is None else start
    bins = {}
    for ini in initiations:
        if ini.time < t0:
            raise ValueError(f"initiation at {ini.time} precedes window start {t0}")
        bins.setdefault(t0 + window_seconds * ((ini.time - t0) // window_seconds), []).append(ini)
    windows = {k: window_stats_oracle(k, members) for k, members in sorted(bins.items())}
    return TimelineStats(window_seconds, t0, windows, window_stats_oracle(t0, list(initiations)))


def assert_same_timeline(inits, window_seconds, start=None):
    """Equal stats, keys and value types included (``repr`` tells 5 from np.int64(5)), or the same error."""
    try:
        expected = timeline_oracle(inits, window_seconds, start)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            timeline_stats(inits, window_seconds, start)
        assert str(got.value) == str(err)
        return
    got = timeline_stats(inits, window_seconds, start)
    assert repr(got) == repr(expected)
    assert got.to_json_dict() == expected.to_json_dict()


# Time bases near both ends of int64 and far apart, so spans reach past int64 too.
TIME_BASES = (0, 10**12, -(2**63), 2**63 - 120)


@st.composite
def timeline_inputs(draw):
    bases = draw(st.lists(st.sampled_from(TIME_BASES), min_size=1, max_size=2, unique=True))
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(bases), st.integers(0, 100), st.sampled_from(list(InitiationType)),
                      st.booleans(), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    inits = [Initiation("a", "b", base + offset, itype, rec, iso) for base, offset, itype, rec, iso in rows]
    window = draw(st.one_of(st.integers(1, 60), st.integers(2**62, 2**64)))
    low = min(i.time for i in inits)
    start = draw(st.one_of(st.none(), st.integers(-(2**64), 0).map(lambda lag: low + lag), st.integers(low, low + 20)))
    return inits, window, start


class TestTimelineColumns:
    """``timeline_stats`` bins with numpy; the one-at-a-time loop is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(timeline_inputs())
    def test_matches_loop(self, case):
        assert_same_timeline(*case)

    @pytest.mark.parametrize("seed", range(4))
    def test_csv_labels_read_back(self, seed, tmp_path):
        rng = np.random.default_rng(900 + seed)
        inits = initiations_from_interactions(random_edge_stream(rng, n_nodes=12, n_edges=150, t_max=400))
        path = tmp_path / "initiations.csv"
        write_initiations_csv(path, inits, label=lambda n: f"a{n}")
        back = read_initiations_csv(path)
        low = min(i.time for i in back)
        for window in (1, 7, 50, 1000):
            for start in (None, low, low - 3, low - 10**6, low + 1):
                assert_same_timeline(back, window, start)

    def test_windows_without_joining_component(self):
        inits = [Initiation("a", "b", 0, JI, False, True), Initiation("c", "d", 12, JC, False, True),
                 Initiation("e", "f", 25, IC, True, False), Initiation("g", "h", 26, BC, False, False)]
        stats = timeline_stats(inits, 10)
        assert [w.joining_component_isolate_share for w in stats.windows.values()] == [None, 1.0, None]
        assert_same_timeline(inits, 10)

    def test_error_names_the_first_early_row(self):
        inits = [Initiation("a", "b", 9, JI), Initiation("c", "d", 4, JC), Initiation("e", "f", 2, IC)]
        with pytest.raises(ValueError, match="^initiation at 4 precedes window start 5$"):
            timeline_stats(inits, 10, start=5)
        assert_same_timeline(inits, 10, 5)


# Times at both ends of int64, with ties.
EXTREME_TIMES = (-(2**63), -(2**63) + 1, 0, 1, 2**63 - 2, 2**63 - 1)


class TestClassifyLabelKinds:
    """Int, str, np.int64 and mixed labels of one stream classify alike; str labels sort like the ints."""

    KINDS = {
        "int": lambda x, rng: int(x),
        "str": lambda x, rng: f"{x + 100:03d}",
        "np.int64": lambda x, rng: np.int64(x),
        "mixed": lambda x, rng: np.int64(x) if rng.random() < 0.5 else int(x),
    }

    @pytest.mark.parametrize("seed", range(6))
    def test_same_types_and_flags(self, seed):
        rng = np.random.default_rng(1100 + seed)
        stream = []
        for _ in range(int(rng.integers(1, 80))):
            a, b = rng.choice(np.arange(-40, 41), size=2, replace=False).tolist()
            stream.append((a, b, EXTREME_TIMES[int(rng.integers(len(EXTREME_TIMES)))]))
            if rng.random() < 0.3:
                stream.append((b, a, stream[-1][2]))
        results = {}
        for kind, make in self.KINDS.items():
            rows = [Initiation(make(a, rng), make(b, rng), t) for a, b, t in stream]
            got = classify_initiations(rows)
            for name in ("initiator", "receiver"):
                # Every row carries one of the caller's own label objects, each used once.
                assert Counter(id(getattr(i, name)) for i in got) == Counter(id(getattr(r, name)) for r in rows)
            unlabel = (lambda x: int(x) - 100) if kind == "str" else int
            results[kind] = [
                (unlabel(i.initiator), unlabel(i.receiver), i.time, i.itype, i.is_reciprocal, i.initiator_was_isolate)
                for i in got
            ]
            if kind == "int":
                assert got == classify_loop_oracle(rows)
        assert results["str"] == results["int"] == results["np.int64"] == results["mixed"]


def extreme_stream(rng, labels):
    """Records over ``labels`` at EXTREME_TIMES, with repeated pairs and equal-time reverse edges."""
    stream = []
    for _ in range(int(rng.integers(1, 120))):
        a, b = rng.choice(len(labels), size=2, replace=False).tolist()
        stream.append((labels[a], labels[b], EXTREME_TIMES[int(rng.integers(len(EXTREME_TIMES)))]))
        if rng.random() < 0.3:
            stream.append((labels[b], labels[a], stream[-1][2]))
    return stream


class TestClassifyTableAgainstRows:
    """``classify_initiations`` of a table, of its rows as a list, and the one-edge loop agree."""

    SOURCES = ("str-records", "int-records", "log")

    def extracted(self, rng, source):
        labels = LABEL_SETS["int" if source == "int-records" else "str"]
        stream = extreme_stream(rng, labels)
        if source != "log":
            return extract_initiations(stream)
        log = DirectedInteractionLog.from_records([DirectedInteraction(s, d, t, "guestbook", "x") for s, d, t in stream])
        return extract_initiations(log)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_streams(self, seed, source):
        rng = np.random.default_rng(1200 + seed)
        for _ in range(25):
            table = self.extracted(rng, source)
            got = classify_initiations(table)
            assert isinstance(got, Initiations)
            assert got == classify_initiations(list(table)) == classify_loop_oracle(list(table))
            assert [repr(i) for i in got] == [repr(i) for i in classify_loop_oracle(list(table))]
            assert classify_initiations(got) == got

    def test_a_log_table_is_not_sorted_again(self, monkeypatch):
        table = self.extracted(np.random.default_rng(1300), "log")
        expected = classify_loop_oracle(list(table))

        def no_sort(*args, **kwargs):
            raise AssertionError("a log's table is already in processing order")

        monkeypatch.setattr(np, "lexsort", no_sort)
        assert classify_initiations(table) == expected

    def test_appended_ties_are_sorted(self):
        # Appended edges keep their append order; within a tie it need not be (source, target) order.
        log = DirectedInteractionLog.from_records(
            [DirectedInteraction(f"a{s}", f"a{d}", t, "guestbook", "x") for s, d, t in [(0, 1, 1), (2, 3, 2), (4, 1, 3)]]
        )
        g = build(log)
        for src, dst in [(3, 4), (0, 2), (1, 0)]:
            assert g.append_edge(src, dst, 9)
        table = extract_initiations(g)
        assert [(i.initiator, i.receiver) for i in table][-3:] == [(3, 4), (0, 2), (1, 0)]
        got = classify_initiations(table)
        assert [(i.initiator, i.receiver) for i in got][-3:] == [(0, 2), (1, 0), (3, 4)]
        assert got == classify_loop_oracle(list(table))
