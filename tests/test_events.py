import copy
import csv
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import interaction_multiset, make_logs, project_oracle, random_event_fixture, traced_peak

from netchoice import events
from netchoice.events import (
    DirectedInteraction,
    DirectedInteractionLog,
    EventLog,
    InteractionEvent,
    LogVocab,
    SchemaError,
    UnresolvedAmpError,
    UpdateEvent,
    UpdateLog,
    _site_authors,
    _sorted_unique,
    filter_self_interactions,
    load_events,
    load_logs,
    load_updates,
    project_to_author_edges,
    resolve_amp_timestamps,
    unique_pair_count,
)

HEADER = "actor_id,site_id,kind,timestamp,update_id\n"
UPDATE_HEADER = "author_id,site_id,update_id,timestamp,role_label\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEvents:
    def test_dedup_removes_exact_duplicates(self, tmp_path):
        path = write(
            tmp_path,
            "ev.csv",
            HEADER + "a,s1,guestbook,10,\n" + "b,s1,comment,20,u1\n" + "a,s1,guestbook,10,\n",
        )
        log, removed = load_events(path)
        assert len(log) == 2
        assert removed == 1

    def test_three_rows_one_duplicate(self, tmp_path):
        rows = "a,s,guestbook,1,\nb,s,guestbook,2,\nc,s,guestbook,3,\nb,s,guestbook,2,\n"
        log, removed = load_events(write(tmp_path, "ev.csv", HEADER + rows))
        assert len(log) == 3
        assert removed == 1

    def test_empty_file(self, tmp_path):
        log, removed = load_events(write(tmp_path, "ev.csv", HEADER))
        assert len(log) == 0 and removed == 0
        log, removed = load_events(write(tmp_path, "empty.csv", ""))
        assert len(log) == 0 and removed == 0

    def test_unknown_kind_errors_with_line(self, tmp_path):
        path = write(tmp_path, "ev.csv", HEADER + "a,s,guestbook,1,\n" + "a,s,visit,2,\n")
        with pytest.raises(SchemaError) as err:
            load_events(path)
        assert err.value.line == 3
        assert "visit" in str(err.value)

    def test_missing_timestamp_only_for_amp(self, tmp_path):
        ok = write(tmp_path, "ok.csv", HEADER + "a,s,amp,,u1\n")
        log, _ = load_events(ok)
        assert log[0].timestamp is None
        bad = write(tmp_path, "bad.csv", HEADER + "a,s,guestbook,,\n")
        with pytest.raises(SchemaError) as err:
            load_events(bad)
        assert err.value.field == "timestamp"

    def test_update_id_required_for_amp_and_comment(self, tmp_path):
        for kind in ("amp", "comment"):
            bad = write(tmp_path, f"{kind}.csv", HEADER + f"a,s,{kind},5,\n")
            with pytest.raises(SchemaError) as err:
                load_events(bad)
            assert err.value.field == "update_id"

    def test_negative_timestamp_rejected(self, tmp_path):
        bad = write(tmp_path, "neg.csv", HEADER + "a,s,guestbook,-3,\n")
        with pytest.raises(SchemaError):
            load_events(bad)

    def test_bad_header_rejected(self, tmp_path):
        bad = write(tmp_path, "hdr.csv", "actor,site\na,s\n")
        with pytest.raises(SchemaError):
            load_events(bad)

    def test_json_lines_round_trip(self, tmp_path):
        rows = [
            {"actor_id": "a", "site_id": "s", "kind": "guestbook", "timestamp": 5, "update_id": ""},
            {"actor_id": "b", "site_id": "s", "kind": "amp", "timestamp": None, "update_id": "u1"},
        ]
        path = write(tmp_path, "ev.jsonl", "\n".join(json.dumps(r) for r in rows) + "\n")
        log, removed = load_events(path, fmt="json-lines")
        assert removed == 0
        assert log[0] == InteractionEvent("a", "s", "guestbook", 5, None)
        assert log[1] == InteractionEvent("b", "s", "amp", None, "u1")

    def test_unknown_format(self, tmp_path):
        path = write(tmp_path, "x.csv", HEADER)
        with pytest.raises(ValueError):
            load_events(path, fmt="parquet")


class TestLoadUpdates:
    def test_round_trip_and_duplicate_update_id(self, tmp_path):
        path = write(tmp_path, "up.csv", UPDATE_HEADER + "a,s,u1,5,P\n" + "a,s,u2,9,CG\n")
        log, removed = load_updates(path)
        assert removed == 0
        assert log[0].role_label == "P"
        clash = write(tmp_path, "up2.csv", UPDATE_HEADER + "a,s,u1,5,P\n" + "b,s,u1,9,CG\n")
        with pytest.raises(SchemaError):
            load_updates(clash)

    def test_empty_role_defaults_to_unlabeled(self, tmp_path):
        path = write(tmp_path, "up.csv", UPDATE_HEADER + "a,s,u1,5,\n")
        log, _ = load_updates(path)
        assert log[0].role_label == "unlabeled"


class TestTimestampRange:
    HUGE = 99999999999999999999

    def test_csv_timestamp_beyond_int64_is_schema_error(self, tmp_path):
        bad_updates = write(tmp_path, "up.csv", UPDATE_HEADER + "a,s,u1,5,P\n" + f"a,s,u2,{self.HUGE},P\n")
        with pytest.raises(SchemaError) as err:
            load_updates(bad_updates)
        assert (err.value.line, err.value.field) == (3, "timestamp")
        bad_events = write(tmp_path, "ev.csv", HEADER + f"a,s,guestbook,{self.HUGE},\n")
        with pytest.raises(SchemaError) as err:
            load_events(bad_events)
        assert (err.value.line, err.value.field) == (2, "timestamp")

    def test_json_lines_timestamp_beyond_int64_is_schema_error(self, tmp_path):
        row = {"author_id": "a", "site_id": "s", "update_id": "u1", "timestamp": self.HUGE, "role_label": "P"}
        bad_updates = write(tmp_path, "up.jsonl", json.dumps(row) + "\n")
        with pytest.raises(SchemaError) as err:
            load_updates(bad_updates, fmt="json-lines")
        assert (err.value.line, err.value.field) == (1, "timestamp")
        row = {"actor_id": "a", "site_id": "s", "kind": "guestbook", "timestamp": self.HUGE, "update_id": ""}
        bad_events = write(tmp_path, "ev.jsonl", "\n" + json.dumps(row) + "\n")
        with pytest.raises(SchemaError) as err:
            load_events(bad_events, fmt="json-lines")
        assert (err.value.line, err.value.field) == (2, "timestamp")

    def test_int64_max_is_accepted(self, tmp_path):
        path = write(tmp_path, "up.csv", UPDATE_HEADER + f"a,s,u1,{2**63 - 1},P\n")
        log, _ = load_updates(path)
        assert log[0].timestamp == 2**63 - 1

    def test_records_timestamp_beyond_int64_is_schema_error(self):
        updates = [UpdateEvent("a", "s", "u1", 5, "P"), UpdateEvent("a", "s", "u2", self.HUGE, "P")]
        with pytest.raises(SchemaError) as err:
            UpdateLog.from_records(updates)
        assert (err.value.line, err.value.field) == (1, "timestamp")
        with pytest.raises(SchemaError) as err:
            EventLog.from_records([InteractionEvent("a", "s", "guestbook", self.HUGE)])
        assert (err.value.line, err.value.field) == (0, "timestamp")
        records = [
            DirectedInteraction("a", "b", 3, "guestbook", "s"),
            DirectedInteraction("b", "a", self.HUGE, "guestbook", "s"),
        ]
        with pytest.raises(SchemaError) as err:
            DirectedInteractionLog.from_records(records)
        assert (err.value.line, err.value.field) == (1, "timestamp")

    def test_records_int64_max_is_accepted(self):
        top = 2**63 - 1
        assert UpdateLog.from_records([UpdateEvent("a", "s", "u1", top, "P")])[0].timestamp == top
        assert EventLog.from_records([InteractionEvent("a", "s", "guestbook", top)])[0].timestamp == top
        log = DirectedInteractionLog.from_records([DirectedInteraction("a", "b", top, "guestbook", "s")])
        assert log[0].timestamp == top


class TestStrictIntegers:
    """An integer field is ASCII digits after an optional '-'; Python's int()
    alone would read each of these."""

    LOOSE = ["5_000", " 7", "+9", "\u0665", "7 "]

    @pytest.mark.parametrize("text", LOOSE)
    def test_log_timestamps(self, tmp_path, text):
        path = tmp_path / "ev.csv"
        path.write_bytes((HEADER + f"a,s,guestbook,1,\nb,s,guestbook,{text},\n").encode())
        assert_schema_error(lambda: load_events(path), 3, "timestamp")
        path = tmp_path / "up.csv"
        path.write_bytes((UPDATE_HEADER + f"a,s,u1,{text},P\n").encode())
        assert_schema_error(lambda: load_updates(path), 2, "timestamp")
        assert_schema_error(lambda: EventLog.from_records([InteractionEvent("a", "s", "guestbook", text)]), 0, "timestamp")

    @pytest.mark.parametrize("text", LOOSE)
    def test_geo_posts_site_created_and_initiations(self, tmp_path, text):
        from netchoice.authors import load_geo_posts, load_site_conditions
        from netchoice.initiations import read_initiations_csv

        cases = [
            (load_geo_posts, f"author_id,timestamp,state\na,1,\nb,{text},TX\n", "timestamp"),
            (load_site_conditions, f"site_id,health_condition,created\ns1,,1\ns2,Cancer,{text}\n", "created"),
            (read_initiations_csv, f"initiator,receiver,time,itype,is_reciprocal,initiator_was_isolate\na,b,1,,0,0\na,c,{text},,0,0\n", "time"),
            (read_initiations_csv, f"initiator,receiver,time,itype,is_reciprocal,initiator_was_isolate\na,b,1,,0,0\na,c,2,,{text},0\n", "is_reciprocal"),
        ]
        for read, content, field in cases:
            path = tmp_path / "in.csv"
            path.write_bytes(content.encode())
            assert_schema_error(lambda: read(path), 3, field)

    def test_minus_sign_and_leading_zeros_still_read(self, tmp_path):
        from netchoice.initiations import read_initiations_csv

        path = write(tmp_path, "ev.csv", HEADER + "a,s,guestbook,007,\n")
        assert load_events(path)[0][0].timestamp == 7
        path = write(tmp_path, "ini.csv", "initiator,receiver,time,itype,is_reciprocal,initiator_was_isolate\na,b,-5,,0,0\n")
        assert read_initiations_csv(path)[0].time == -5


class TestResolveAmpTimestamps:
    def test_amp_takes_update_time(self):
        events, updates = make_logs(
            [InteractionEvent("a", "s", "amp", None, "u1")],
            [UpdateEvent("b", "s", "u1", 100, "CG")],
        )
        resolved = resolve_amp_timestamps(events, updates)
        assert resolved[0].timestamp == 100

    def test_non_amp_unchanged(self):
        events, updates = make_logs(
            [InteractionEvent("a", "s", "guestbook", 50)],
            [UpdateEvent("b", "s", "u1", 100, "CG")],
        )
        resolved = resolve_amp_timestamps(events, updates)
        assert resolved[0].timestamp == 50

    def test_amp_with_preset_timestamp_is_overridden(self):
        events, updates = make_logs(
            [InteractionEvent("a", "s", "amp", 7, "u1")],
            [UpdateEvent("b", "s", "u1", 100, "CG")],
        )
        assert resolve_amp_timestamps(events, updates)[0].timestamp == 100

    def test_unknown_update_id_lists_offenders(self):
        vocab = LogVocab()
        updates = UpdateLog.from_records([UpdateEvent("b", "s", "u1", 100, "CG")], vocab=vocab)
        events = EventLog.from_records(
            [InteractionEvent("a", "s", "amp", None, "zz1"), InteractionEvent("a", "s", "amp", None, "zz2")],
            vocab=vocab,
        )
        with pytest.raises(UnresolvedAmpError) as err:
            resolve_amp_timestamps(events, updates)
        assert set(err.value.update_ids) == {"zz1", "zz2"}

    def test_requires_shared_vocab(self):
        events = EventLog.from_records([InteractionEvent("a", "s", "guestbook", 5)])
        updates = UpdateLog.from_records([UpdateEvent("b", "s", "u1", 100, "CG")])
        with pytest.raises(ValueError):
            resolve_amp_timestamps(events, updates)


class TestFilterSelfInteractions:
    def test_own_site_removed_any_time(self):
        events, updates = make_logs(
            [InteractionEvent("a", "s", "guestbook", 1)],
            [UpdateEvent("a", "s", "u1", 99, "CG")],  # later update still voids it
        )
        kept, removed = filter_self_interactions(events, updates)
        assert removed == 1 and len(kept) == 0

    def test_other_site_kept(self):
        events, updates = make_logs(
            [InteractionEvent("a", "r", "comment", 5, "u1")],
            [UpdateEvent("a", "s", "u1", 1, "CG")],
        )
        kept, removed = filter_self_interactions(events, updates)
        assert removed == 0 and len(kept) == 1

    def test_fixture_against_membership_scan(self):
        # 20 events, exactly 6 on sites their actor has updated.
        updates = [UpdateEvent(f"a{i}", f"s{i}", f"u{i}", 10 * i, "CG") for i in range(5)]
        events = []
        for i in range(6):  # self: actor a{i%5} interacting with own site
            events.append(InteractionEvent(f"a{i % 5}", f"s{i % 5}", "guestbook", 100 + i))
        for i in range(14):  # cross interactions
            events.append(InteractionEvent(f"a{i % 5}", f"s{(i + 1) % 5}", "guestbook", 200 + i))
        event_log, update_log = make_logs(events, updates)
        kept, removed = filter_self_interactions(event_log, update_log)
        owned = {(u.author_id, u.site_id) for u in updates}
        expected_removed = sum((e.actor_id, e.site_id) in owned for e in events)
        assert expected_removed == 6
        assert removed == expected_removed
        assert all((e.actor_id, e.site_id) not in owned for e in kept)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        events, updates = random_event_fixture(rng)
        event_log, update_log = make_logs(events, updates)
        once, removed_once = filter_self_interactions(event_log, update_log)
        twice, removed_twice = filter_self_interactions(once, update_log)
        assert removed_twice == 0
        assert len(once) == len(twice)


class TestProjection:
    def test_prior_author_and_future_patient(self):
        events, updates = make_logs(
            [InteractionEvent("a", "s", "guestbook", 10)],
            [UpdateEvent("b", "s", "u1", 5, "CG"), UpdateEvent("c", "s", "u2", 50, "P")],
        )
        out = project_to_author_edges(events, updates)
        got = {(r.source_author, r.target_author, r.timestamp) for r in out}
        assert got == {("a", "b", 10), ("a", "c", 10)}

    def test_no_prior_no_patient_no_edges(self):
        events, updates = make_logs(
            [InteractionEvent("a", "s", "guestbook", 1)],
            [UpdateEvent("b", "s", "u1", 9, "CG")],
        )
        assert len(project_to_author_edges(events, updates)) == 0

    def test_tie_at_event_time_not_prior(self):
        events, updates = make_logs(
            [InteractionEvent("a", "s", "guestbook", 9)],
            [UpdateEvent("b", "s", "u1", 9, "CG")],
        )
        assert len(project_to_author_edges(events, updates)) == 0

    def test_unresolved_timestamps_rejected(self):
        events, updates = make_logs(
            [InteractionEvent("a", "s", "amp", None, "u1")],
            [UpdateEvent("b", "s", "u1", 5, "CG")],
        )
        with pytest.raises(ValueError):
            project_to_author_edges(events, updates)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_quadratic_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 10_000 if seed == 0 else 1_500
        events, updates = random_event_fixture(rng, n_events=n, n_authors=25, n_sites=8)
        event_log, update_log = make_logs(events, updates)
        event_log = resolve_amp_timestamps(event_log, update_log)
        event_log, _ = filter_self_interactions(event_log, update_log)
        projected = project_to_author_edges(event_log, update_log)
        kept_records = [event_log[i] for i in range(len(event_log))]
        assert interaction_multiset(projected) == project_oracle(kept_records, updates)

    def test_never_emits_self_edges_and_order_invariance(self):
        rng = np.random.default_rng(11)
        events, updates = random_event_fixture(rng, n_events=300)
        event_log, update_log = make_logs(events, updates)
        event_log = resolve_amp_timestamps(event_log, update_log)
        event_log, _ = filter_self_interactions(event_log, update_log)
        forward = project_to_author_edges(event_log, update_log)
        assert all(r.source_author != r.target_author for r in forward)
        # Reverse the input event order: same multiset out.
        shuffled_events = [event_log[i] for i in range(len(event_log))][::-1]
        shuffled_log, update_log2 = make_logs(shuffled_events, updates)
        backward = project_to_author_edges(shuffled_log, update_log2)
        assert interaction_multiset(forward) == interaction_multiset(backward)

    def test_every_target_has_qualifying_update(self):
        rng = np.random.default_rng(3)
        events, updates = random_event_fixture(rng, n_events=400)
        event_log, update_log = make_logs(events, updates)
        event_log = resolve_amp_timestamps(event_log, update_log)
        event_log, _ = filter_self_interactions(event_log, update_log)
        projected = project_to_author_edges(event_log, update_log)
        by_site = {}
        for u in updates:
            by_site.setdefault(u.site_id, []).append(u)
        for rec in projected:
            qualifying = [
                u
                for u in by_site[rec.via_site]
                if u.author_id == rec.target_author
                and (u.timestamp < rec.timestamp or u.role_label == "P")
            ]
            assert qualifying, rec


@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)), max_size=60))
@example([])
@example([7])
@example([5, 5, 5, 5])
@example([-(2**63), 2**63 - 1, -1, 0, -1])
def test_sorted_unique_matches_np_unique(values):
    keys = np.array(values, dtype=np.int64)
    got, want = _sorted_unique(keys), np.unique(keys)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


ROW_VALUES = st.one_of(st.integers(-1, 2), st.sampled_from([-(2**63), 2**62, 2**63 - 1]))


@given(st.lists(st.tuples(*[ROW_VALUES] * 5), max_size=12))
@example([(0, 0, 0, 0, 0)] * 2 + [(0, 0, 0, 0, 1)])
@example([(-(2**63), 0, 0, 2**63 - 1, 0), (2**63 - 1, 0, 0, -(2**63), 0)] * 2)  # spans past 2**63
@example([(0, 1, 1, 1, 1), (2**63 - 1, 1, 1, 1, 1)] * 2)  # a span of exactly 2**63, then constant columns
def test_dedupe_mask_keeps_first_occurrences(rows):
    # Columns are packed into int64 words by their spans; wide spans take a
    # word each, and the keep-mask must still be the first occurrence of each row.
    cols = [np.array(col, dtype=np.int64) for col in zip(*rows)] or [np.zeros(0, dtype=np.int64)] * 5
    keep, removed = events._dedupe_mask(cols)
    seen = set()
    want = [row not in seen and not seen.add(row) for row in rows]
    assert keep.tolist() == want
    assert removed == len(rows) - len(seen)


# Value pools for the row-order oracle, by dtype. The int64 pools give spans
# of exactly 2**63 - 1, 2**63 and 2**64, and pairs whose span product lies
# just below or at 2**63 (2**32 times 2**31 - 1 or 2**31).
ORDER_POOLS = {
    np.int8: ([-2, -1, 0, 1], [-128, 127, -1, 0], range(-128, 128)),
    np.int32: ([-5, 0, 5], [-(2**31), 2**31 - 1, -1, 0], range(-(2**31), 2**31, 2**24 + 1)),
    np.int64: (
        [-1, 0, 1],
        [1, 2**63 - 1],
        [0, 2**63 - 1],
        [-(2**63), -1],
        [-(2**63), 2**63 - 1, -1, 0],
        [0, 2**32 - 1, 7],
        [-(2**30), 2**30 - 1, 0],
        [-(2**30), 2**30 - 2, 0],
    ),
}


def order_keys(rng, n_rows):
    """1 to 4 seeded int8, int32 or int64 key columns drawn from ORDER_POOLS:
    negative values, ends of each dtype and heavy ties."""
    keys = []
    for _ in range(int(rng.integers(1, 5))):
        dtype = (np.int8, np.int32, np.int64)[int(rng.integers(3))]
        pools = ORDER_POOLS[dtype]
        pool = np.array(pools[int(rng.integers(len(pools)))], dtype=dtype)
        keys.append(pool[rng.integers(0, len(pool), n_rows)])
    return keys


@pytest.mark.parametrize("n_rows", [0, 1, 2, 9, 300])
def test_order_and_dedupe_match_their_oracles(n_rows):
    # The row order is np.lexsort's with the keys reversed; the dedupe keeps
    # the first row of each distinct tuple of the same columns.
    rng = np.random.default_rng(500 + n_rows)
    for _ in range(200):
        keys = order_keys(rng, n_rows)
        assert np.array_equal(events._order(*keys), np.lexsort(keys[::-1])), [k.tolist() for k in keys]
        keep, removed = events._dedupe_mask(keys)
        first = {}
        for i, row in enumerate(zip(*(k.tolist() for k in keys))):
            first.setdefault(row, i)
        assert np.flatnonzero(keep).tolist() == sorted(first.values())
        assert removed == n_rows - len(first)


def site_authors_oracle(log):
    """(site, author, first time, labeled, patient) rows from a dict, in
    (site, first time, author) order."""
    table = {}
    for s, a, t, r in zip(log.site.tolist(), log.author.tolist(), log.timestamp.tolist(), log.role.tolist()):
        first, labeled, patient = table.get((s, a), (t, 0, 0))
        table[s, a] = (min(first, t), labeled + (r != 0), patient + (r == 1))
    return sorted(((s, a, *agg) for (s, a), agg in table.items()), key=lambda row: (row[0], row[2], row[1]))


@pytest.mark.parametrize("seed", range(6))
def test_site_authors_matches_dict_oracle(seed):
    rng = np.random.default_rng(seed)
    n = [0, 1, 5, 40, 200, 600][seed]
    day = 86_400
    updates = [
        UpdateEvent(
            f"a{rng.integers(8)}",
            f"s{rng.integers(5)}",
            f"u{i}",
            int(rng.integers(0, 6)) * day,  # whole days: many equal times
            str(rng.choice(["P", "CG", "unlabeled"])),
        )
        for i in range(n)
    ]
    log = UpdateLog.from_records(updates)
    columns = _site_authors(log)
    assert len(columns) == 5 and all(len(col) == len(columns[0]) for col in columns)
    assert list(zip(*(col.tolist() for col in columns))) == site_authors_oracle(log)


def projection_rows_reference(event_log, update_log):
    """Projection rows as code tuples, in the documented output order.

    Each event's deduplicated targets, ordered by (timestamp, source code,
    target code, event row); rows equal on all four are impossible.
    """
    updates = [
        (int(update_log.author[j]), int(update_log.site[j]), int(update_log.timestamp[j]), update_log[j].role_label)
        for j in range(len(update_log))
    ]
    rows = []
    for i in range(len(event_log)):
        actor, site, t = int(event_log.actor[i]), int(event_log.site[i]), int(event_log.timestamp[i])
        targets = {a for a, s, ut, role in updates if s == site and (ut < t or role == "P")} - {actor}
        rows.extend((t, actor, target, i, int(event_log.kind[i]), site) for target in targets)
    rows.sort(key=lambda row: row[:4])
    return rows


class TestProjectionRowOrder:
    """Every output column in order, not only the multiset of rows."""

    def assert_rows(self, event_log, update_log):
        out = project_to_author_edges(event_log, update_log)
        rows = projection_rows_reference(event_log, update_log)
        assert [c.dtype for c in (out.src, out.dst, out.timestamp, out.kind, out.site)] == [np.int32, np.int32, np.int64, np.int8, np.int32]
        assert out.timestamp.tolist() == [r[0] for r in rows]
        assert out.src.tolist() == [r[1] for r in rows]
        assert out.dst.tolist() == [r[2] for r in rows]
        assert out.kind.tolist() == [r[4] for r in rows]
        assert out.site.tolist() == [r[5] for r in rows]

    def test_tied_events_on_several_sites(self):
        # Author codes follow first appearance (z, y, x, w, m, k), so code
        # order and label order disagree. Four events of m at t=10 hit three
        # sites with two kinds; rows 1 and 4 share both targets, rows 0 and 1
        # share x, and k's event at t=10 falls between m's.
        event_log, update_log = make_logs(
            [
                InteractionEvent("m", "s2", "comment", 10, "u2"),
                InteractionEvent("m", "s1", "guestbook", 10),
                InteractionEvent("k", "s1", "guestbook", 10),
                InteractionEvent("m", "s3", "guestbook", 10),
                InteractionEvent("m", "s1", "comment", 10, "u1"),
                InteractionEvent("x", "s1", "guestbook", 5),
                InteractionEvent("m", "s2", "guestbook", 3),
            ],
            [
                UpdateEvent("z", "s1", "u1", 1, "CG"),
                UpdateEvent("y", "s2", "u2", 2, "P"),
                UpdateEvent("x", "s1", "u3", 3, "CG"),
                UpdateEvent("x", "s2", "u4", 4, "CG"),
                UpdateEvent("y", "s3", "u5", 50, "P"),
                UpdateEvent("w", "s3", "u6", 60, "P"),
            ],
        )
        self.assert_rows(event_log, update_log)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_log_with_many_ties(self, seed):
        rng = np.random.default_rng(seed)
        events, updates = random_event_fixture(rng, n_events=600, n_authors=9, n_sites=4, t_max=12)
        event_log, update_log = make_logs(events, updates)
        self.assert_rows(event_log, update_log)

    @pytest.mark.parametrize("seed", range(4))
    def test_unfiltered_log_against_both_references(self, seed):
        # Not self-filtered: actors interact with their own sites, so
        # projection drops those targets itself. On s0, a0 is both a prior
        # author (from t=1) and a patient; s1 has only patients; s2 and s5
        # have no updates. Times come from the ends of int64, so many tie.
        rng = np.random.default_rng(40 + seed)
        times = [0, 1, 2**62, 2**63 - 2, 2**63 - 1]
        authors = [f"a{i}" for i in range(7)]
        updates = [
            UpdateEvent("a0", "s0", "u0", 1, "CG"),
            UpdateEvent("a0", "s0", "u1", 2**62, "P"),
            UpdateEvent("a1", "s1", "u2", 2**63 - 1, "P"),
            UpdateEvent("a2", "s1", "u3", 0, "P"),
        ]
        for i in range(4, 40):
            site = str(rng.choice(["s0", "s1", "s3", "s4"]))
            role = "P" if site == "s1" else str(rng.choice(["P", "CG", "unlabeled"]))
            updates.append(UpdateEvent(str(rng.choice(authors)), site, f"u{i}", int(rng.choice(times)), role))
        interactions = [
            InteractionEvent("a3", "s0", "guestbook", 2**62),
            InteractionEvent("a0", "s0", "guestbook", 2**63 - 1),
            InteractionEvent("a3", "s2", "guestbook", 2**63 - 1),
        ]
        for _ in range(80):
            kind = str(rng.choice(["guestbook", "comment"]))
            interactions.append(
                InteractionEvent(
                    str(rng.choice(authors)), f"s{rng.integers(6)}", kind, int(rng.choice(times)),
                    f"u{rng.integers(len(updates))}" if kind == "comment" else None,
                )
            )
        event_log, update_log = make_logs(interactions, updates)
        out = project_to_author_edges(event_log, update_log)
        assert interaction_multiset(out) == project_oracle(interactions, updates)
        assert ("a3", "a0", 2**62) in {(r.source_author, r.target_author, r.timestamp) for r in out}
        self.assert_rows(event_log, update_log)


class TestUniquePairCount:
    def test_examples(self):
        assert unique_pair_count([("a", "b"), ("a", "b"), ("b", "a")]) == 2
        assert unique_pair_count([]) == 0

    def test_log_matches_set_oracle(self):
        rng = np.random.default_rng(5)
        events, updates = random_event_fixture(rng, n_events=500)
        event_log, update_log = make_logs(events, updates)
        event_log = resolve_amp_timestamps(event_log, update_log)
        event_log, _ = filter_self_interactions(event_log, update_log)
        projected = project_to_author_edges(event_log, update_log)
        expected = len({(r.source_author, r.target_author) for r in projected})
        assert unique_pair_count(projected) == expected


def test_load_logs_shares_vocab(tmp_path):
    inter = tmp_path / "interactions.csv"
    inter.write_text(HEADER + "a,s,amp,,u1\n")
    upd = tmp_path / "updates.csv"
    upd.write_text(UPDATE_HEADER + "b,s,u1,42,P\n")
    events, updates, stats = load_logs(inter, upd)
    assert events.vocab is updates.vocab
    resolved = resolve_amp_timestamps(events, updates)
    assert resolved[0].timestamp == 42
    assert stats["interaction_duplicates_removed"] == 0


# One row path: records, CSV and JSON-lines go through the same checks.

VALID_IDS = st.sampled_from(["a", "b", "c"])
ANY_IDS = st.sampled_from(["a", "s", "u1", "", None])
UPDATE_IDS = st.integers(0, 30).map("u{}".format)
VALID_TIMES = st.one_of(st.integers(0, 20), st.just(2**63 - 1))
ANY_TIMES = st.one_of(st.none(), st.sampled_from([-1, -(2**63), 2**63, 10**20]), VALID_TIMES)
KIND_VALUES = st.sampled_from(["guestbook", "amp", "comment"])
EVENT_RECORDS = (
    st.builds(InteractionEvent, VALID_IDS, VALID_IDS, KIND_VALUES, VALID_TIMES, UPDATE_IDS),
    st.builds(InteractionEvent, ANY_IDS, ANY_IDS, KIND_VALUES | st.sampled_from(["visit", "", None]), ANY_TIMES, ANY_IDS),
)
UPDATE_RECORDS = (
    st.builds(UpdateEvent, VALID_IDS, VALID_IDS, UPDATE_IDS, VALID_TIMES, st.sampled_from(["P", "CG", "unlabeled", "", None])),
    st.builds(UpdateEvent, ANY_IDS, ANY_IDS, ANY_IDS, ANY_TIMES, st.sampled_from(["P", "", None, "X"])),
)


def log_rows(valid, anything):
    """Valid records, at most one arbitrary record, and copies of the first
    two, in random order."""
    return st.tuples(st.lists(valid, max_size=6), st.lists(anything, max_size=1)).flatmap(
        lambda parts: st.permutations(parts[0] + parts[1] + (parts[0] + parts[1])[:2])
    )


def write_rows(tmp_path, name, columns, records):
    """Write records to CSV and to JSON-lines; absent values are left empty
    in CSV and left out of the JSON objects."""
    csv_path, jsonl_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
    with open(csv_path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(columns)
        out.writerows(["" if getattr(r, c) is None else getattr(r, c) for c in columns] for r in records)
    with open(jsonl_path, "w") as fh:
        for r in records:
            fh.write(json.dumps({c: getattr(r, c) for c in columns if getattr(r, c) is not None}) + "\n")
    return csv_path, jsonl_path


def first_occurrences(records):
    """Records with exact repeats dropped, reading absent and empty values
    (and an "unlabeled" role) as equal, as the files do."""
    seen, kept = set(), []
    for r in records:
        key = tuple("" if v is None or v == "unlabeled" else v for v in vars(r).values())
        if key not in seen:
            seen.add(key)
            kept.append(r)
    return kept


def outcome(load):
    """('ok', rows, code columns) of a loaded log, or ('error', field)."""
    try:
        log = load()
    except SchemaError as exc:
        assert exc.line is not None, exc
        return ("error", exc.field)
    columns = [getattr(log, name).tolist() for name in log.__slots__[1:]]
    return ("ok", list(log), columns)


def both_paths(loader, path, lines):
    """What the row path alone makes of a CSV log, and what it makes with bulk
    blocks of ``lines`` lines: ((dtype, values) of every column, duplicates)
    or the SchemaError's (line, field), plus the ids of all three spaces."""
    results = []
    for name, value in (("_bulk_csv", lambda *args: (None, None)), ("_BULK_LINES", lines)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(events, name, value)
            vocab = LogVocab()
            try:
                log, removed = loader(path, "csv", vocab)
                got = ([(getattr(log, s).dtype.str, getattr(log, s).tolist()) for s in log.__slots__[1:]], removed)
            except SchemaError as exc:
                got = (exc.line, exc.field)
            results.append((got, [list(getattr(vocab, space)._ids) for space in vocab.__slots__]))
    return results


ROWS = "a,s1,guestbook,1,\nb,s1,comment,2,u1\n"
BULK_CASES = {
    "field past the reader limit": (load_events, HEADER + ROWS + "a" * 200_000 + ",s,guestbook,1,\n", (4, None)),
    "blank line": (load_events, HEADER + ROWS + "\n" + ROWS + "c,s2,amp,,u1\n", None),
    "no final newline": (load_events, HEADER + ROWS + "c,s2,amp,,u1", None),
    "crlf": (load_events, HEADER + ROWS.replace("\n", "\r\n") * 2, None),
    "crlf header": (load_updates, UPDATE_HEADER.replace("\n", "\r\n") + "a,s,u1,5,P\r\nb,s,u2,6,\r\n", None),
    "quoted newline across a cut": (load_events, HEADER + ROWS + '"c\nd",s1,guestbook,3,\n' + ROWS, None),
    "non-ascii id": (load_events, HEADER + ROWS + "c,s\u00e9,guestbook,3,\n" + ROWS, None),
    "19-digit timestamp": (load_events, HEADER + ROWS + f"c,s1,guestbook,{2**63 - 1},\n" + ROWS, None),
    "20-digit timestamp": (load_events, HEADER + ROWS + f"c,s1,guestbook,{2**63},\n" + ROWS, (4, "timestamp")),
    "wide ids": (load_updates, UPDATE_HEADER + "a,s,u1,5,P\n" + f"{'x' * 32},{'y' * 17},u2,6,\n" + "a,s,u3,7,CG\n", None),
    "unknown role": (load_updates, UPDATE_HEADER + "a,s,u1,5,P\nb,s,u2,6,X\n", (3, "role_label")),
    "guestbook without a timestamp": (load_events, HEADER + ROWS + "c,s1,guestbook,,\n", (4, "timestamp")),
    "comment without an update id": (load_events, HEADER + ROWS + "c,s1,comment,3,\n", (4, "update_id")),
    "missing actor": (load_events, HEADER + ROWS + ",s1,guestbook,3,\n", (4, "actor_id")),
    "missing site": (load_events, HEADER + ROWS + "c,,guestbook,3,\n", (4, "site_id")),
    "update without a timestamp": (load_updates, UPDATE_HEADER + "a,s,u1,5,P\nb,s,u2,,P\n", (3, "timestamp")),
    "empty file": (load_events, "", None),
    "header only": (load_events, HEADER, None),
    "update id clash after a bulk block": (load_updates, UPDATE_HEADER + "a,s,u1,5,P\nb,s,u2,6,\nc,s,u3,7,CG\nd,t,u2,8,\n", (5, "update_id")),
}


class TestOneRowPath:
    @pytest.mark.parametrize(
        "loader, log_cls, columns, records",
        [
            (load_events, EventLog, HEADER.strip().split(","), EVENT_RECORDS),
            (load_updates, UpdateLog, UPDATE_HEADER.strip().split(","), UPDATE_RECORDS),
        ],
        ids=["events", "updates"],
    )
    def test_files_equal_records(self, tmp_path, loader, log_cls, columns, records):
        @given(log_rows(*records))
        def check(rows):
            csv_path, jsonl_path = write_rows(tmp_path, "log", columns, rows)
            unique = first_occurrences(rows)
            want = outcome(lambda: log_cls.from_records(unique))
            for path, fmt in ((csv_path, "csv"), (jsonl_path, "json-lines")):
                assert outcome(lambda: loader(path, fmt)[0]) == want, fmt
                if want[0] == "ok":
                    assert loader(path, fmt)[1] == len(rows) - len(unique)

        check()

    @pytest.mark.parametrize(
        "loader, columns, records",
        [
            (load_events, HEADER.strip().split(","), EVENT_RECORDS),
            (load_updates, UPDATE_HEADER.strip().split(","), UPDATE_RECORDS),
        ],
        ids=["events", "updates"],
    )
    def test_bulk_blocks_equal_the_row_path(self, tmp_path, loader, columns, records):
        @given(log_rows(*records), st.integers(1, 3))
        def check(rows, lines):
            csv_path, _ = write_rows(tmp_path, "log", columns, rows)
            row, bulk = both_paths(loader, csv_path, lines)
            assert bulk == row

        check()

    @pytest.mark.parametrize("case", BULK_CASES)
    @pytest.mark.parametrize("lines", [1, 2, 3])
    def test_bulk_blocks_on_named_cases(self, tmp_path, case, lines):
        loader, text, error = BULK_CASES[case]
        path = tmp_path / "log.csv"
        path.write_bytes(text.encode())
        row, bulk = both_paths(loader, path, lines)
        assert bulk == row
        assert (row[0] if error else "ok") == (error or "ok"), row[0]

    def test_record_repeats_are_kept_or_raise(self):
        event = InteractionEvent("a", "s", "guestbook", 5)
        assert len(EventLog.from_records([event, event])) == 2
        update = UpdateEvent("a", "s", "u1", 5)
        with pytest.raises(SchemaError) as err:
            UpdateLog.from_records([update, update])
        assert (err.value.line, err.value.field) == (1, "update_id")

    def test_file_update_id_clash_names_its_line(self, tmp_path):
        rows = "a,s,u1,5,P\na,s,u1,5,P\n\nb,s,u2,9,\nb,s,u1,9,CG\n"
        with pytest.raises(SchemaError) as err:
            load_updates(write(tmp_path, "up.csv", UPDATE_HEADER + rows))
        assert (err.value.line, err.value.field) == (6, "update_id")


def assert_schema_error(call, line, field):
    with pytest.raises(SchemaError) as err:
        call()
    assert (err.value.line, err.value.field) == (line, field)


class TestRecordSchema:
    def test_float_and_bool_timestamps_are_schema_errors(self):
        for bad in (1.5, 5.0, True):
            assert_schema_error(lambda: EventLog.from_records([InteractionEvent("a", "s", "guestbook", bad)]), 0, "timestamp")
            assert_schema_error(lambda: UpdateLog.from_records([UpdateEvent("a", "s", "u1", bad)]), 0, "timestamp")

    def test_digit_string_timestamp_is_read_as_in_csv(self):
        assert EventLog.from_records([InteractionEvent("a", "s", "guestbook", "5")])[0].timestamp == 5

    def test_empty_or_absent_role_is_unlabeled(self):
        log = UpdateLog.from_records([UpdateEvent("a", "s", "u1", 5, ""), UpdateEvent("a", "s", "u2", 6, None)])
        assert [u.role_label for u in log] == ["unlabeled", "unlabeled"]
        assert_schema_error(lambda: UpdateLog.from_records([UpdateEvent("a", "s", "u1", 5, "X")]), 0, "role_label")

    def test_bool_id_is_schema_error(self):
        assert_schema_error(lambda: EventLog.from_records([InteractionEvent(True, "s", "guestbook", 1)]), 0, "actor_id")

    def test_non_string_ids_become_their_str(self):
        assert EventLog.from_records([InteractionEvent(7, 8, "guestbook", 1)])[0] == InteractionEvent("7", "8", "guestbook", 1)

    def test_directed_log_rows_are_schema_errors(self):
        ok = DirectedInteraction("a", "b", 1, "guestbook", "s")
        cases = [
            (DirectedInteraction("a", "b", 1, "visit", "s"), "kind"),
            (DirectedInteraction("a", "b", 1.5, "guestbook", "s"), "timestamp"),
            (DirectedInteraction("a", "b", False, "guestbook", "s"), "timestamp"),
            (DirectedInteraction("a", "b", -(2**63) - 1, "guestbook", "s"), "timestamp"),
            (DirectedInteraction("a", "a", 1, "guestbook", "s"), "target_author"),
        ]
        for bad, field in cases:
            assert_schema_error(lambda: DirectedInteractionLog.from_records([ok, bad]), 1, field)

    def test_directed_log_keeps_author_keys_and_negative_times(self):
        log = DirectedInteractionLog.from_records([DirectedInteraction(1, 2, -(2**63), "amp", "s")])
        assert log[0] == DirectedInteraction(1, 2, -(2**63), "amp", "s")


JSON_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.sampled_from(["", "a", "guestbook", "amp", "comment", "P", "CG", "5", "-5", "1e3"]),
    st.lists(st.integers(), max_size=2),
)
CSV_CELL = st.one_of(st.text(max_size=6), st.sampled_from(["", "a", "guestbook", "amp", "P", "5", "-5", "1.5", "True"]))


class TestFuzzRows:
    """Malformed rows in either format raise only a SchemaError that has a line."""

    @pytest.mark.parametrize("loader, header", [(load_events, HEADER), (load_updates, UPDATE_HEADER)], ids=["events", "updates"])
    def test_csv_rows(self, tmp_path, loader, header):
        @given(st.lists(st.lists(CSV_CELL, min_size=4, max_size=6), max_size=5))
        def check(rows):
            path = tmp_path / "fuzz.csv"
            with open(path, "w", newline="") as fh:
                fh.write(header)
                csv.writer(fh).writerows(rows)
            try:
                loader(path)
            except SchemaError as exc:
                assert exc.line is not None, exc

        check()

    @pytest.mark.parametrize("loader, header", [(load_events, HEADER), (load_updates, UPDATE_HEADER)], ids=["events", "updates"])
    def test_csv_rows_bulk_blocks_equal_the_row_path(self, tmp_path, loader, header):
        @given(st.lists(st.lists(CSV_CELL, min_size=4, max_size=6), max_size=5), st.integers(1, 3))
        def check(rows, lines):
            path = tmp_path / "fuzz.csv"
            with open(path, "w", newline="") as fh:
                fh.write(header)
                csv.writer(fh).writerows(rows)
            row, bulk = both_paths(loader, path, lines)
            assert bulk == row

        check()

    @pytest.mark.parametrize("loader, header", [(load_events, HEADER), (load_updates, UPDATE_HEADER)], ids=["events", "updates"])
    def test_json_lines_objects(self, tmp_path, loader, header):
        columns = header.strip().split(",")
        objects = st.one_of(
            st.fixed_dictionaries({}, optional={c: JSON_VALUE for c in columns}),
            JSON_VALUE,
        )

        @given(st.lists(objects, max_size=5))
        @example([{"actor_id": "a", "site_id": "s", "kind": "guestbook", "timestamp": 1.5}])
        @example([{"actor_id": "a", "site_id": "s", "kind": "guestbook", "timestamp": True}])
        def check(objs):
            path = tmp_path / "fuzz.jsonl"
            path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
            try:
                loader(path, "json-lines")
            except SchemaError as exc:
                assert exc.line is not None, exc

        check()

    def test_json_integer_too_long_to_read(self, tmp_path):
        path = write(tmp_path, "up.jsonl", '{"author_id": "a", "timestamp": ' + "9" * 5000 + "}\n")
        assert_schema_error(lambda: load_updates(path, "json-lines"), 1, None)

    def test_json_nested_too_deep_to_read(self, tmp_path):
        row = {"author_id": "a", "site_id": "s", "update_id": "u1", "timestamp": 5}
        path = write(tmp_path, "up.jsonl", json.dumps(row) + "\n" + "[" * 100_000 + "\n")
        assert_schema_error(lambda: load_updates(path, "json-lines"), 2, None)

    def test_csv_field_past_the_reader_limit(self, tmp_path):
        path = write(tmp_path, "ev.csv", HEADER + "a,s,guestbook,1,\n" + "a" * 200_000 + ",s,guestbook,1,\n")
        assert_schema_error(lambda: load_events(path), 3, None)

    def test_records(self):
        @given(st.lists(st.builds(InteractionEvent, JSON_VALUE, JSON_VALUE, JSON_VALUE, JSON_VALUE, JSON_VALUE), max_size=4))
        @example([InteractionEvent("a", "s", "guestbook", 1.5)])
        @example([InteractionEvent("a", "s", "guestbook", True)])
        @example([InteractionEvent("a", "s", "guestbook", 10**5000)])
        def check(records):
            try:
                EventLog.from_records(records)
            except SchemaError as exc:
                assert exc.line is not None, exc

        check()


# Projection in bounded chunks. The chunk size is patched small, so these
# logs cross several cuts; TestProjectionRowOrder's logs run chunked too.


class TestChunkedProjection(TestProjectionRowOrder):
    @pytest.fixture(autouse=True)
    def spans(self, monkeypatch):
        """Chunks of fan-out 4; returns the rank range of every chunk projected."""
        monkeypatch.setattr(events, "_PROJECT_CHUNK", 4)
        spans = []
        project_chunk = events._project_chunk

        def spy(lo, hi, *args):
            spans.append((lo, hi))
            return project_chunk(lo, hi, *args)

        monkeypatch.setattr(events, "_project_chunk", spy)
        return spans

    # s1 has x, y before t=5; s2 has x, z; s3 has y, z, w, and m as a patient.
    UPDATES = [
        UpdateEvent("x", "s1", "u1", 1, "CG"),
        UpdateEvent("y", "s1", "u2", 2, "CG"),
        UpdateEvent("x", "s2", "u3", 1, "CG"),
        UpdateEvent("z", "s2", "u4", 3, "CG"),
        UpdateEvent("y", "s3", "u5", 1, "CG"),
        UpdateEvent("z", "s3", "u6", 2, "CG"),
        UpdateEvent("w", "s3", "u7", 50, "P"),
        UpdateEvent("m", "s3", "u8", 60, "P"),
    ]

    def test_group_straddling_a_cut_moves_to_the_next_chunk(self, spans):
        # Fan-out 2 + (2 + 2): a cut after 4 rows would split m's group at
        # t=10, whose rows interleave by target (x, x, y, z).
        event_log, update_log = make_logs(
            [
                InteractionEvent("k", "s1", "guestbook", 5),
                InteractionEvent("m", "s1", "guestbook", 10),
                InteractionEvent("m", "s2", "guestbook", 10),
            ],
            self.UPDATES,
        )
        self.assert_rows(event_log, update_log)
        assert spans == [(0, 1), (1, 3)]

    def test_group_larger_than_a_chunk_is_one_chunk(self, spans):
        # m's group at t=10 has fan-out 2 + 2 + 3 (w by the patient rule; m
        # itself dropped), more than one chunk.
        event_log, update_log = make_logs(
            [
                InteractionEvent("k", "s1", "guestbook", 5),
                InteractionEvent("m", "s1", "guestbook", 10),
                InteractionEvent("m", "s2", "guestbook", 10),
                InteractionEvent("m", "s3", "guestbook", 10),
                InteractionEvent("k", "s2", "guestbook", 20),
            ],
            self.UPDATES,
        )
        self.assert_rows(event_log, update_log)
        assert spans == [(0, 1), (1, 4), (4, 5)]

    def test_prior_patient_counts_once_in_the_fan_out(self, spans):
        # On s4, p and q each have a CG update at 1 and a P update after it:
        # both prior authors and patients, so k's event there has fan-out 2,
        # not 4, and the first chunk also takes the event on s1.
        event_log, update_log = make_logs(
            [
                InteractionEvent("k", "s4", "guestbook", 5),
                InteractionEvent("k", "s1", "guestbook", 6),
                InteractionEvent("k", "s2", "guestbook", 7),
            ],
            self.UPDATES + [
                UpdateEvent("p", "s4", "u9", 1, "CG"),
                UpdateEvent("p", "s4", "u10", 2, "P"),
                UpdateEvent("q", "s4", "u11", 1, "CG"),
                UpdateEvent("q", "s4", "u12", 3, "P"),
            ],
        )
        self.assert_rows(event_log, update_log)
        assert spans == [(0, 2), (2, 3)]

    def test_empty_log(self, spans):
        self.assert_rows(*make_logs([], self.UPDATES))
        self.assert_rows(*make_logs([], []))
        assert spans == []


def heavy_tailed_logs(rng, n_authors=3000, n_sites=40, n_events=400):
    """Columnar logs whose site sizes fall off as 1/rank, built without records."""
    vocab = LogVocab()
    for i in range(n_authors):
        vocab.authors.code(f"a{i}")
    for i in range(n_sites):
        vocab.sites.code(f"s{i}")
    sizes = n_authors // (2 * np.arange(1, n_sites + 1))
    u_site = np.repeat(np.arange(n_sites, dtype=np.int32), sizes)
    u_author = np.concatenate([rng.choice(n_authors, size, replace=False) for size in sizes]).astype(np.int32)
    for i in range(len(u_site)):
        vocab.updates.code(f"u{i}")
    update_log = UpdateLog(
        vocab, u_author, u_site, np.arange(len(u_site), dtype=np.int32),
        rng.integers(0, 1000, len(u_site)), rng.integers(0, 3, len(u_site)).astype(np.int8),
    )
    event_log = EventLog(
        vocab, rng.integers(0, n_authors, n_events).astype(np.int32),
        rng.choice(n_sites, n_events, p=sizes / sizes.sum()).astype(np.int32), np.zeros(n_events, dtype=np.int8),
        rng.integers(500, 2000, n_events), np.full(n_events, -1, dtype=np.int32),
    )
    return event_log, update_log


def test_projection_peak_is_bounded_by_its_output(monkeypatch):
    # Unchunked, the expansion's temporaries reach over 4x the output.
    monkeypatch.setattr(events, "_PROJECT_CHUNK", 1 << 10)
    event_log, update_log = heavy_tailed_logs(np.random.default_rng(0))
    out, peak = traced_peak(lambda: project_to_author_edges(event_log, update_log))
    assert len(out) > 100 * events._PROJECT_CHUNK
    out_bytes = sum(c.nbytes for c in (out.src, out.dst, out.timestamp, out.kind, out.site))
    assert peak <= 3 * out_bytes, f"peak {peak} bytes for {out_bytes} bytes of output"


class TestNotUtf8:
    """A byte that is not UTF-8 is a SchemaError naming its line and field."""

    def test_csv(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_bytes(HEADER.encode() + b"a,s1,guestbook,1,\nb,s\xff,guestbook,2,\n")
        assert_schema_error(lambda: load_events(path), 3, "site_id")

    def test_json_lines(self, tmp_path):
        path = tmp_path / "up.jsonl"
        path.write_bytes(b'{"author_id": "a", "site_id": "s\xff", "update_id": "u1", "timestamp": 1}\n')
        assert_schema_error(lambda: load_updates(path, "json-lines"), 1, "site_id")

    def test_line_past_the_first_read_buffer(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_bytes(HEADER.encode() + b"a,s1,guestbook,1,\n" * 20_000 + b"b,s1,guestbook,2,\xff\n")
        assert_schema_error(lambda: load_events(path), 20_002, "update_id")

    def test_header_or_unparsable_line_names_no_field(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_bytes(b"actor_id,site_\xffid,kind,timestamp,update_id\n")
        assert_schema_error(lambda: load_events(path), 1, None)
        path = tmp_path / "ev.jsonl"
        path.write_bytes(b'{"actor_id": "a"}\n{"\xff": 1\n')
        assert_schema_error(lambda: load_events(path, "json-lines"), 2, None)


def test_csv_line_numbers_count_lines_inside_quotes(tmp_path):
    # A quoted field may hold a newline; errors name the physical line.
    path = tmp_path / "ev.csv"
    path.write_text(HEADER + '"a\nb",s1,guestbook,1,\n' + "c,s1,visit,2,\n")
    assert_schema_error(lambda: load_events(path), 4, "kind")


def test_log_starting_with_a_comment_line_is_a_header_error(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("# config_hash=0\n" + HEADER + "a,s1,guestbook,1,\n")
    assert_schema_error(lambda: load_events(path), 1, None)


def write_benchmark_shaped_logs(directory, rng, n_events=3000, n_sites=300):
    """Logs shaped as the benchmark generator writes them: ids a<int>, s<int>
    and u<int>, amps with no timestamp, guestbook posts with no update id,
    empty role labels and exact duplicate rows."""
    directory.mkdir()
    roles = np.array(["", "P", "CG"])[rng.integers(0, 3, n_sites)]
    times = rng.integers(0, 500_000_000, n_sites)
    (directory / "updates.csv").write_text(
        UPDATE_HEADER + "".join(f"a{i},s{i},u{i},{t},{r}\n" for i, (t, r) in enumerate(zip(times.tolist(), roles.tolist())))
    )
    rows = []
    for a, s, k, t in zip(*(rng.integers(0, hi, n_events).tolist() for hi in (5 * n_sites, n_sites, 3, 600_000_000))):
        rows.append((f"a{a},s{s},guestbook,{t},", f"a{a},s{s},amp,,u{s}", f"a{a},s{s},comment,{t},u{s}")[k] + "\n")
    rows += rows[: n_events // 200]
    (directory / "interactions.csv").write_text(HEADER + "".join(rows))
    return directory / "interactions.csv", directory / "updates.csv"


@pytest.mark.parametrize("lines", [None, 97])
def test_bulk_path_takes_benchmark_and_c09_shaped_logs(tmp_path, monkeypatch, lines):
    # A log the bulk path should take never reaches the row path, so a
    # change that sends it there fails here rather than only costing time.
    from test_acceptance import _write_synthetic_logs

    (tmp_path / "c09").mkdir()
    rng = np.random.default_rng(11)
    logs = [write_benchmark_shaped_logs(tmp_path / "bench", rng), _write_synthetic_logs(tmp_path / "c09", rng, 3000, 400)]
    if lines is not None:
        monkeypatch.setattr(events, "_BULK_LINES", lines)
    for interactions, updates in logs:
        with monkeypatch.context() as patch:
            patch.setattr(events, "_bulk_csv", lambda *args: (None, None))
            want = load_logs(interactions, updates)
        with monkeypatch.context() as patch:
            for name in ("_event_log", "_update_log"):
                patch.setattr(events, name, lambda *args: pytest.fail("a log took the row path"))
            got = load_logs(interactions, updates)
        for log, other in zip(got[:2], want[:2]):
            for name in log.__slots__[1:]:
                assert getattr(log, name).dtype == getattr(other, name).dtype
                assert getattr(log, name).tolist() == getattr(other, name).tolist(), name
        assert [got[0].vocab.authors._ids, got[0].vocab.sites._ids, got[0].vocab.updates._ids] == [
            want[0].vocab.authors._ids, want[0].vocab.sites._ids, want[0].vocab.updates._ids
        ]
        assert got[2] == want[2]


TWO_ROW_LOGS = {
    "events": lambda: EventLog.from_records(
        [InteractionEvent("a", "s1", "guestbook", 1), InteractionEvent("b", "s2", "amp", None, "u1")]
    ),
    "updates": lambda: UpdateLog.from_records([UpdateEvent("a", "s1", "u1", 1, "P"), UpdateEvent("b", "s2", "u2", 2)]),
    "directed": lambda: DirectedInteractionLog.from_records(
        [DirectedInteraction("a", "b", 1, "guestbook", "s1"), DirectedInteraction("b", "a", 2, "comment", "s2")]
    ),
}


@pytest.mark.parametrize("make", TWO_ROW_LOGS.values(), ids=TWO_ROW_LOGS)
def test_rows_index_like_a_sequence(make):
    log = make()
    rows = [log[0], log[1]]
    assert rows[0] != rows[1]
    assert list(log) == rows
    assert [log[-1], log[-2], log[np.int64(1)]] == [rows[1], rows[0], rows[1]]
    for i in (2, -3, 10**20, -(10**20)):
        with pytest.raises(IndexError):
            log[i]
    assert list(reversed(log)) == rows[::-1]
    assert log.index(rows[1]) == 1
    assert rows[0] in log
    for key in (slice(0, 1), 1.0, "1"):
        with pytest.raises(TypeError):
            log[key]


COLUMN_DTYPES = {
    EventLog: {"actor": np.int32, "site": np.int32, "kind": np.int8, "timestamp": np.int64, "update": np.int32},
    UpdateLog: {"author": np.int32, "site": np.int32, "update": np.int32, "timestamp": np.int64, "role": np.int8},
    DirectedInteractionLog: {"src": np.int32, "dst": np.int32, "timestamp": np.int64, "kind": np.int8, "site": np.int32},
}
# Every event row but the last is kept by the dedupe; d's event on s1 is a
# self-interaction, and c's amp takes u1's time. The last update row repeats one.
VALUE_EVENTS = "a,s1,guestbook,10,\nb,s1,comment,20,u2\nc,s2,amp,,u1\nd,s1,guestbook,30,\na,s1,guestbook,10,\n"
VALUE_UPDATES = "b,s2,u1,5,P\nd,s1,u2,3,CG\nd,s1,u3,7,\nb,s2,u1,5,P\n"


def logs_from_every_path(tmp_path):
    """Name -> log, for every way the package makes a log."""
    ev = write(tmp_path, "ev.csv", HEADER + VALUE_EVENTS)
    up = write(tmp_path, "up.csv", UPDATE_HEADER + VALUE_UPDATES)
    vocab = LogVocab()
    updates, removed_updates = load_updates(up, "csv", vocab)
    events_log, removed_events = load_events(ev, "csv", vocab)
    assert (removed_updates, removed_events) == (1, 1)
    resolved = resolve_amp_timestamps(events_log, updates)
    filtered, removed_self = filter_self_interactions(resolved, updates)
    assert removed_self == 1
    logs = {
        "csv bulk events, deduped": events_log,
        "csv bulk updates, deduped": updates,
        "resolve_amp_timestamps": resolved,
        "filter_self_interactions": filtered,
        "project_to_author_edges": project_to_author_edges(filtered, updates),
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(events, "_bulk_csv", lambda *args: (None, None))
        logs["csv rows events"] = load_events(ev)[0]
        logs["csv rows updates"] = load_updates(up)[0]
    handed_over = []
    bulk_csv = events._bulk_csv
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(events, "_BULK_LINES", 2)
        patch.setattr(events, "_bulk_csv", lambda *args: handed_over.append(bulk_csv(*args)) or handed_over[-1])
        logs["csv bulk then rows"] = load_events(write(tmp_path, "over.csv", HEADER + VALUE_EVENTS + 'e,"s3",amp,,u1\n'))[0]
    assert [(log is None, resume is None) for log, resume in handed_over] == [(False, False)]
    lines = [dict(zip(events.INTERACTION_COLUMNS, row.split(","))) for row in VALUE_EVENTS.splitlines()]
    logs["json-lines"] = load_events(write(tmp_path, "ev.jsonl", "".join(json.dumps(o) + "\n" for o in lines)), "json-lines")[0]
    for name, make in TWO_ROW_LOGS.items():
        logs[f"{name} from_records"] = make()
    return logs


@pytest.mark.parametrize(
    "name",
    [
        "csv bulk events, deduped", "csv bulk updates, deduped", "csv rows events", "csv rows updates",
        "csv bulk then rows", "json-lines", "events from_records", "updates from_records", "directed from_records",
        "resolve_amp_timestamps", "filter_self_interactions", "project_to_author_edges",
    ],
)
def test_log_is_a_value(tmp_path, name):
    log = logs_from_every_path(tmp_path)[name]
    dtypes = COLUMN_DTYPES[type(log)]
    assert log.__slots__[1:] == tuple(dtypes) and len(log) > 0
    for column_name, column in zip(dtypes, log.columns):
        assert column is getattr(log, column_name)
        assert type(column) is np.ndarray and column.dtype == dtypes[column_name], column_name
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[0]
        with pytest.raises(AttributeError):
            setattr(log, column_name, np.array(column))
        assert np.array(column).flags.writeable
    with pytest.raises(AttributeError):
        log.vocab = LogVocab()
    with pytest.raises(AttributeError):
        del log.vocab
    rows = list(log)
    for other in (copy.copy(log), copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
        assert type(other) is type(log) and list(other) == rows
        assert not any(column.flags.writeable for column in other.columns)
    assert copy.copy(log).vocab is log.vocab
    for columns in (log.columns[:-1], log.columns + log.columns[:1]):
        with pytest.raises(TypeError):
            type(log)(log.vocab, *columns)


@pytest.mark.parametrize("cls", COLUMN_DTYPES)
def test_log_views_the_callers_arrays(cls):
    columns = [np.arange(3, dtype=dtype) for dtype in COLUMN_DTYPES[cls].values()]
    log = cls(LogVocab(), *columns)
    for mine, its in zip(columns, log.columns):
        assert mine.flags.writeable and not its.flags.writeable
        assert np.shares_memory(mine, its)
