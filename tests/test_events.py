import json

import numpy as np
import pytest

from conftest import interaction_multiset, make_logs, project_oracle, random_event_fixture

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
