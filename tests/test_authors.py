import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_logs

from netchoice.authors import (
    AuthorDirectory,
    DegenerateMarginalsError,
    GeoPost,
    ROLE_CAREGIVER,
    ROLE_MIXED,
    ROLE_PATIENT,
    SECONDS_PER_DAY,
    UndefinedRoleError,
    aggregate_role,
    assign_health_condition,
    assign_state,
    cohens_kappa,
    load_geo_posts,
    load_site_conditions,
    shared_account,
    shared_health_condition,
)
from netchoice.events import LogVocab, SchemaError, UpdateEvent, UpdateLog

DAY = int(SECONDS_PER_DAY)


class TestAggregateRole:
    def test_all_caregiver(self):
        assert aggregate_role([False] * 10) == ROLE_CAREGIVER

    def test_half_mixed(self):
        assert aggregate_role([True] * 5 + [False] * 5) == ROLE_MIXED

    def test_mostly_patient(self):
        assert aggregate_role([True] * 8 + [False] * 2) == ROLE_PATIENT

    def test_exact_thirds_are_mixed(self):
        assert aggregate_role([True] + [False] * 2) == ROLE_MIXED      # exactly 1/3
        assert aggregate_role([True] * 2 + [False]) == ROLE_MIXED      # exactly 2/3
        assert aggregate_role([True] + [False] * 3) == ROLE_CAREGIVER     # just under 1/3
        assert aggregate_role([True] * 3 + [False]) == ROLE_PATIENT       # just over 2/3

    def test_zero_updates_error(self):
        with pytest.raises(UndefinedRoleError):
            aggregate_role([])

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_permutation_invariant(self, labels):
        role = aggregate_role(labels)
        assert aggregate_role(list(reversed(labels))) == role
        assert aggregate_role(sorted(labels)) == role


class TestSharedAccount:
    def test_middle_band_triggers(self):
        assert shared_account([0.0, 0.5])
        assert not shared_account([0.0, 1.0])

    def test_boundary_is_shared(self):
        assert shared_account([1 / 3])
        assert shared_account([2 / 3])
        assert not shared_account([0.3])
        assert not shared_account([0.7])

    def test_empty_is_not_shared(self):
        assert not shared_account([])


class TestHealthCondition:
    def test_first_informative(self):
        assert assign_health_condition([None, "Cancer", "Injury"]) == "Cancer"

    def test_unknown_is_skipped(self):
        assert assign_health_condition(["Condition Unknown"]) is None
        assert assign_health_condition(["Condition Unknown", "Injury"]) == "Injury"

    def test_all_none(self):
        assert assign_health_condition([None, None]) is None

    def test_shared(self):
        assert shared_health_condition("Cancer", "Cancer") == 1
        assert shared_health_condition(None, None) == 0
        assert shared_health_condition("Cancer", "Injury") == 0


class TestAssignState:
    def test_clear_plurality(self):
        posts = ["MN"] * 6 + ["CA"] * 3 + ["TX"] * 3
        assert assign_state(posts) == "MN"  # 0.50 - 0.25 = 0.25 margin

    def test_insufficient_margin(self):
        posts = ["MN"] * 5 + ["CA"] * 4 + ["TX"]
        assert assign_state(posts) is None  # 0.10 margin

    def test_under_ten_posts(self):
        assert assign_state(["MN"] * 9) is None

    def test_exact_margin_boundary_assigns(self):
        posts = ["MN"] * 6 + ["CA"] * 4
        assert assign_state(posts) == "MN"  # margin exactly 0.20

    def test_just_under_margin_rejects(self):
        posts = ["MN"] * 12 + ["CA"] * 9
        assert assign_state(posts) is None  # 3/21 < 0.20

    def test_sole_state(self):
        assert assign_state(["MN"] * 10) == "MN"

    def test_unresolvable_posts_excluded(self):
        posts = ["MN"] * 9 + [None] * 5
        assert assign_state(posts) is None
        assert assign_state(posts + ["MN"]) == "MN"

    def test_assigned_state_always_satisfies_thresholds(self):
        rng = np.random.default_rng(0)
        states = ["MN", "CA", "TX", "NY"]
        for _ in range(300):
            n = int(rng.integers(0, 40))
            posts = [states[rng.integers(len(states))] for _ in range(n)]
            got = assign_state(posts)
            if got is not None:
                counts = {s: posts.count(s) for s in set(posts)}
                top = counts.pop(got)
                second = max(counts.values(), default=0)
                assert len(posts) >= 10
                assert 5 * (top - second) >= len(posts)


class TestCohensKappa:
    def test_perfect_agreement(self):
        assert cohens_kappa(list("abab"), list("abab")) == pytest.approx(1.0)

    def test_hand_computed_table(self):
        # Agreement table [[20, 5], [10, 15]]: p_o = 0.7, p_e = 0.5, kappa = 0.4.
        a = [0] * 25 + [1] * 25
        b = [0] * 20 + [1] * 5 + [0] * 10 + [1] * 15
        assert cohens_kappa(a, b) == pytest.approx(0.4, abs=1e-12)

    def test_degenerate_marginals(self):
        with pytest.raises(DegenerateMarginalsError):
            cohens_kappa(["x"] * 5, ["x"] * 5)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = list(rng.integers(0, 3, size=60))
        b = list(rng.integers(0, 3, size=60))
        assert cohens_kappa(a, b) == pytest.approx(cohens_kappa(b, a))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cohens_kappa([1, 2], [1])

    def test_kappa_one_iff_perfect(self):
        a = [0, 1, 0, 1, 1]
        b = [0, 1, 0, 1, 0]
        assert cohens_kappa(a, b) < 1.0


def directory_from(updates, **kwargs):
    return AuthorDirectory(updates, **kwargs)


class TestAuthorDirectory:
    def test_roles_and_shared(self):
        updates = [
            UpdateEvent("cg", "s1", "u1", 100, "CG"),
            UpdateEvent("cg", "s1", "u2", 200, "CG"),
            UpdateEvent("cg", "s1", "u3", 300, "P"),  # 1/3 patient -> Mixed overall
            UpdateEvent("p", "s2", "u4", 100, "P"),
            UpdateEvent("nolabel", "s3", "u5", 100, "unlabeled"),
        ]
        d = directory_from(updates)
        assert d.role("cg") == ROLE_MIXED
        assert d.is_shared_account("cg")  # site fraction exactly 1/3
        assert d.role("p") == ROLE_PATIENT
        assert not d.is_shared_account("p")
        assert d.role("nolabel") is None

    def test_shared_account_requires_single_site_band(self):
        updates = [
            UpdateEvent("a", "s1", "u1", 1, "CG"),
            UpdateEvent("a", "s2", "u2", 2, "P"),
        ]
        d = directory_from(updates)
        # Overall fraction 1/2 is Mixed, but each site is pure: not shared.
        assert d.role("a") == ROLE_MIXED
        assert not d.is_shared_account("a")

    def test_health_condition_by_site_creation_order(self):
        updates = [
            UpdateEvent("a", "s1", "u1", 50, "CG"),
            UpdateEvent("a", "s2", "u2", 10, "CG"),
        ]
        conditions = {"s1": "Cancer", "s2": None}
        d = directory_from(updates, site_conditions=conditions)
        assert d.health_condition("a") == "Cancer"  # s2 created first but has no condition
        created = {"s1": 5, "s2": 1}
        d2 = directory_from(updates, site_conditions={"s1": "Cancer", "s2": "Injury"}, site_created=created)
        assert d2.health_condition("a") == "Injury"

    def test_states_from_geo_posts(self):
        updates = [UpdateEvent("a", "s", "u1", 1, "CG"), UpdateEvent("b", "s2", "u2", 1, "CG")]
        geo = [GeoPost("a", i, "MN") for i in range(12)] + [GeoPost("b", 0, "CA")]
        d = directory_from(updates, geo_posts=geo)
        assert d.state("a") == "MN"
        assert d.state("b") is None
        assert d.shared_state("a", "b") == 0

    def test_activity_frequency_arithmetic(self):
        month = int(30.44 * DAY)
        t0 = 1_000_000
        updates = [
            UpdateEvent("a", "s", "u1", t0, "CG"),
            UpdateEvent("a", "s", "u2", t0 + month // 2, "CG"),
            UpdateEvent("a", "s", "u3", t0 + month, "CG"),
        ]
        d = directory_from(updates)
        feats = d.activity_features("a", t0 + 2 * month)
        assert feats.update_count == 3
        assert feats.update_frequency == pytest.approx(1.5)
        assert feats.days_since_first_update == pytest.approx(2 * 30.44)

    def test_activity_single_update(self):
        t = 5_000_000
        d = directory_from([UpdateEvent("a", "s", "u1", t, "CG")])
        feats = d.activity_features("a", t + 10 * DAY)
        assert feats.update_count == 1
        assert feats.days_since_most_recent_update == pytest.approx(10.0)
        assert feats.days_since_first_update == pytest.approx(10.0)

    def test_activity_before_first_update_is_zero(self):
        t = 5_000_000
        d = directory_from([UpdateEvent("a", "s", "u1", t, "CG")])
        feats = d.activity_features("a", t)  # strictly-before semantics
        assert feats == d.activity_features("missing", t)
        assert feats.update_count == 0
        assert feats.update_frequency == 0.0

    def test_frequency_positive_iff_count_positive(self):
        rng = np.random.default_rng(2)
        updates = [
            UpdateEvent("a", "s", f"u{i}", int(rng.integers(0, 100)) * DAY, "CG")
            for i in range(10)
        ]
        d = directory_from(updates)
        for probe in range(0, 110 * DAY, 7 * DAY):
            feats = d.activity_features("a", probe)
            assert (feats.update_frequency > 0) == (feats.update_count > 0)

    def test_multisite_and_mixedsite(self):
        updates = [
            UpdateEvent("a", "s1", "u1", 100, "CG"),
            UpdateEvent("a", "s2", "u2", 200, "CG"),
            UpdateEvent("b", "s1", "u3", 300, "CG"),
        ]
        d = directory_from(updates)
        t = 250
        feats = d.activity_features("a", t)
        assert feats.is_multisite
        assert not feats.is_mixedsite  # b's update on s1 is at 300 >= t
        feats_later = d.activity_features("a", 301)
        assert feats_later.is_mixedsite
        feats_b = d.activity_features("b", 301)
        assert not feats_b.is_multisite
        assert feats_b.is_mixedsite

    def test_activity_matches_scan_oracle(self):
        rng = np.random.default_rng(3)
        updates = []
        for i in range(120):
            updates.append(
                UpdateEvent(
                    f"a{rng.integers(5)}",
                    f"s{rng.integers(4)}",
                    f"u{i}",
                    int(rng.integers(0, 80)) * DAY,
                    "CG",
                )
            )
        d = directory_from(updates)
        # Every update time and the second after it pin the strict cursor.
        probes = {10 * DAY, 40 * DAY + 1, 90 * DAY} | {u.timestamp + dt for u in updates for dt in (0, 1)}
        for probe in sorted(probes):
            for author in {u.author_id for u in updates}:
                mine = [u for u in updates if u.author_id == author and u.timestamp < probe]
                feats = d.activity_features(author, probe)
                assert feats.update_count == len(mine)
                if not mine:
                    continue
                first = min(u.timestamp for u in mine)
                latest = max(u.timestamp for u in mine)
                assert feats.days_since_first_update == pytest.approx((probe - first) / DAY)
                assert feats.days_since_most_recent_update == pytest.approx((probe - latest) / DAY)
                tenure = max(probe - first, DAY) / (DAY * 30.44)
                assert feats.update_frequency == pytest.approx(len(mine) / tenure)
                my_sites = {u.site_id for u in mine}
                assert feats.is_multisite == (len(my_sites) >= 2)
                mixed = any(
                    len({v.author_id for v in updates if v.site_id == s and v.timestamp < probe}) >= 2
                    for s in my_sites
                )
                assert feats.is_mixedsite == mixed

    @pytest.mark.parametrize(
        "t, error",
        [(6.5, TypeError), (np.float64(7.0), TypeError), (2**70, OverflowError), (-(2**70), OverflowError),
         (2**63, OverflowError), (-(2**63) - 1, OverflowError)],
    )
    def test_activity_time_is_an_int64(self, t, error):
        d = directory_from([UpdateEvent("a", "s1", "u1", 5, "CG"), UpdateEvent("a", "s2", "u2", 6, "CG")])
        for author in ("a", "missing"):
            with pytest.raises(error):
                d.activity_features(author, t)

    def test_activity_at_the_ends_of_int64(self):
        d = directory_from([UpdateEvent("a", "s1", "u1", 5, "CG"), UpdateEvent("a", "s2", "u2", 6, "CG")])
        assert d.activity_features("a", -(2**63)) == d.activity_features("missing", 7)
        last = d.activity_features("a", 2**63 - 1)
        assert (last.update_count, last.is_multisite, last.is_mixedsite) == (2, True, False)
        assert last.days_since_first_update == (2**63 - 1 - 5) / DAY
        for t in (6, 7, 2**40):
            assert d.activity_features("a", np.int64(t)) == d.activity_features("a", t)
            assert type(d.activity_features("a", np.int64(t)).update_count) is int

    def test_from_update_log_uses_codes(self):
        events, update_log = make_logs([], [UpdateEvent("a", "s", "u1", 7, "P")])
        d = AuthorDirectory(update_log)
        code = update_log.vocab.authors.get("a")
        assert d.role(code) == ROLE_PATIENT
        assert d.first_update_time(code) == 7

    def test_csv_export(self, tmp_path):
        updates = [UpdateEvent("a", "s", "u1", 3, "P")]
        d = directory_from(updates, site_conditions={"s": "Cancer"})
        path = tmp_path / "authors.csv"
        d.to_csv(path, header_comment="config_hash=ff")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=ff"
        assert lines[1] == "author_id,role,is_shared,health_condition,state,first_update_time"
        assert lines[2] == "a,P,0,Cancer,,3"

    def test_record_fields(self):
        updates = [UpdateEvent("a", "s", "u1", 3, "P")]
        d = directory_from(updates)
        rec = d.record("a")
        assert rec.role == ROLE_PATIENT
        assert rec.site_ids == ("s",)
        assert rec.first_update_time == 3

    def test_record_role_lookup_matches_the_loaders(self):
        d = directory_from([UpdateEvent("a", "s", "u1", 3, ""), UpdateEvent("b", "s", "u2", 4, "P")])
        assert d.role("b") == ROLE_PATIENT
        assert d.record("a").role is None  # "" means unlabeled
        with pytest.raises(SchemaError) as err:
            directory_from([UpdateEvent("a", "s", "u1", 3, "P"), UpdateEvent("a", "s", "u2", 4, "patient")])
        assert (err.value.line, err.value.field) == (1, "role_label")

    def test_record_timestamps_pass_the_loaders_checks(self):
        assert directory_from([UpdateEvent("a", "s", "u1", "7", "P")]).first_update_time("a") == 7
        for bad in (None, 1.5, True, "abc", 2**63, -1):
            with pytest.raises(SchemaError) as err:
                directory_from([UpdateEvent("a", "s", "u1", 3, "P"), UpdateEvent("b", "s", "u2", bad, "CG")])
            assert (err.value.line, err.value.field) == (1, "timestamp"), bad

    def test_ties_break_on_str_of_the_key(self):
        # "s10" sorts before "s9", and code 10 before code 9 as a str.
        updates = [UpdateEvent("b", "s9", "u1", 5, "P"), UpdateEvent("b", "s10", "u2", 5, "P")]
        updates.append(UpdateEvent("a", "s9", "u3", 5, "CG"))
        conditions = {"s9": "Injury", "s10": "Cancer"}
        d = directory_from(updates, site_conditions=conditions, site_created={"s9": 1, "s10": 1})
        assert d.sites_of("b") == ("s10", "s9")
        assert d.health_condition("b") == "Cancer"
        assert list(d.first_update_times()) == ["a", "b"]
        vocab = LogVocab()
        for j in range(11):
            vocab.sites.code(f"s{j}")
        d = AuthorDirectory(UpdateLog.from_records(updates, vocab=vocab), site_conditions=conditions)
        b = vocab.authors.get("b")
        assert d.sites_of(b) == (10, 9)
        assert d.health_condition(b) == "Cancer"
        assert list(d.first_update_times()) == [0, 1]

    @pytest.mark.parametrize(
        "bad, line, field",
        [
            ([UpdateEvent(None, "s", "u1", 3, "P")], 0, "author_id"),
            ([UpdateEvent("a", "", "u1", 3, "P")], 0, "site_id"),
            ([UpdateEvent("a", "s", None, 3, "P")], 0, "update_id"),
            ([UpdateEvent("a", "s", "u1", 3, "P"), UpdateEvent("b", "s", "u1", 4, "CG")], 1, "update_id"),
        ],
    )
    def test_records_are_checked_by_from_records(self, bad, line, field):
        for build in (directory_from, UpdateLog.from_records):
            with pytest.raises(SchemaError) as err:
                build(bad)
            assert (err.value.line, err.value.field) == (line, field), build

    @pytest.mark.parametrize("seed", range(4))
    def test_records_agree_with_their_update_log(self, seed, tmp_path):
        # Single-digit labels, interned as their own codes, so ties that break
        # on a key or on str(site key) break the same way on both sides.
        rng = np.random.default_rng(seed)
        updates = [
            UpdateEvent(
                str(rng.integers(8)),
                str(rng.integers(6)),
                f"u{i}",
                int(rng.integers(0, 12)) * DAY + int(rng.integers(0, 2)),
                str(rng.choice(["P", "CG", "unlabeled"])),
            )
            for i in range(int(rng.integers(1, 60)))
        ]
        conditions = {"0": "Cancer", "1": None, "2": "Condition Unknown", "3": "Injury", "4": "Cancer"}
        created = {"1": 0, "3": 5 * DAY, "4": 5 * DAY}
        geo = [GeoPost(str(a), 0, "MN" if a < 4 else None) for a in range(8) for _ in range(10)]
        vocab = LogVocab()
        for j in range(10):
            vocab.authors.code(str(j))
            vocab.sites.code(str(j))
        log = UpdateLog.from_records(updates, vocab=vocab)
        kwargs = dict(site_conditions=conditions, site_created=created, geo_posts=geo)
        by_label, by_code = AuthorDirectory(updates, **kwargs), AuthorDirectory(log, **kwargs)
        code = vocab.authors.get
        assert [code(a) for a in by_label.authors()] == list(by_code.authors())
        assert [(code(a), t) for a, t in by_label.first_update_times().items()] == list(
            by_code.first_update_times().items()
        )
        labels = [str(a) for a in range(9)]  # "8" has no updates
        for a in labels:
            assert (a in by_label) == (code(a) in by_code)
            want = by_code.record(code(a))
            got = by_label.record(a)
            assert got.site_ids == tuple(vocab.sites.id(s) for s in want.site_ids)
            assert (got.role, got.is_shared_account, got.health_condition, got.state, got.first_update_time) == (
                want.role, want.is_shared_account, want.health_condition, want.state, want.first_update_time
            )
            for b in labels:
                assert by_label.shared_condition(a, b) == by_code.shared_condition(code(a), code(b))
                assert by_label.shared_state(a, b) == by_code.shared_state(code(a), code(b))
            for t in sorted({u.timestamp + dt for u in updates for dt in (0, 1)}):
                assert by_label.activity_features(a, t) == by_code.activity_features(code(a), t), (a, t)
        by_label.to_csv(tmp_path / "records.csv")
        by_code.to_csv(tmp_path / "log.csv")
        assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "log.csv").read_bytes()
        # The export reads the directory's rows; each line must match the author's record.
        records = [by_label.record(a) for a in sorted(by_label.authors())]
        want = [
            [r.author_id, r.role or "", str(int(r.is_shared_account)), r.health_condition or "", r.state or "",
             str(r.first_update_time)]
            for r in records
        ]
        assert (tmp_path / "records.csv").read_text().splitlines()[1:] == list(map(",".join, want))


class TestSideFiles:
    def test_geo_post_timestamp_not_an_integer(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("author_id,timestamp,state\na,5,MN\nb,abc,CA\n")
        with pytest.raises(SchemaError) as err:
            load_geo_posts(path)
        assert (err.value.line, err.value.field) == (3, "timestamp")

    def test_geo_posts_short_row(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("author_id,timestamp,state\na\n")
        with pytest.raises(SchemaError) as err:
            load_geo_posts(path)
        assert (err.value.line, err.value.field) == (2, "timestamp")

    def test_site_created_not_an_integer(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("site_id,health_condition,created\ns1,Cancer,10\ns2,,1.5\n")
        with pytest.raises(SchemaError) as err:
            load_site_conditions(path)
        assert (err.value.line, err.value.field) == (3, "created")

    def test_site_conditions_round_trip(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("site_id,health_condition,created\ns1,Cancer,10\ns2,,\n")
        assert load_site_conditions(path) == ({"s1": "Cancer", "s2": None}, {"s1": 10})
