import json
import math

import numpy as np
import pytest

from conftest import bfs_components, component_of, random_edge_stream

import netchoice.choices as choices_module
from netchoice.authors import AuthorDirectory
from netchoice.choices import (
    FEATURE_NAMES,
    STATE_FEATURE,
    ChoiceInstance,
    SamplerConfig,
    SynthConfig,
    build_choice_sets,
    build_features,
    censored_log,
    choice_set_features,
    eligible_candidates,
    feature_names,
    read_choice_sets,
    sample_negatives,
    synth_generate,
    temporal_split,
    write_choice_sets,
)
from netchoice.estimators import mnl_fit
from netchoice.events import LogVocab, UpdateEvent, UpdateLog
from netchoice.graph import build
from netchoice.initiations import extract_initiations

DAY = 86_400


def make_world(seed=0, n_authors=12, n_edges=120, t_max=400):
    """Random interactions plus one early update per author."""
    rng = np.random.default_rng(seed)
    authors = [f"a{i}" for i in range(n_authors)]
    edges = []
    for src, dst, t in random_edge_stream(rng, n_nodes=n_authors, n_edges=n_edges, t_max=t_max):
        edges.append((authors[src], authors[dst], t + 50))
    updates = []
    for i, author in enumerate(authors):
        role = ["P", "CG", "unlabeled"][i % 3]
        updates.append(UpdateEvent(author, f"s{i % 5}", f"u{i}", i, role))
    directory = AuthorDirectory(
        updates,
        site_conditions={f"s{j}": ["Cancer", "Injury", None, "Cancer", None][j] for j in range(5)},
    )
    graph = build(edges, extra_nodes=directory.first_update_times())
    return edges, updates, directory, graph


class TestEligibility:
    def test_existing_target_excluded(self):
        g = build([("a", "b", 5)], extra_nodes={"a": 0, "b": 0, "c": 0})
        got = eligible_candidates(g, None, "a", 10)
        assert got == {"c"}

    def test_fresh_network_counts(self):
        g = build([], extra_nodes={f"n{i}": 0 for i in range(5)})
        assert eligible_candidates(g, None, "n0", 1) == {f"n{i}" for i in range(1, 5)}

    def test_activation_strictly_before(self):
        g = build([], extra_nodes={"a": 5, "b": 3})
        assert eligible_candidates(g, None, "z", 5) == {"b"}

    def test_directory_merges_update_activation(self):
        g = build([("a", "b", 10)])
        directory = AuthorDirectory([UpdateEvent("w", "s", "u1", 2, "P")])
        # w never interacted but updated at t=2, so it is an eligible target;
        # b is already linked from a and is excluded.
        assert eligible_candidates(g, directory, "a", 11) == {"w"}
        assert eligible_candidates(g, directory, "b", 11) == {"a", "w"}

    def test_set_algebra_oracle(self):
        edges, _, directory, graph = make_world(seed=3)
        inits = extract_initiations(edges)
        probe = inits[len(inits) // 2]
        graph.advance_to(probe.time)
        got = eligible_candidates(graph, directory, probe.initiator, probe.time)
        activated = {a for a, t in directory.first_update_times().items() if t < probe.time}
        for s, d, t in edges:
            if t < probe.time:
                activated.update((s, d))
        linked = {d for s, d, t in edges if s == probe.initiator and t < probe.time}
        assert got == activated - {probe.initiator} - linked


class TestSampler:
    def test_small_pool_returned_whole(self):
        assert sorted(sample_negatives(["x", "y", "z"], 5, seed=1)) == ["x", "y", "z"]

    def test_deterministic(self):
        pool = [f"c{i}" for i in range(30)]
        assert sample_negatives(pool, 7, seed=42) == sample_negatives(pool, 7, seed=42)
        assert sample_negatives(pool, 7, seed=42) != sample_negatives(pool, 7, seed=43)

    def test_prefix_property(self):
        pool = [f"c{i}" for i in range(20)]
        for seed in range(25):
            for n in range(1, 19):
                assert sample_negatives(pool, n + 1, seed)[:n] == sample_negatives(pool, n, seed)

    def test_uniform_within_3_sigma(self):
        pool = list(range(10))
        counts = np.zeros(10)
        draws = 100_000
        for seed in range(draws):
            counts[sample_negatives(pool, 1, seed)[0]] += 1
        expected = draws / 10
        sigma = math.sqrt(draws * 0.1 * 0.9)
        assert np.abs(counts - expected).max() <= 3 * sigma

    def test_empty_pool(self):
        assert sample_negatives([], 4, seed=0) == []


def test_censored_log():
    assert censored_log(0, 1) == 0.0
    assert censored_log(1, 1) == 0.0
    assert censored_log(math.e**2, 1) == pytest.approx(2.0)


class TestFeatures:
    def test_isolated_cg_candidate_mostly_zero(self):
        g = build([], extra_nodes={"a": 0, "b": 0})
        directory = AuthorDirectory([UpdateEvent("b", "s", "u1", 0, "CG")])
        vec = build_features("a", "b", 10, g, directory)
        names = feature_names()
        by = dict(zip(names, vec))
        assert by["censored_log_target_outdegree"] == 0.0
        assert by["target_has_indegree"] == 0.0
        assert by["is_reciprocal"] == 0.0
        assert by["is_weakly_connected"] == 0.0
        assert by["is_friend_of_friend"] == 0.0
        assert by["target_author_type_mixed"] == 0.0
        assert by["target_author_type_p"] == 0.0

    def test_reciprocal_candidate(self):
        g = build([("b", "a", 5)], extra_nodes={"a": 0, "b": 0})
        vec = build_features("a", "b", 10, g, None)
        assert dict(zip(feature_names(), vec))["is_reciprocal"] == 1.0

    def test_dimensions_16_and_17(self):
        g = build([], extra_nodes={"a": 0, "b": 0})
        assert build_features("a", "b", 1, g, None).shape == (16,)
        g2 = build([], extra_nodes={"a": 0, "b": 0})
        assert build_features("a", "b", 1, g2, None, include_state=True).shape == (17,)
        assert len(FEATURE_NAMES) == 16
        assert feature_names(True)[-1] == STATE_FEATURE

    def test_unknown_candidate_rejected(self):
        g = build([], extra_nodes={"a": 0})
        with pytest.raises(ValueError):
            build_features("a", "ghost", 5, g, None)

    def test_hundred_random_triples_against_brute_force(self):
        edges, updates, directory, graph = make_world(seed=5, n_authors=10, n_edges=150)
        rng = np.random.default_rng(7)
        authors = [f"a{i}" for i in range(10)]
        conditions = {a: directory.health_condition(a) for a in authors}
        roles = {a: directory.role(a) for a in authors}
        states = {a: directory.state(a) for a in authors}
        triples = []
        for _ in range(100):
            chooser, candidate = rng.choice(authors, size=2, replace=False)
            t = int(rng.integers(60, 500))
            triples.append((str(chooser), str(candidate), t))
        triples.sort(key=lambda tr: tr[2])
        for chooser, candidate, t in triples:
            vec = build_features(chooser, candidate, t, graph, directory, include_state=True)
            by = dict(zip(feature_names(True), vec))
            prior = [(s, d) for s, d, tau in edges if tau < t]
            out_deg = len({d for s, d in prior if s == candidate})
            in_deg = len({s for s, d in prior if d == candidate})
            assert by["censored_log_target_outdegree"] == pytest.approx(math.log(max(out_deg, 1)))
            assert by["target_has_indegree"] == float(in_deg > 0)
            assert by["censored_log_target_indegree"] == pytest.approx(math.log(max(in_deg, 1)))
            assert by["is_reciprocal"] == float((candidate, chooser) in set(prior))
            comps = bfs_components(prior)
            comp_c = component_of(comps, chooser)
            assert by["is_weakly_connected"] == float(comp_c is not None and candidate in comp_c)
            und = {}
            for s, d in prior:
                und.setdefault(s, set()).add(d)
                und.setdefault(d, set()).add(s)
            fof = any(
                c not in (chooser, candidate) and c in und.get(candidate, ())
                for c in und.get(chooser, ())
            )
            assert by["is_friend_of_friend"] == float(fof)
            assert by["target_author_type_mixed"] == float(roles[candidate] == "Mixed")
            assert by["target_author_type_p"] == float(roles[candidate] == "P")
            assert by["is_author_type_shared"] == float(
                roles[candidate] is not None and roles[candidate] == roles[chooser]
            )
            assert by["is_health_condition_shared"] == float(
                conditions[candidate] is not None and conditions[candidate] == conditions[chooser]
            )
            mine = [u for u in updates if u.author_id == candidate and u.timestamp < t]
            assert by["target_update_count"] == len(mine)
            if mine:
                first = min(u.timestamp for u in mine)
                latest = max(u.timestamp for u in mine)
                tenure = max(t - first, DAY) / (DAY * 30.44)
                assert by["target_update_frequency"] == pytest.approx(len(mine) / tenure)
                assert by["target_days_since_most_recent_update"] == pytest.approx((t - latest) / DAY)
                assert by["target_days_since_first_update"] == pytest.approx((t - first) / DAY)
            assert by["is_state_assignment_shared"] == float(
                states[candidate] is not None and states[candidate] == states[chooser]
            )


class TestChoiceSetFeatures:
    @pytest.mark.parametrize("include_state", [False, True])
    def test_rows_equal_build_features(self, include_state):
        """Rows on a graph grown by appends equal one-row calls on the graph built whole.

        The times are edge times, where "strictly before" matters, and the
        degree and reciprocity columns are also checked against a scan.
        """
        edges, _, directory, whole = make_world(seed=12, n_authors=14, n_edges=160)
        split = 250
        grown = build([e for e in edges if e[2] < split], extra_nodes=directory.first_update_times())
        later = sorted((e for e in edges if e[2] >= split), key=lambda e: e[2])
        authors = [f"a{i}" for i in range(14)]
        rng = np.random.default_rng(4)
        j = 0
        for t in sorted({int(t) for t in rng.choice([e[2] for e in edges], size=30)}):
            while j < len(later) and later[j][2] < t:
                grown.append_edge(*later[j])
                j += 1
            chooser = authors[int(rng.integers(14))]
            alternatives = [authors[i] for i in rng.permutation(14)[:8]]
            X = choice_set_features(chooser, alternatives, t, grown, directory, include_state)
            assert X.shape == (8, len(feature_names(include_state)))
            prior = {(s, d) for s, d, tau in edges if tau < t}
            for row, alt in zip(X, alternatives):
                assert np.array_equal(row, build_features(chooser, alt, t, whole, directory, include_state))
                assert row[0] == censored_log(len({d for s, d in prior if s == alt}), 1.0)
                assert row[2] == censored_log(len({s for s, d in prior if d == alt}), 1.0)
                assert row[3] == float((alt, chooser) in prior)

    def test_unknown_alternative_rejected(self):
        g = build([("a", "b", 1)])
        with pytest.raises(ValueError):
            choice_set_features("a", ["b", "ghost"], 5, g, None)


class TestBuildChoiceSets:
    def test_two_author_network_skips(self):
        g = build([], extra_nodes={"a": 0, "b": 0})
        inits = extract_initiations([("a", "b", 5)])
        instances, skipped = build_choice_sets(inits, g, None, SamplerConfig(n_negatives=3, seed=0))
        assert instances == []
        assert [s.reason for s in skipped] == ["no_negatives"]

    def test_receiver_not_yet_active_skips(self):
        g = build([("a", "b", 5)])  # b activates at 5, the initiation itself
        inits = extract_initiations([("a", "b", 5)])
        _, skipped = build_choice_sets(inits, g, None, SamplerConfig(n_negatives=3, seed=0))
        assert [s.reason for s in skipped] == ["receiver_not_eligible"]

    def test_instance_count_oracle_and_determinism(self):
        edges, _, directory, graph = make_world(seed=8)
        inits = extract_initiations(edges)
        sampler = SamplerConfig(n_negatives=5, seed=11)
        instances, skipped = build_choice_sets(inits, graph, directory, sampler)
        assert len(instances) + len(skipped) == len(inits)
        assert instances, "fixture should produce instances"
        _, _, directory2, graph2 = make_world(seed=8)
        instances2, _ = build_choice_sets(inits, graph2, directory2, sampler)
        assert [i.alternatives for i in instances] == [i.alternatives for i in instances2]
        assert all(np.array_equal(a.X, b.X) for a, b in zip(instances, instances2))

    def test_chosen_is_receiver_and_member_of_eligibles(self):
        edges, _, directory, graph = make_world(seed=9)
        inits = extract_initiations(edges)
        instances, _ = build_choice_sets(inits, graph, directory, SamplerConfig(n_negatives=4, seed=2))
        by_time = {(i.chooser, i.time): i for i in instances}
        _, _, directory3, graph3 = make_world(seed=9)
        for (chooser, t), instance in sorted(by_time.items(), key=lambda kv: kv[0][1]):
            graph3.advance_to(t)
            eligible = eligible_candidates(graph3, directory3, chooser, t)
            assert instance.alternatives[instance.chosen] in eligible
            assert set(instance.alternatives) <= eligible

    def test_no_feature_leakage_on_replay(self):
        edges, _, directory, graph = make_world(seed=10)
        inits = extract_initiations(edges)
        instances, _ = build_choice_sets(inits, graph, directory, SamplerConfig(n_negatives=4, seed=3))
        _, _, directory4, fresh = make_world(seed=10)
        for instance in instances:
            fresh.advance_to(instance.time)
            X = np.vstack(
                [
                    build_features(instance.chooser, alt, instance.time, fresh, directory4)
                    for alt in instance.alternatives
                ]
            )
            assert np.array_equal(X, instance.X)


class TestPrefixSampling:
    """``build_choice_sets`` draws negatives from the graph's activation-ordered prefix."""

    DRAWS = 4000

    def negative_counts(self, edges, extra_nodes, chooser, receiver):
        initiation = next(i for i in extract_initiations(edges) if (i.initiator, i.receiver) == (chooser, receiver))
        graph = build(edges, extra_nodes=extra_nodes)
        counts = {}
        for seed in range(self.DRAWS):
            instances, skipped = build_choice_sets([initiation], graph, None, SamplerConfig(n_negatives=1, seed=seed))
            assert skipped == []
            negative = instances[0].alternatives[1]
            counts[negative] = counts.get(negative, 0) + 1
        oracle = build(edges, extra_nodes=extra_nodes)
        support = eligible_candidates(oracle, None, chooser, initiation.time) - {receiver}
        return counts, support, oracle.activated_count(initiation.time)

    def assert_uniform(self, counts, support):
        assert set(counts) == support
        p = 1 / len(support)
        sigma = math.sqrt(self.DRAWS * p * (1 - p))
        assert max(abs(counts[c] - self.DRAWS * p) for c in support) <= 3 * sigma

    def test_uniform_over_risk_set_by_rejection(self):
        nodes = {f"n{i}": 0 for i in range(10)} | {"c": 0, "late": 30}
        edges = [("n1", "n2", 3), ("n4", "c", 5), ("c", "n0", 10), ("late", "c", 30)]
        counts, support, k = self.negative_counts(edges, nodes, "c", "n0")
        assert support == {f"n{i}" for i in range(1, 10)}
        assert 2 * len(support) >= k  # few exclusions: indices are drawn and rejected
        self.assert_uniform(counts, support)

    def test_uniform_over_risk_set_by_enumeration(self):
        nodes = {f"n{i}": 0 for i in range(20)} | {"c": 0}
        edges = [("c", f"n{i}", 1 + i) for i in range(12)] + [("c", "n12", 20)]
        counts, support, k = self.negative_counts(edges, nodes, "c", "n12")
        assert support == {f"n{i}" for i in range(13, 20)}
        assert 2 * len(support) < k  # the chooser's targets fill most of the prefix
        self.assert_uniform(counts, support)

    def test_n_sample_is_prefix_of_n_plus_one_sample(self):
        edges, _, _, _ = make_world(seed=12)
        inits = extract_initiations(edges)
        previous = None
        for n in range(1, 10):
            _, _, directory, graph = make_world(seed=12)
            instances, _ = build_choice_sets(inits, graph, directory, SamplerConfig(n_negatives=n, seed=4))
            if previous is not None:
                assert [(i.chooser, i.time) for i in instances] == [(i.chooser, i.time) for i in previous]
                for small, large in zip(previous, instances):
                    assert large.alternatives[: len(small.alternatives)] == small.alternatives
                    assert len(small.alternatives) <= len(large.alternatives) <= len(small.alternatives) + 1
            previous = instances
        assert any(len(i.alternatives) < 10 for i in previous), "fixture should reach whole pools"

    def test_directory_registration_matches_extra_nodes(self):
        edges, _, directory, with_extra = make_world(seed=13)
        inits = extract_initiations(edges)
        sampler = SamplerConfig(n_negatives=4, seed=6)
        expected, expected_skipped = build_choice_sets(inits, with_extra, directory, sampler)
        got, got_skipped = build_choice_sets(inits, build(edges), directory, sampler)
        assert got_skipped == expected_skipped
        assert [i.alternatives for i in got] == [i.alternatives for i in expected]
        assert all(np.array_equal(a.X, b.X) for a, b in zip(got, expected))


class TestTemporalSplit:
    def make(self, times):
        return [
            ChoiceInstance("c", t, [0, 1], 0, np.zeros((2, 1)), ("f0",))
            for t in times
        ]

    def test_boundary_at_time_quantile(self):
        instances = self.make(range(11))
        train, test = temporal_split(instances, 0.8)
        assert [i.time for i in train] == list(range(8))
        assert [i.time for i in test] == [8, 9, 10]

    def test_all_before_boundary_empty_test(self):
        instances = self.make([0, 1, 2])
        train, test = temporal_split(instances, 0.5, window=(0, 100))
        assert len(train) == 3 and test == []

    def test_calendar_not_count_split(self):
        instances = self.make([0, 1, 2, 3, 100])
        train, test = temporal_split(instances, 0.8)
        assert [i.time for i in test] == [100]
        assert len(train) == 4

    def test_filter_oracle(self):
        rng = np.random.default_rng(11)
        times = sorted(int(t) for t in rng.integers(0, 1000, size=60))
        instances = self.make(times)
        frac = 0.7
        train, test = temporal_split(instances, frac)
        boundary = times[0] + frac * (times[-1] - times[0])
        assert [i.time for i in train] == [t for t in times if t < boundary]
        assert [i.time for i in test] == [t for t in times if t >= boundary]

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            temporal_split(self.make([1, 2]), 1.0)


class TestSynth:
    def test_same_seed_identical(self):
        config = SynthConfig(beta_true=(1.0, -0.5), n_authors=40, n_choices=60, seed=5)
        a, _ = synth_generate(config)
        b, _ = synth_generate(config)
        assert [(i.chooser, i.time, i.alternatives, i.chosen) for i in a] == [
            (i.chooser, i.time, i.alternatives, i.chosen) for i in b
        ]

    def test_zero_beta_choice_distribution_uniform(self):
        config = SynthConfig(
            beta_true=(0.0, 0.0), n_authors=60, n_choices=3000, candidate_pool_size=10, seed=7
        )
        instances, _ = synth_generate(config)
        chosen = np.array([i.chosen for i in instances if len(i.alternatives) == 10])
        counts = np.bincount(chosen, minlength=10)
        n = len(chosen)
        expected = n / 10
        sigma = math.sqrt(n * 0.1 * 0.9)
        assert np.abs(counts - expected).max() <= 3 * sigma

    def test_reciprocity_weight_raises_reciprocated_share(self):
        names = ("is_reciprocal",)
        shares = {}
        for beta in (0.0, 4.0):
            config = SynthConfig(
                beta_true=(beta,), n_authors=50, n_choices=1200,
                candidate_pool_size=10, seed=13, feature_names=names,
            )
            instances, _ = synth_generate(config)
            picked = [float(i.X[i.chosen, 0]) for i in instances]
            shares[beta] = float(np.mean(picked))
        assert shares[4.0] > shares[0.0]

    def test_instances_have_pool_size(self):
        config = SynthConfig(beta_true=(1.0, -0.5), n_authors=100, n_choices=50, candidate_pool_size=25, seed=1)
        instances, graph = synth_generate(config)
        assert all(len(i.alternatives) == 25 for i in instances)
        assert graph.n_edges > 0

    def test_recovery_smoke(self):
        config = SynthConfig(beta_true=(1.2, -0.6), n_authors=80, n_choices=800, candidate_pool_size=15, seed=3)
        instances, _ = synth_generate(config)
        fit = mnl_fit(instances)
        assert fit.converged
        assert np.all(np.abs(fit.coefficients - np.array([1.2, -0.6])) <= 3 * fit.std_errors)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(beta_true=(1.0,), feature_names=("a", "b"))
        with pytest.raises(ValueError):
            SynthConfig(beta_true=(1.0,), feature_names=("not_a_feature",))


def tied_world():
    """Whole-day times with many ties; a10..a15 only interact, so the directory lacks them."""
    rng = np.random.default_rng(21)
    authors = [f"a{i}" for i in range(16)]
    edges = []
    for _ in range(150):
        src, dst = rng.choice(16, size=2, replace=False)
        edges.append((authors[src], authors[dst], int(rng.integers(2, 14)) * DAY))
    updates = []
    for i in range(10):
        for j in range(1 + i % 4):
            site = f"s{(i + j * 3) % 6}"
            role = ["P", "CG", "unlabeled", "P"][(i + j) % 4]
            updates.append(UpdateEvent(authors[i], site, f"u{i}-{j}", int(rng.integers(0, 10)) * DAY, role))
    conditions = {f"s{j}": ["Cancer", "Injury", None, "Cancer", "Condition Unknown", "Stroke"][j] for j in range(6)}
    geo = [(authors[i], k, ["MN", "WI"][i % 2]) for i in range(0, 16, 3) for k in range(12)]
    directory = AuthorDirectory(updates, site_conditions=conditions, geo_posts=geo)
    return edges, updates, directory, build(edges, extra_nodes=directory.first_update_times())


def scan_features(edges, updates, directory, chooser, candidate, t, include_state):
    """One feature row from full scans: the activity columns from the update
    rows in Python ints, the other directory columns from its public lookups."""
    t = int(t)
    first = {}
    for src, dst, tau in edges:
        first[(src, dst)] = min(first.get((src, dst), tau), tau)
    prior = {pair for pair, tau in first.items() if tau < t}
    outs = {d for s, d in prior if s == candidate}
    ins = {s for s, d in prior if d == candidate}

    def neighbours(x):
        return {d for s, d in prior if s == x} | {s for s, d in prior if d == x}

    component = component_of(bfs_components(prior), chooser)
    role, chooser_role = directory.role(candidate), directory.role(chooser)
    condition, chooser_condition = directory.health_condition(candidate), directory.health_condition(chooser)
    before = [u for u in updates if u.timestamp < t]
    mine = [u for u in before if u.author_id == candidate]
    my_sites = {u.site_id for u in mine}
    activity = [0.0] * 6
    if mine:
        earliest, latest = min(u.timestamp for u in mine), max(u.timestamp for u in mine)
        activity = [
            float(len(my_sites) >= 2),
            float(any(len({v.author_id for v in before if v.site_id == s}) >= 2 for s in my_sites)),
            float(len(mine)),
            len(mine) / (max(t - earliest, 86_400.0) / (86_400.0 * 30.44)),
            (t - latest) / 86_400.0,
            (t - earliest) / 86_400.0,
        ]
    row = [
        censored_log(len(outs), 1.0),
        float(len(ins) > 0),
        censored_log(len(ins), 1.0),
        float((candidate, chooser) in prior),
        float(candidate == chooser or (component is not None and candidate in component)),
        float(bool(neighbours(candidate) & neighbours(chooser))),
        float(role == "Mixed"),
        float(role == "P"),
        float(role is not None and role == chooser_role),
        float(condition is not None and condition == chooser_condition),
        *activity,
    ]
    if include_state:
        state = directory.state(candidate)
        row.append(float(state is not None and state == directory.state(chooser)))
    return np.array(row)


class TestFeatureKernel:
    @pytest.mark.parametrize("include_state", [False, True])
    def test_build_choice_sets_rows_equal_scan(self, include_state):
        edges, updates, directory, graph = tied_world()
        inits = extract_initiations(edges)
        instances, _ = build_choice_sets(inits, graph, directory, SamplerConfig(n_negatives=6, seed=3), include_state)
        assert len(instances) > 40
        alternatives = [a for inst in instances for a in inst.alternatives]
        assert any(a not in directory for a in alternatives), "some candidates must lack a directory entry"
        assert {inst.time for inst in instances} <= {d * DAY for d in range(20)}
        for inst in instances:
            for row, alt in zip(inst.X, inst.alternatives):
                expected = scan_features(edges, updates, directory, inst.chooser, alt, inst.time, include_state)
                assert np.array_equal(row, expected), (inst.chooser, alt, inst.time)

    def test_blocks_of_one_set_equal_one_block(self, monkeypatch):
        runs = []
        for block_rows in (1, 10**9):
            monkeypatch.setattr(choices_module, "_BLOCK_ROWS", block_rows)
            edges, _, directory, graph = tied_world()
            runs.append(build_choice_sets(extract_initiations(edges), graph, directory, SamplerConfig(5, seed=9), True))
        (one, skipped_one), (whole, skipped_whole) = runs
        assert len(one) > 40 and skipped_one == skipped_whole
        assert [i.alternatives for i in one] == [i.alternatives for i in whole]
        assert all(np.array_equal(a.X, b.X) for a, b in zip(one, whole))

    def test_large_times_match_python_ints(self):
        """Times near -2**62 and 2**62: differences past 2**53, and t minus
        the first update past the int64 maximum, agree with Python ints."""
        big = 2**62
        vocab = LogVocab()
        rows = [("c", "s1", -big - 7), ("x", "s1", -big - 3), ("x", "s2", -big + 3 * DAY + 11), ("x", "s1", big - 5)]
        log = UpdateLog(
            vocab,
            np.array([vocab.authors.code(a) for a, _, _ in rows], dtype=np.int32),
            np.array([vocab.sites.code(s) for _, s, _ in rows], dtype=np.int32),
            np.array([vocab.updates.code(f"u{i}") for i in range(len(rows))], dtype=np.int32),
            np.array([t for _, _, t in rows], dtype=np.int64),
            np.array([1, 2, 2, 1], dtype=np.int8),
        )
        directory = AuthorDirectory(log)
        c, x, y = 0, 1, vocab.authors.code("y")
        graph = build([(x, c, -big + 100), (y, x, big - 100)], extra_nodes=directory.first_update_times())
        times = [u for _, _, u in rows]
        for t in (-big + 101, -big + 2**54, big - 99, big + 12_345, 2**63 - 1):
            row = build_features(c, x, t, graph, directory)
            before = [u for u in times[1:] if u < t]
            first, latest = min(before), max(before)
            assert t < 0 or t - first > 2**53
            act = directory.activity_features(x, t)
            assert row[12] == len(before) == act.update_count
            assert row[13] == len(before) / (max(t - first, 86_400.0) / (86_400.0 * 30.44)) == act.update_frequency
            assert row[14] == (t - latest) / 86_400.0 == act.days_since_most_recent_update
            assert row[15] == (t - first) / 86_400.0 == act.days_since_first_update
            assert row[3] == 1.0 and row[4] == 1.0
            assert row[1] == float(t > big - 100)
        assert 2**63 - 1 - (-big - 3) > np.iinfo(np.int64).max

    def test_writer_matches_json_dumps(self, tmp_path):
        values = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 0.1 + 0.2, 1.0, -1.5, 1e-7, 123456789.125]
        X = np.array(values * 2, dtype=np.float64).reshape(4, 5)
        instances = [
            ChoiceInstance("a", 7, ["b", "c", "d", "e"], 2, X, tuple("fghij")),
            ChoiceInstance("b", 9, ["a", "c"], 0, X[:2, ::-1] * -1.0, tuple("fghij")),
            ChoiceInstance("c", 11, ["a", "b"], 1, np.zeros((2, 0)), ()),
        ]
        meta = {"n": 1, "note": "é"}
        for label, name in ((None, lambda a: a), (str.upper, str.upper)):
            path = tmp_path / "choices.jsonl"
            write_choice_sets(path, instances, meta=meta, label=label)
            expected = json.dumps({"meta": meta}, sort_keys=True) + "\n" + "".join(
                json.dumps(
                    {
                        "chooser": name(inst.chooser),
                        "time": inst.time,
                        "alternatives": [name(a) for a in inst.alternatives],
                        "chosen": inst.chosen,
                        "X": inst.X.tolist(),
                        "feature_names": list(inst.feature_names),
                    },
                    sort_keys=True,
                )
                + "\n"
                for inst in instances
            )
            assert path.read_bytes() == expected.encode()
        assert '"X": [[-0.0, 0.0, 5e-324' in path.read_text()
        read, _ = read_choice_sets(path)
        assert all(np.array_equal(a.X, b.X) for a, b in zip(read, instances))
        assert math.copysign(1.0, read[0].X[0, 0]) == -1.0


class TestInt64Times:
    """Feature queries take int64 times, as append_edge does: a float is a
    TypeError, a time past int64 an OverflowError, and a refused query
    leaves the cursor where it was."""

    @pytest.mark.parametrize(
        "t, error",
        [(6.5, TypeError), (np.float64(7.0), TypeError), (2**70, OverflowError), (-(2**70), OverflowError),
         (2**63, OverflowError)],
    )
    def test_refused_time_keeps_the_cursor(self, t, error):
        g = build([("a", "b", 6), ("c", "d", 1)])
        for query in (
            lambda: choice_set_features("a", ["b", "d"], t, g, None),
            lambda: build_features("b", "a", t, g, None),
        ):
            with pytest.raises(error):
                query()
            assert g.cursor == -math.inf
        g.advance_to(3)
        with pytest.raises(error):
            build_features("b", "a", t, g, None)
        assert g.cursor == 3

    def test_numpy_int_times_equal_python_ints(self):
        edges, _, directory, _ = tied_world()
        for t in (2 * DAY, 5 * DAY + 1, 13 * DAY):
            rows = []
            for time in (t, np.int64(t), np.int32(t)):
                graph = build(edges, extra_nodes=directory.first_update_times())
                rows.append(choice_set_features("a0", ["a1", "a2", "a11"], time, graph, directory, True))
                assert graph.cursor == t
            assert all(np.array_equal(row, rows[0]) for row in rows)
