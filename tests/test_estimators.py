import math

import numpy as np
import pytest
import scipy.stats

from netchoice.choices import ChoiceInstance
from netchoice.estimators import (
    FitResult,
    IdentifiabilityError,
    NonNestedError,
    RankDeficiencyError,
    SeparationError,
    SingularHessianError,
    design_matrix,
    f_test_nested,
    logistic_fit,
    lr_test_nested,
    mnl_accuracy,
    mnl_fit,
    mnl_gradient,
    mnl_hessian,
    mnl_loglik,
    mnl_probabilities,
    odds_ratio,
    ols_fit,
)


def inst(X, chosen=0, names=None):
    X = np.asarray(X, dtype=float)
    names = names if names is not None else tuple(f"f{j}" for j in range(X.shape[1]))
    return ChoiceInstance(
        chooser="c", time=0, alternatives=list(range(X.shape[0])), chosen=chosen, X=X, feature_names=names
    )


def random_instances(rng, n_instances=30, n_alt=4, p=3, beta=None):
    out = []
    for _ in range(n_instances):
        X = rng.normal(size=(n_alt, p))
        if beta is None:
            chosen = int(rng.integers(n_alt))
        else:
            u = X @ beta
            prob = np.exp(u - u.max())
            prob /= prob.sum()
            chosen = int(rng.choice(n_alt, p=prob))
        out.append(inst(X, chosen=chosen))
    return out


def naive_loglik(beta, instances):
    total = 0.0
    for i in instances:
        u = i.X @ beta
        total += math.log(math.exp(u[i.chosen]) / np.exp(u).sum())
    return total


def fd_gradient(f, beta, h=1e-5):
    g = np.zeros_like(beta)
    for j in range(len(beta)):
        step = np.zeros_like(beta)
        step[j] = h
        g[j] = (f(beta + step) - f(beta - step)) / (2 * h)
    return g


class TestMnlLoglik:
    def test_zero_beta_two_binary_instances(self):
        instances = [inst([[1.0], [0.0]]), inst([[0.5], [2.0]])]
        assert mnl_loglik(np.zeros(1), instances) == pytest.approx(-2 * math.log(2))

    def test_analytic_softmax(self):
        instances = [inst([[1.0], [0.0]], chosen=0)]
        assert mnl_loglik(np.array([math.log(3.0)]), instances) == pytest.approx(math.log(0.75))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        instances = random_instances(rng, n_instances=25)
        for _ in range(10):
            beta = rng.normal(size=3)
            assert mnl_loglik(beta, instances) == pytest.approx(naive_loglik(beta, instances), rel=1e-12)

    def test_stable_under_large_utilities(self):
        instances = [inst([[600.0], [0.0]], chosen=0)]
        value = mnl_loglik(np.ones(1), instances)
        assert math.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-12)


class TestMnlDerivatives:
    def test_gradient_zero_for_identical_alternatives(self):
        instances = [inst([[1.0, 2.0], [1.0, 2.0]]), inst([[0.3, -1.0], [0.3, -1.0]])]
        assert np.allclose(mnl_gradient(np.zeros(2), instances), 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        instances = random_instances(rng, n_instances=20)
        for _ in range(5):
            beta = rng.normal(size=3)
            g = mnl_gradient(beta, instances)
            fd = fd_gradient(lambda b: mnl_loglik(b, instances), beta)
            rel = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-6

    def test_hessian_negative_semidefinite(self):
        rng = np.random.default_rng(2)
        instances = random_instances(rng, n_instances=15)
        H = mnl_hessian(rng.normal(size=3), instances)
        for _ in range(100):
            v = rng.normal(size=3)
            assert v @ H @ v <= 1e-10

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(3)
        instances = random_instances(rng, n_instances=10)
        beta = rng.normal(size=3) * 0.5
        H = mnl_hessian(beta, instances)
        fd_H = np.column_stack(
            [fd_gradient(lambda b: mnl_gradient(b, instances)[j], beta) for j in range(3)]
        )
        assert np.allclose(H, fd_H, atol=1e-5)


class TestMnlFit:
    def test_closed_form_log3(self):
        base = [[1.0], [0.0]]
        instances = [inst(base, chosen=0) for _ in range(3)] + [inst(base, chosen=1)]
        fit = mnl_fit(instances)
        assert fit.converged
        assert fit.iterations <= 10
        assert fit.coefficients[0] == pytest.approx(math.log(3.0), abs=1e-6)

    def test_duplicated_instances_shrink_se_by_sqrt2(self):
        rng = np.random.default_rng(4)
        instances = random_instances(rng, n_instances=40, beta=np.array([0.8, -0.3, 0.1]))
        fit_once = mnl_fit(instances)
        fit_twice = mnl_fit(instances + instances)
        assert np.allclose(fit_once.coefficients, fit_twice.coefficients, atol=1e-7)
        assert np.allclose(fit_once.std_errors / fit_twice.std_errors, math.sqrt(2.0), atol=1e-6)

    def test_simulated_recovery_within_3_se(self):
        rng = np.random.default_rng(5)
        beta_true = np.array([1.0, -0.5, 0.25])
        instances = random_instances(rng, n_instances=4000, n_alt=5, beta=beta_true)
        fit = mnl_fit(instances)
        assert fit.converged
        assert np.all(np.abs(fit.coefficients - beta_true) <= 3 * fit.std_errors)

    def test_identifiability_precheck_names_feature(self):
        instances = [inst([[1.0, 5.0], [0.0, 5.0]]), inst([[0.5, 2.0], [1.5, 2.0]])]
        with pytest.raises(IdentifiabilityError) as err:
            mnl_fit(instances)
        assert "f1" in str(err.value)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_separating_feature_raises(self, sign):
        rng = np.random.default_rng(7)
        instances = []
        for _ in range(200):
            chosen = int(rng.integers(5))
            sep = np.zeros(5)
            sep[chosen] = sign
            X = np.column_stack([sep, rng.normal(size=5)])
            instances.append(inst(X, chosen=chosen, names=("sep", "noise")))
        with pytest.raises(SeparationError) as err:
            mnl_fit(instances)
        assert "sep" in str(err.value) and "noise" not in str(err.value)

    def test_loglik_nondecreasing_over_iterations(self):
        rng = np.random.default_rng(6)
        instances = random_instances(rng, n_instances=50, beta=np.array([2.0, -1.0, 0.5]))
        fit = mnl_fit(instances)
        assert fit.loglik >= mnl_loglik(np.zeros(3), instances)


def mnl_exit_fit(duplicate=False, **kwargs):
    instances = random_instances(np.random.default_rng(21), n_instances=60, beta=np.array([1.0, -0.5, 0.25]))
    if duplicate:
        instances = [inst(np.column_stack([i.X, i.X[:, 0]]), chosen=i.chosen) for i in instances]
    return mnl_fit(instances, **kwargs)


def logistic_exit_fit(duplicate=False, **kwargs):
    rng = np.random.default_rng(22)
    x = rng.normal(size=200)
    y = (rng.uniform(size=200) < 1.0 / (1.0 + np.exp(x - 0.5))).astype(float)
    X = np.column_stack([np.ones(200), x] + [x] * duplicate)
    return logistic_fit(X, y, **kwargs)


@pytest.mark.parametrize("fit", [mnl_exit_fit, logistic_exit_fit], ids=["mnl", "logistic"])
class TestNewtonExits:
    """Each way out of the shared Newton loop, for both likelihood fits."""

    def test_gradient_within_tol_at_zero_takes_no_step(self, fit):
        result = fit(tol=1e3)
        assert result.converged and result.iterations == 0
        assert not result.coefficients.any()

    def test_iteration_cap_reports_unconverged(self, fit):
        assert fit().iterations > 1
        result = fit(max_iter=1)
        assert not result.converged and result.iterations == 1
        assert result.coefficients.any()

    def test_duplicated_column_is_a_singular_hessian(self, fit):
        with pytest.raises(SingularHessianError) as err:
            fit(duplicate=True)
        assert err.value.condition_number > 1e15


class TestProbabilities:
    def test_rows_sum_to_one_and_open_interval(self):
        rng = np.random.default_rng(7)
        instances = random_instances(rng, n_instances=20)
        table = mnl_probabilities(rng.normal(size=3), instances)
        for probs in table.probabilities:
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0) and np.all(probs < 1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(4, 2))
        shifted = base + np.array([3.7, 0.0])  # constant added to one feature of all alternatives
        beta = rng.normal(size=2)
        p1 = mnl_probabilities(beta, [inst(base)]).probabilities[0]
        p2 = mnl_probabilities(beta, [inst(shifted)]).probabilities[0]
        assert np.allclose(p1, p2, atol=1e-12)


class TestAccuracy:
    def test_single_correct(self):
        fit = np.array([1.0])
        assert mnl_accuracy(fit, [inst([[2.0], [1.0]], chosen=0)]) == 1.0

    def test_zero_beta_all_ties_scores_zero(self):
        rng = np.random.default_rng(9)
        instances = random_instances(rng, n_instances=10)
        assert mnl_accuracy(np.zeros(3), instances) == 0.0

    def test_hand_built_two_thirds(self):
        beta = np.array([1.0])
        instances = [
            inst([[2.0], [0.0]], chosen=0),   # correct
            inst([[0.0], [2.0]], chosen=1),   # correct
            inst([[0.0], [2.0]], chosen=0),   # wrong
        ]
        assert mnl_accuracy(beta, instances) == pytest.approx(2 / 3)

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(10)
        instances = random_instances(rng, n_instances=30, beta=np.array([1.0, -1.0, 0.2]))
        beta = rng.normal(size=3)
        assert mnl_accuracy(beta, instances) == mnl_accuracy(4.2 * beta, instances)


def test_odds_ratio():
    assert odds_ratio(0.0) == 1.0
    assert odds_ratio(math.log(2.0)) == pytest.approx(2.0)
    assert odds_ratio(2.723) == pytest.approx(15.227, abs=5e-3)


class TestLogistic:
    def test_intercept_only_balanced(self):
        X = np.ones((40, 1))
        y = np.array([0.0, 1.0] * 20)
        fit = logistic_fit(X, y)
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-10)
        assert fit.converged

    def test_perfect_separation_detected(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=300)
        X = np.column_stack([np.ones(300), x])
        y = (x > 0).astype(float)
        with pytest.raises(SeparationError):
            logistic_fit(X, y)

    def test_simulation_recovery_within_3_se(self):
        rng = np.random.default_rng(12)
        n = 20_000
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x])
        beta_true = np.array([0.5, -1.0])
        prob = 1.0 / (1.0 + np.exp(-(X @ beta_true)))
        y = (rng.uniform(size=n) < prob).astype(float)
        fit = logistic_fit(X, y, feature_names=("(intercept)", "x"))
        assert fit.converged
        assert np.all(np.abs(fit.coefficients - beta_true) <= 3 * fit.std_errors)

    def test_interaction_column_support(self):
        rng = np.random.default_rng(13)
        n = 5000
        a = rng.normal(size=n)
        b = rng.integers(0, 2, size=n).astype(float)
        eta = 0.3 + 0.5 * a - 0.8 * b + 1.1 * a * b
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-eta))).astype(float)
        X, names = design_matrix({"a": a, "b": b}, ["a", "b", "a:b"])
        fit = logistic_fit(X, y, feature_names=names)
        assert names == ("(intercept)", "a", "b", "a:b")
        assert np.all(np.abs(fit.coefficients - np.array([0.3, 0.5, -0.8, 1.1])) <= 3.5 * fit.std_errors)

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            logistic_fit(np.ones((4, 1)), np.array([0.0, 1.0, 2.0, 0.0]))


class TestOls:
    def test_exact_linear_fit(self):
        x = np.linspace(0, 1, 25)
        X = np.column_stack([np.ones(25), x])
        y = 2.0 + 3.0 * x
        fit = ols_fit(X, y)
        assert np.abs(y - X @ fit.coefficients).max() <= 1e-10
        assert fit.r_squared == pytest.approx(1.0)

    def test_intercept_only_mean(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        fit = ols_fit(np.ones((4, 1)), y)
        assert fit.coefficients[0] == pytest.approx(y.mean())

    def test_interaction_prediction_arithmetic(self):
        # Prediction from a published-style interaction model: intercept,
        # role dummies, slope, and role-specific slope adjustments.
        names = ("(intercept)", "role_mixed", "role_p", "active_months", "active_months:role_mixed", "active_months:role_p")
        coef = np.array([-6.2153, -0.6622, -0.8250, 0.9348, 0.0049, -0.0195])
        fit = FitResult(
            feature_names=names, coefficients=coef, std_errors=np.zeros(6),
            loglik=0.0, n_obs=0, n_params=6, converged=True, iterations=0, kind="ols",
        )
        row = np.array([1.0, 0.0, 1.0, 10.0, 0.0, 10.0])
        assert row @ fit.coefficients == pytest.approx(2.1127, abs=1e-10)

    def test_rank_deficiency_names_columns(self):
        x = np.arange(10.0)
        X = np.column_stack([np.ones(10), x, 2 * x])
        with pytest.raises(RankDeficiencyError) as err:
            ols_fit(X, np.arange(10.0), feature_names=("c", "x", "x2"))
        assert "x2" in str(err.value)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(14)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 3))])
        y = X @ np.array([1.0, 0.5, -0.25, 2.0]) + rng.normal(size=200)
        fit = ols_fit(X, y)
        resid = y - X @ fit.coefficients
        assert np.abs(X.T @ resid).max() < 1e-8

    def test_se_matches_scipy_linregress(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=100)
        y = 1.0 + 2.0 * x + rng.normal(size=100)
        fit = ols_fit(np.column_stack([np.ones(100), x]), y)
        ref = scipy.stats.linregress(x, y)
        assert fit.coefficients[1] == pytest.approx(ref.slope, rel=1e-12)
        assert fit.std_errors[1] == pytest.approx(ref.stderr, rel=1e-10)


class TestNestedTests:
    def fit_pair(self, rng, n=60, noise_only=True):
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = 1.0 + 0.8 * x1 + rng.normal(size=n)
        if not noise_only:
            y = y + 0.9 * x2
        full = ols_fit(np.column_stack([np.ones(n), x1, x2]), y, feature_names=("c", "x1", "x2"))
        reduced = ols_fit(np.column_stack([np.ones(n), x1]), y, feature_names=("c", "x1"))
        return full, reduced

    def test_identical_models(self):
        rng = np.random.default_rng(16)
        full, _ = self.fit_pair(rng)
        result = f_test_nested(full, full)
        assert result.statistic == 0.0 and result.p_value == 1.0

    def test_hand_computed_fixture(self):
        x1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
        x2 = np.array([1.0, 0.0, 2.0, 1.0, 3.0, 0.0, 4.0, 1.0, 5.0, 2.0])
        y = np.array([1.2, 1.9, 3.4, 3.1, 5.6, 4.9, 7.4, 6.8, 9.3, 8.1])
        full = ols_fit(np.column_stack([np.ones(10), x1, x2]), y, feature_names=("c", "x1", "x2"))
        reduced = ols_fit(np.column_stack([np.ones(10), x1]), y, feature_names=("c", "x1"))
        # Independent RSS computation through lstsq.
        rss_f = float(np.sum((y - np.column_stack([np.ones(10), x1, x2]) @ np.linalg.lstsq(
            np.column_stack([np.ones(10), x1, x2]), y, rcond=None)[0]) ** 2))
        rss_r = float(np.sum((y - np.column_stack([np.ones(10), x1]) @ np.linalg.lstsq(
            np.column_stack([np.ones(10), x1]), y, rcond=None)[0]) ** 2))
        expected_f = ((rss_r - rss_f) / 1) / (rss_f / 7)
        result = f_test_nested(full, reduced)
        assert result.statistic == pytest.approx(expected_f, abs=1e-8)
        assert result.df == (1, 7)

    def test_noise_column_p_values_uniform(self):
        rng = np.random.default_rng(17)
        pvals = []
        for _ in range(300):
            full, reduced = self.fit_pair(rng, n=40)
            pvals.append(f_test_nested(full, reduced).p_value)
        ks = scipy.stats.kstest(pvals, "uniform")
        assert ks.pvalue > 0.01

    def test_non_nested_rejected(self):
        rng = np.random.default_rng(18)
        full, reduced = self.fit_pair(rng)
        with pytest.raises(NonNestedError):
            f_test_nested(reduced, full)  # swapped: "full" has larger RSS

    def test_lr_identical_models(self):
        rng = np.random.default_rng(19)
        instances = random_instances(rng, n_instances=30, beta=np.array([0.5, -0.5, 0.0]))
        fit = mnl_fit(instances)
        result = lr_test_nested(fit, fit)
        assert result.statistic == 0.0 and result.p_value == 1.0

    def test_lr_chi2_quantile(self):
        full = FitResult(("a", "b"), np.zeros(2), np.zeros(2), loglik=-10.0, n_obs=50,
                         n_params=2, converged=True, iterations=1, kind="logistic")
        reduced = FitResult(("a",), np.zeros(1), np.zeros(1), loglik=-10.0 - 3.841 / 2, n_obs=50,
                            n_params=1, converged=True, iterations=1, kind="logistic")
        result = lr_test_nested(full, reduced)
        assert result.statistic == pytest.approx(3.841)
        assert result.p_value == pytest.approx(0.05, abs=1e-4)

    def test_lr_noise_feature_uniform(self):
        rng = np.random.default_rng(20)
        pvals = []
        for _ in range(200):
            n = 400
            x = rng.normal(size=n)
            noise = rng.normal(size=n)
            y = (rng.uniform(size=n) < 1 / (1 + np.exp(-0.5 * x))).astype(float)
            full = logistic_fit(np.column_stack([np.ones(n), x, noise]), y, feature_names=("c", "x", "z"))
            reduced = logistic_fit(np.column_stack([np.ones(n), x]), y, feature_names=("c", "x"))
            pvals.append(lr_test_nested(full, reduced).p_value)
        assert scipy.stats.kstest(pvals, "uniform").pvalue > 0.01


class TestFitResultOutput:
    def test_json_round_trip(self):
        fit = FitResult(
            feature_names=("a", "b"),
            coefficients=np.array([1.5, -0.2]),
            std_errors=np.array([0.1, 0.4]),
            loglik=-12.5,
            n_obs=100,
            n_params=2,
            converged=True,
            iterations=4,
            kind="mnl",
        )
        back = FitResult.from_json_dict(fit.to_json_dict())
        assert back.feature_names == fit.feature_names
        assert np.allclose(back.coefficients, fit.coefficients)
        assert back.loglik == fit.loglik

    def test_text_table_stars(self):
        fit = FitResult(
            feature_names=("strong", "weak"),
            coefficients=np.array([1.0, 0.01]),
            std_errors=np.array([0.1, 0.5]),
            loglik=-3.0,
            n_obs=10,
            n_params=2,
            converged=True,
            iterations=2,
            kind="mnl",
        )
        table = fit.text_table()
        lines = table.splitlines()
        assert any("strong" in line and "***" in line for line in lines)
        weak_line = next(line for line in lines if "weak" in line)
        assert "*" not in weak_line
        assert "significance" in lines[-1]
