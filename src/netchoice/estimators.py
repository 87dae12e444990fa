"""Maximum-likelihood estimation with full inference output.

Three fitters share one result type: the conditional multinomial logit for
discrete-choice data and binary logistic regression, which both run one
damped-Newton solver (``_newton``: exact gradient and information, steps
halved until the log-likelihood does not fall), and ordinary least squares
(QR). Standard errors come from the observed information at the optimum. Nested
models compare through an F test (OLS) or a likelihood-ratio test, with tail
probabilities from the in-package incomplete beta/gamma routines.

All fits are deterministic: no randomness enters the estimators themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .special import chi2_sf, f_sf, normal_sf_two_sided, t_sf_two_sided


class NumericalError(RuntimeError):
    """Base class for numerical estimation failures."""


class IdentifiabilityError(NumericalError):
    """A feature carries no within-choice-set variation anywhere."""


class SingularHessianError(NumericalError):
    """The (negated) Hessian cannot be inverted."""

    def __init__(self, message, condition_number=None):
        if condition_number is not None:
            message = f"{message} (condition number {condition_number:.3e})"
        super().__init__(message)
        self.condition_number = condition_number


class SeparationError(NumericalError):
    """The data separate the outcomes, so coefficients diverge and no finite MLE exists."""


class RankDeficiencyError(NumericalError):
    """The design matrix has linearly dependent columns."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"rank-deficient design; dependent columns: {', '.join(map(str, self.columns))}")


class NonNestedError(ValueError):
    """The two models are not nested (or the fit violated nesting numerically)."""


STAR_THRESHOLDS = ((0.001, "***"), (0.01, "**"), (0.05, "*"))


def significance_stars(p: float) -> str:
    for threshold, stars in STAR_THRESHOLDS:
        if p < threshold:
            return stars
    return ""


@dataclass
class FitResult:
    """Coefficients, standard errors, and diagnostics for one fitted model."""

    feature_names: tuple
    coefficients: np.ndarray
    std_errors: np.ndarray
    loglik: float
    n_obs: int
    n_params: int
    converged: bool
    iterations: int
    kind: str = "mnl"
    rss: float | None = None
    r_squared: float | None = None
    f_statistic: float | None = None
    df: tuple | None = None
    extra: dict = field(default_factory=dict)

    def p_values(self) -> np.ndarray:
        """Two-sided coefficient p-values: t tails for OLS, normal otherwise."""
        out = np.empty(len(self.coefficients))
        for j, (b, se) in enumerate(zip(self.coefficients, self.std_errors)):
            if se <= 0 or not math.isfinite(se):
                out[j] = float("nan")
                continue
            z = b / se
            if self.kind == "ols" and self.df is not None:
                out[j] = t_sf_two_sided(z, self.df[1])
            else:
                out[j] = normal_sf_two_sided(z)
        return out

    def to_json_dict(self) -> dict:
        def clean(x):
            if x is None:
                return None
            x = float(x)
            return x if math.isfinite(x) else None

        out = {
            "feature_names": list(self.feature_names),
            "coefficients": [clean(b) for b in self.coefficients],
            "std_errors": [clean(s) for s in self.std_errors],
            "loglik": clean(self.loglik),
            "n_obs": self.n_obs,
            "converged": self.converged,
            "iterations": self.iterations,
            "kind": self.kind,
        }
        if self.rss is not None:
            out["rss"] = clean(self.rss)
        if self.r_squared is not None:
            out["r_squared"] = clean(self.r_squared)
        if self.f_statistic is not None:
            out["f_statistic"] = clean(self.f_statistic)
        if self.df is not None:
            out["df"] = list(self.df)
        out.update(self.extra)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FitResult":
        known = {f.name for f in fields(cls)} - {"n_params", "extra"}
        coeffs = np.asarray(obj["coefficients"], dtype=np.float64)
        loglik = obj.get("loglik")
        return cls(
            feature_names=tuple(obj["feature_names"]),
            coefficients=coeffs,
            std_errors=np.asarray(obj["std_errors"], dtype=np.float64),
            loglik=float("nan") if loglik is None else float(loglik),
            n_obs=int(obj["n_obs"]),
            n_params=len(coeffs),
            converged=bool(obj["converged"]),
            iterations=int(obj["iterations"]),
            kind=obj.get("kind", "mnl"),
            rss=obj.get("rss"),
            r_squared=obj.get("r_squared"),
            f_statistic=obj.get("f_statistic"),
            df=tuple(obj["df"]) if obj.get("df") is not None else None,
            extra={k: v for k, v in obj.items() if k not in known},
        )

    def text_table(self) -> str:
        """Aligned coefficient table with significance stars (0.05/0.01/0.001)."""
        pvals = self.p_values()
        width = max([len(str(n)) for n in self.feature_names] + [8])
        lines = [f"{'feature'.ljust(width)}  {'estimate':>12}  {'std.err':>10}"]
        for name, b, se, p in zip(self.feature_names, self.coefficients, self.std_errors, pvals):
            stars = "" if math.isnan(p) else significance_stars(p)
            lines.append(f"{str(name).ljust(width)}  {b:12.4f}{stars:<3}  ({se:.4f})")
        lines.append("")
        lines.append(f"observations      {self.n_obs}")
        if self.rss is not None:
            lines.append(f"residual ss       {self.rss:.6g}")
        if self.r_squared is not None:
            lines.append(f"r-squared         {self.r_squared:.4f}")
        if math.isfinite(self.loglik):
            lines.append(f"log-likelihood    {self.loglik:.4f}")
        lines.append(f"converged         {self.converged} ({self.iterations} iterations)")
        lines.append("significance: * p<0.05, ** p<0.01, *** p<0.001")
        return "\n".join(lines) + "\n"


@dataclass
class TestResult:
    """A nested-model test statistic with its degrees of freedom and p-value."""

    statistic: float
    df: tuple
    p_value: float
    kind: str

    def to_json_dict(self) -> dict:
        return {"statistic": self.statistic, "df": list(self.df), "p_value": self.p_value, "kind": self.kind}


@dataclass
class ProbabilityTable:
    """Per-instance alternative utilities and choice probabilities."""

    utilities: list
    probabilities: list


# -- conditional multinomial logit --------------------------------------------


class _Packed:
    """Choice instances flattened into one row-stacked design."""

    __slots__ = ("X", "starts", "seg_ids", "chosen_rows", "n_instances", "feature_names")

    def __init__(self, instances):
        if not instances:
            raise ValueError("no choice instances")
        names = tuple(instances[0].feature_names)
        blocks = []
        starts = []
        chosen_rows = []
        offset = 0
        for inst in instances:
            if tuple(inst.feature_names) != names:
                raise ValueError("instances disagree on feature names")
            X = np.asarray(inst.X, dtype=np.float64)
            blocks.append(X)
            starts.append(offset)
            chosen_rows.append(offset + inst.chosen)
            offset += X.shape[0]
        self.X = np.concatenate(blocks, axis=0)
        self.starts = np.array(starts, dtype=np.intp)
        self.chosen_rows = np.array(chosen_rows, dtype=np.intp)
        self.n_instances = len(instances)
        self.feature_names = names
        sizes = np.diff(np.append(self.starts, self.X.shape[0]))
        self.seg_ids = np.repeat(np.arange(self.n_instances), sizes)

    def segment_logsumexp(self, u):
        m = np.maximum.reduceat(u, self.starts)
        z = np.add.reduceat(np.exp(u - m[self.seg_ids]), self.starts)
        return m, z

    def probabilities(self, beta):
        u = self.X @ beta
        m, z = self.segment_logsumexp(u)
        return np.exp(u - m[self.seg_ids]) / z[self.seg_ids], u


def _as_packed(instances) -> _Packed:
    return instances if isinstance(instances, _Packed) else _Packed(list(instances))


def mnl_loglik(beta, instances) -> float:
    """Conditional-logit log-likelihood (max-subtracted for overflow safety)."""
    packed = _as_packed(instances)
    beta = np.asarray(beta, dtype=np.float64)
    u = packed.X @ beta
    m, z = packed.segment_logsumexp(u)
    return float(np.sum(u[packed.chosen_rows] - m - np.log(z)))


def _mnl_terms(packed: _Packed, beta) -> tuple[np.ndarray, np.ndarray]:
    """Score and information (-H) at ``beta`` from one probability pass."""
    p, _ = packed.probabilities(np.asarray(beta, dtype=np.float64))
    gradient = packed.X[packed.chosen_rows].sum(axis=0) - packed.X.T @ p
    weighted = packed.X * p[:, None]
    xbar = np.add.reduceat(weighted, packed.starts, axis=0)
    return gradient, packed.X.T @ weighted - xbar.T @ xbar


def mnl_gradient(beta, instances) -> np.ndarray:
    """Score vector: sum of (chosen features - probability-weighted mean)."""
    return _mnl_terms(_as_packed(instances), beta)[0]


def mnl_hessian(beta, instances) -> np.ndarray:
    """Observed Hessian of the log-likelihood (negative semidefinite)."""
    return -_mnl_terms(_as_packed(instances), beta)[1]


def mnl_probabilities(beta, instances) -> ProbabilityTable:
    packed = _as_packed(instances)
    beta = np.asarray(beta, dtype=np.float64)
    p, u = packed.probabilities(beta)
    bounds = np.append(packed.starts, packed.X.shape[0])
    utilities = [u[bounds[i] : bounds[i + 1]] for i in range(packed.n_instances)]
    probs = [p[bounds[i] : bounds[i + 1]] for i in range(packed.n_instances)]
    return ProbabilityTable(utilities=utilities, probabilities=probs)


def _check_estimable(packed: _Packed) -> None:
    """Reject features that are flat in every choice set or separate the choices.

    Once a feature varies in some set, a chosen value that is the set's
    maximum in every set (or its minimum in every set) is strictly extremal
    somewhere, so the likelihood keeps rising along that coefficient and
    has no finite maximum.
    """
    hi = np.maximum.reduceat(packed.X, packed.starts, axis=0)
    lo = np.minimum.reduceat(packed.X, packed.starts, axis=0)
    flat = (hi - lo).max(axis=0) == 0
    if flat.any():
        names = [packed.feature_names[j] for j in np.flatnonzero(flat)]
        raise IdentifiabilityError(
            f"features constant within every choice set: {', '.join(map(str, names))}"
        )
    chosen = packed.X[packed.chosen_rows]
    separated = (chosen == hi).all(axis=0) | (chosen == lo).all(axis=0)
    if separated.any():
        names = [packed.feature_names[j] for j in np.flatnonzero(separated)]
        raise SeparationError(
            f"chosen alternative is extremal in every choice set on: {', '.join(map(str, names))}"
        )


def _newton(loglik, terms, p_dim, tol, max_iter):
    """Maximise a concave log-likelihood by damped Newton steps from zero.

    ``terms(beta)`` returns the gradient and the information (-H) at
    ``beta``. Each step is halved until the log-likelihood does not fall by
    more than summation roundoff; when no step down to 1e-12 keeps it, the
    search stops unconverged. Converged means max |gradient| < ``tol``.
    Returns (beta, loglik, converged, iterations, information at beta).
    """
    beta = np.zeros(p_dim)
    ll = loglik(beta)
    for iterations in range(max_iter + 1):
        g, information = terms(beta)
        converged = bool(np.abs(g).max() < tol)
        if converged or iterations == max_iter:
            break
        try:
            delta = np.linalg.solve(information, g)
        except np.linalg.LinAlgError:
            raise SingularHessianError(
                "Newton step failed", condition_number=float(np.linalg.cond(information))
            ) from None
        step = 1.0
        slack = 1e-10 * (1.0 + abs(ll))  # summation roundoff, not a real decrease
        while step >= 1e-12:
            candidate = beta + step * delta
            ll_new = loglik(candidate)
            if ll_new >= ll - slack:
                beta, ll = candidate, max(ll_new, ll)
                break
            step *= 0.5
        else:
            return beta, ll, False, iterations + 1, information
    return beta, ll, converged, iterations, information


def mnl_fit(instances, tol: float = 1e-8, max_iter: int = 100) -> FitResult:
    """Fit the conditional multinomial logit by Newton's method.

    Starts from zero coefficients and applies step-halving so the
    log-likelihood never decreases; the likelihood is concave, so the
    stationary point is the global maximum. Standard errors are
    sqrt(diag((-H)^-1)) at the optimum.
    """
    packed = _as_packed(instances)
    _check_estimable(packed)
    p_dim = packed.X.shape[1]
    beta, ll, converged, iterations, information = _newton(
        lambda b: mnl_loglik(b, packed), lambda b: _mnl_terms(packed, b), p_dim, tol, max_iter
    )
    return FitResult(
        feature_names=packed.feature_names,
        coefficients=beta,
        std_errors=_information_std_errors(information),
        loglik=ll,
        n_obs=packed.n_instances,
        n_params=p_dim,
        converged=converged,
        iterations=iterations,
        kind="mnl",
    )


def _information_std_errors(information: np.ndarray) -> np.ndarray:
    try:
        cov = np.linalg.inv(information)
    except np.linalg.LinAlgError:
        raise SingularHessianError(
            "information matrix is singular", condition_number=float(np.linalg.cond(information))
        ) from None
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def mnl_accuracy(fit, instances) -> float:
    """Share of instances whose chosen alternative has strictly maximal utility.

    Exact ties count as incorrect, so a zero model scores zero rather than
    inheriting credit for unbreakable ties.
    """
    beta = fit.coefficients if isinstance(fit, FitResult) else np.asarray(fit, dtype=np.float64)
    packed = _as_packed(instances)
    u = packed.X @ beta
    m = np.maximum.reduceat(u, packed.starts)
    chosen_u = u[packed.chosen_rows]
    at_max = np.add.reduceat((u == m[packed.seg_ids]).astype(np.int64), packed.starts)
    correct = (chosen_u == m) & (at_max == 1)
    return float(correct.mean())


def odds_ratio(coefficient: float) -> float:
    """Multiplicative odds change for one unit of the feature."""
    return math.exp(coefficient)


# -- binary logistic regression ------------------------------------------------


def _bernoulli_loglik(eta, y):
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def _design(X, y, feature_names):
    """``X`` and ``y`` as float arrays of matching shape, with the column names."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    n, p_dim = X.shape
    if y.shape != (n,):
        raise ValueError("outcome length does not match design")
    names = tuple(feature_names) if feature_names is not None else tuple(f"x{j}" for j in range(p_dim))
    if len(names) != p_dim:
        raise ValueError("feature_names length does not match design")
    return X, y, names


def logistic_fit(X, y, tol: float = 1e-8, max_iter: int = 100, feature_names=None) -> FitResult:
    """Binary logistic regression by damped Newton steps (``_newton``).

    Raises :class:`SeparationError` when coefficients diverge past 30 on the
    standardized design, the signature of perfectly separated outcomes.
    """
    X, y, names = _design(X, y, feature_names)
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("outcomes must be 0/1")
    n, p_dim = X.shape
    std = X.std(axis=0)
    scale = np.where(std > 0, std, 0.0)

    def terms(beta):
        # Runs at every point the solver reaches, before its gradient test.
        if np.max(np.abs(beta) * scale) > 30.0:
            raise SeparationError("coefficients diverged; outcomes look perfectly separated")
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        return X.T @ (y - mu), (X * w[:, None]).T @ X

    beta, ll, converged, iterations, information = _newton(
        lambda b: _bernoulli_loglik(X @ b, y), terms, p_dim, tol, max_iter
    )
    return FitResult(
        feature_names=names,
        coefficients=beta,
        std_errors=_information_std_errors(information),
        loglik=ll,
        n_obs=n,
        n_params=p_dim,
        converged=converged,
        iterations=iterations,
        kind="logistic",
    )


# -- ordinary least squares ------------------------------------------------------


def ols_fit(X, y, feature_names=None) -> FitResult:
    """Least squares via QR, with classical standard errors and an overall F.

    Reports R-squared against the centered total sum of squares when the
    design contains a constant column, the Gaussian log-likelihood at the
    MLE variance, and (df_model, df_resid).
    """
    X, y, names = _design(X, y, feature_names)
    n, p_dim = X.shape
    if n <= p_dim:
        raise ValueError(f"need more observations ({n}) than parameters ({p_dim})")
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    threshold = max(n, p_dim) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    dependent = np.flatnonzero(diag <= threshold)
    if dependent.size:
        raise RankDeficiencyError([names[j] for j in dependent])
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    rss = float(resid @ resid)
    df_resid = n - p_dim
    sigma2 = rss / df_resid
    r_inv = np.linalg.inv(R)
    cov = (r_inv @ r_inv.T) * sigma2
    std_errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    col_spread = X.max(axis=0) - X.min(axis=0)
    has_intercept = bool(np.any((col_spread == 0) & (X[0] != 0)))
    if has_intercept:
        centered = y - y.mean()
        tss = float(centered @ centered)
        df_model = p_dim - 1
    else:
        tss = float(y @ y)
        df_model = p_dim
    if tss > 0:
        r_squared = 1.0 - rss / tss
    else:
        r_squared = 1.0 if rss == 0 else 0.0
    f_statistic = None
    if df_model > 0 and rss > 0:
        f_statistic = ((tss - rss) / df_model) / (rss / df_resid)
    loglik = math.inf if rss <= 0 else -0.5 * n * (math.log(2.0 * math.pi * rss / n) + 1.0)
    return FitResult(
        feature_names=names,
        coefficients=beta,
        std_errors=std_errors,
        loglik=loglik,
        n_obs=n,
        n_params=p_dim,
        converged=True,
        iterations=1,
        kind="ols",
        rss=rss,
        r_squared=r_squared,
        f_statistic=f_statistic,
        df=(df_model, df_resid),
    )


def design_matrix(columns, terms, add_intercept: bool = True):
    """Assemble a design matrix from named columns and product terms.

    ``terms`` are column names, with products written ``a:b`` (any depth).
    Returns (X, names); the intercept column is named ``(intercept)``.
    """
    lengths = {len(np.asarray(v)) for v in columns.values()}
    if len(lengths) > 1:
        raise ValueError("columns have unequal lengths")
    n = lengths.pop() if lengths else 0
    cols = []
    names = []
    if add_intercept:
        cols.append(np.ones(n))
        names.append("(intercept)")
    for term in terms:
        parts = term.split(":")
        col = np.ones(n)
        for part in parts:
            if part not in columns:
                raise KeyError(f"unknown column {part!r}")
            col = col * np.asarray(columns[part], dtype=np.float64)
        cols.append(col)
        names.append(term)
    X = np.column_stack(cols) if cols else np.empty((n, 0))
    return X, tuple(names)


# -- nested-model tests ------------------------------------------------------------


def _check_nested(full: FitResult, reduced: FitResult) -> int:
    if full.n_obs != reduced.n_obs:
        raise NonNestedError(f"models fit on different samples: {full.n_obs} vs {reduced.n_obs}")
    if not set(reduced.feature_names) <= set(full.feature_names):
        extra = set(reduced.feature_names) - set(full.feature_names)
        raise NonNestedError(f"reduced model has columns outside the full model: {sorted(map(str, extra))}")
    return full.n_params - reduced.n_params


def f_test_nested(full: FitResult, reduced: FitResult) -> TestResult:
    """ANOVA F test for nested OLS fits."""
    if full.rss is None or reduced.rss is None:
        raise ValueError("F test requires OLS fits (rss missing)")
    delta_df = _check_nested(full, reduced)
    if full.rss > reduced.rss:
        raise NonNestedError(f"full-model RSS {full.rss} exceeds reduced-model RSS {reduced.rss}")
    df_resid = full.n_obs - full.n_params
    if delta_df == 0:
        return TestResult(statistic=0.0, df=(0, df_resid), p_value=1.0, kind="F")
    statistic = ((reduced.rss - full.rss) / delta_df) / (full.rss / df_resid)
    return TestResult(statistic=statistic, df=(delta_df, df_resid), p_value=f_sf(statistic, delta_df, df_resid), kind="F")


def lr_test_nested(full: FitResult, reduced: FitResult) -> TestResult:
    """Likelihood-ratio chi-square test for nested likelihood fits."""
    delta_df = _check_nested(full, reduced)
    statistic = 2.0 * (full.loglik - reduced.loglik)
    if statistic < -1e-8:
        raise NonNestedError(f"full model log-likelihood below reduced ({full.loglik} < {reduced.loglik})")
    statistic = max(statistic, 0.0)
    if delta_df == 0:
        return TestResult(statistic=statistic, df=(0,), p_value=1.0, kind="LR")
    return TestResult(statistic=statistic, df=(delta_df,), p_value=chi2_sf(statistic, delta_df), kind="LR")
