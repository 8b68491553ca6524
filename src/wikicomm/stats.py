"""Column summaries, correlation, and OLS regression with F-tests.

``descriptives`` summarizes a column as a plain ``(mean, sd, median)``.
The regression path takes one thin SVD of the design matrix X, its columns
scaled to unit norm, and never forms XᵀX: β, (XᵀX)⁻¹ and the rank check all
come from it. A design whose scaled columns have a condition estimate
cond(X)² above 1e12 aborts the fit and names the columns that carry the
near-dependency; a column's units do not change the verdict. Standard errors
are the conventional non-robust σ̂²(XᵀX)⁻¹ diagonal. A fit's overall F is
the nested F-test against the intercept-only model; a constant response
(TSS = 0) has none, and gets NaN.

Everything is plain Python, and every sum over rows is a ``math.fsum``,
which is correctly rounded: no result depends on the order of the rows or
on a BLAS library.
"""

from __future__ import annotations

import math
import operator
import statistics
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .special import f_sf, t_sf

__all__ = [
    "descriptives",
    "pearson_r",
    "OlsFit",
    "FTestResult",
    "ols_fit",
    "nested_f_test",
    "linear_hypothesis",
    "INTERCEPT",
]

INTERCEPT = "const"

_COND_LIMIT = 1e12
# Two columns count as orthogonal when the cosine of their angle is below
# this; a Jacobi SVD that needs more sweeps than the limit has not converged.
_ORTHOGONAL = 1e-15
_JACOBI_SWEEPS = 60


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return math.fsum(map(operator.mul, a, b))


def descriptives(values: Sequence[float]) -> tuple[float, Optional[float], float]:
    """``(mean, sd, median)`` of one column: the SD has an n-1 denominator and
    is None for n = 1, and the median of an even count is the central midpoint.

    Raises:
        ValueError: on an empty column.
    """
    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarize an empty column")
    n = len(data)
    mean = statistics.fmean(data)
    deviations = [v - mean for v in data]
    sd = math.sqrt(_dot(deviations, deviations) / (n - 1)) if n > 1 else None
    # A NaN makes the mean NaN, and the median too (sorting cannot place it).
    median = mean if math.isnan(mean) else statistics.median(data)
    return mean, sd, median


def pearson_r(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Sample Pearson correlation and its two-sided p-value.

    The p-value is twice the Student-t upper tail, with n-2 degrees of
    freedom, at |t| where t = r·sqrt((n-2)/(1-r²)).

    Raises:
        ValueError: on unequal lengths, fewer than 3 points, or zero variance.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    x_mean, y_mean = statistics.fmean(xs), statistics.fmean(ys)
    dx = [v - x_mean for v in xs]
    dy = [v - y_mean for v in ys]
    sxx, syy = _dot(dx, dx), _dot(dy, dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance in input")
    r = _dot(dx, dy) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if 1.0 - r * r <= 0.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * t_sf(abs(t), n - 2)
    return r, min(1.0, max(0.0, p))


@dataclass(frozen=True)
class FTestResult:
    """An F statistic with its degrees of freedom and p-value."""

    f_value: float
    df1: int
    df2: int
    p_value: float


@dataclass(frozen=True)
class OlsFit:
    """A fitted linear model: coefficients, inference, and fit diagnostics.

    ``coefficients`` and ``standard_errors`` are keyed by predictor name plus
    the intercept key ``const``. ``covariance`` is the parameter covariance
    σ̂²(XᵀX)⁻¹, a tuple of rows in ``(const, *predictors)`` order. When the
    fit is saturated (zero residual degrees of freedom) the inference fields
    are NaN.
    """

    response: str
    predictors: tuple[str, ...]
    coefficients: dict[str, float]
    standard_errors: dict[str, float]
    p_values: dict[str, float]
    r_squared: float
    f_statistic: float
    f_df: tuple[int, int]
    f_p_value: float
    rss: float
    tss: float
    sigma2: float
    n: int
    covariance: tuple[tuple[float, ...], ...]

    @property
    def residual_df(self) -> int:
        return self.n - len(self.predictors) - 1


def _column(
    data: Mapping[str, Sequence[float]], name: str, rows: Optional[int] = None
) -> list[float]:
    """``data[name]`` as a list of floats, which must hold ``rows`` values if given."""
    if name not in data:
        raise KeyError(f"no column {name!r}; have {list(data)}")
    try:
        column = [float(v) for v in data[name]]
    except TypeError as exc:
        raise ValueError(f"column {name!r} is not one-dimensional") from exc
    if rows is not None and len(column) != rows:
        raise ValueError(f"column {name!r} has {len(column)} rows, expected {rows}")
    return column


def _jacobi_svd(columns: list[list[float]]) -> tuple[list[list[float]], list[list[float]]]:
    """Thin SVD A = U·diag(s)·Vᵀ of the matrix with these columns by one-sided
    Jacobi rotations (Hestenes), which rotate pairs of columns until all are
    orthogonal: the columns of A·V (column k is s_k·u_k) and of V, unsorted."""
    p = len(columns)
    a = list(columns)
    v = [[float(i == j) for i in range(p)] for j in range(p)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i in range(p - 1):
            for j in range(i + 1, p):
                alpha, beta, gamma = _dot(a[i], a[i]), _dot(a[j], a[j]), _dot(a[i], a[j])
                if abs(gamma) <= _ORTHOGONAL * math.sqrt(alpha * beta):
                    continue
                rotated = True
                # The rotation that zeroes the pair's inner product.
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                for m in (a, v):
                    m[i], m[j] = (
                        [c * x - s * y for x, y in zip(m[i], m[j])],
                        [s * x + c * y for x, y in zip(m[i], m[j])],
                    )
        if not rotated:
            return a, v
    raise ArithmeticError(f"SVD of the design did not converge in {_JACOBI_SWEEPS} sweeps")


def ols_fit(
    data: Mapping[str, Sequence[float]],
    response: str,
    predictors: Sequence[str],
) -> OlsFit:
    """Fit ``response ~ 1 + predictors`` by least squares.

    Args:
        data: named columns; only the response and the predictors are read.
        response: name of the response column.
        predictors: names of the predictor columns; an intercept is always
            included.

    Raises:
        KeyError: naming a response or predictor column absent from ``data``.
        ValueError: on a column whose length differs from the response's,
            missing values, too few rows (n < k+1), or a rank deficient
            design (collinear columns are named).
        ArithmeticError: if the SVD does not converge.
    """
    names = [INTERCEPT, *predictors]
    y = _column(data, response)
    n = len(y)
    x = [[1.0] * n] + [_column(data, name, n) for name in predictors]
    if any(math.isnan(v) for column in (y, *x) for v in column):
        raise ValueError("missing values in used columns")
    k_plus_1 = len(x)
    if n < k_plus_1:
        raise ValueError(f"need at least {k_plus_1} rows for {k_plus_1} parameters, got {n}")

    # One SVD of the unit-norm columns, X·D⁻¹ = U·diag(s)·Vᵀ (D = column norms,
    # 1 for a zero column), gives a rank check free of the columns' units, β
    # and (XᵀX)⁻¹ without forming XᵀX, whose condition number is cond(X)².
    norms = [math.sqrt(_dot(column, column)) or 1.0 for column in x]
    scaled, v = _jacobi_svd([[c / d for c in column] for column, d in zip(x, norms)])
    s = [math.sqrt(_dot(column, column)) for column in scaled]
    s_max, s_min = max(s), min(s)
    weak = [vk for vk, sk in zip(v, s) if _COND_LIMIT * sk * sk < s_max * s_max]
    if weak:
        # A column is in the dependency when it carries weight in a weak
        # right-singular vector; rounding leaves about 1e-15 of it on the
        # columns outside the dependency.
        carried = {
            j for vk in weak for j, e in enumerate(vk) if abs(e) > 1e-8 * max(map(abs, vk))
        }
        bad = sorted(names[j] for j in carried)
        estimate = f"{(s_max / s_min) ** 2:.3g}" if s_min > 0 else "inf"
        raise ValueError(
            "design matrix is rank deficient or ill-conditioned "
            f"(condition estimate {estimate}); collinear columns: {bad}"
        )
    # β = D⁻¹·V·diag(s)⁻¹·Uᵀy and (XᵀX)⁻¹ = D⁻¹·V·diag(s)⁻²·Vᵀ·D⁻¹, where
    # s_k⁻¹·u_kᵀy is (s_k·u_k)ᵀy / s_k².
    scores = [_dot(column, y) / (sk * sk) for column, sk in zip(scaled, s)]
    beta = [_dot([vk[j] for vk in v], scores) / norms[j] for j in range(k_plus_1)]
    inverse = [
        [math.fsum(vk[i] * vk[j] / (sk * sk) for vk, sk in zip(v, s)) / (norms[i] * norms[j])
         for j in range(k_plus_1)]
        for i in range(k_plus_1)
    ]

    residuals = [yi - _dot(row, beta) for yi, row in zip(y, zip(*x))]
    rss = _dot(residuals, residuals)
    y_mean = statistics.fmean(y)
    centered = [yi - y_mean for yi in y]
    tss = _dot(centered, centered)
    df2 = n - k_plus_1
    k = k_plus_1 - 1

    if df2 > 0:
        sigma2 = rss / df2
        se = [math.sqrt(sigma2 * inverse[j][j]) for j in range(k_plus_1)]
        p_values = {}
        for name, b, s in zip(names, beta, se):
            if s > 0:
                p_values[name] = 2.0 * t_sf(abs(b / s), df2)
            else:
                p_values[name] = 0.0 if b != 0 else 1.0
    else:
        sigma2 = float("nan")
        se = [float("nan")] * k_plus_1
        p_values = {name: float("nan") for name in names}

    if tss > 0.0:
        r_squared = 1.0 - rss / tss
        r_squared = max(0.0, min(1.0, r_squared))
    else:
        r_squared = 0.0

    # The intercept-only model's RSS is the TSS; a constant y has no overall F.
    if k > 0 and df2 > 0 and tss > 0.0:
        overall = _f_test(tss, rss, k, df2)
        f_stat, f_p = overall.f_value, overall.p_value
    else:
        f_stat = f_p = float("nan")

    return OlsFit(
        response=response,
        predictors=tuple(predictors),
        coefficients=dict(zip(names, beta)),
        standard_errors=dict(zip(names, se)),
        p_values=p_values,
        r_squared=r_squared,
        f_statistic=f_stat,
        f_df=(k, df2),
        f_p_value=f_p,
        rss=rss,
        tss=tss,
        sigma2=sigma2,
        n=n,
        covariance=tuple(tuple(sigma2 * c for c in row) for row in inverse),
    )


def _f_test(rss_reduced: float, rss_full: float, df1: int, df2: int) -> FTestResult:
    """F-test of a model with ``df1`` fewer parameters; a perfect full fit gives F = inf."""
    if rss_full <= 0.0:
        return FTestResult(f_value=float("inf"), df1=df1, df2=df2, p_value=0.0)
    f_value = max(0.0, ((rss_reduced - rss_full) / df1) / (rss_full / df2))
    return FTestResult(f_value=f_value, df1=df1, df2=df2, p_value=f_sf(f_value, df1, df2))


def nested_f_test(full: OlsFit, reduced: OlsFit) -> FTestResult:
    """F-test comparing a full model with a nested reduced model.

    Raises:
        ValueError: if the models are not nested on the same data.
    """
    if reduced.response != full.response or reduced.n != full.n:
        raise ValueError("models were not fit to the same response and rows")
    if not set(reduced.predictors) <= set(full.predictors):
        raise ValueError(
            f"models are not nested: {sorted(set(reduced.predictors) - set(full.predictors))} "
            "only in the reduced model"
        )
    df1 = len(full.predictors) - len(reduced.predictors)
    df2 = full.residual_df
    if df1 == 0:
        return FTestResult(f_value=0.0, df1=0, df2=df2, p_value=1.0)
    if df2 <= 0:
        raise ValueError("full model has no residual degrees of freedom")
    return _f_test(reduced.rss, full.rss, df1, df2)


def linear_hypothesis(
    fit: OlsFit,
    combination: Sequence[float],
    target: float = 0.0,
) -> FTestResult:
    """F-test of H0: combination · (const, *predictors) = target.

    ``combination`` must match the coefficient vector, intercept first.

    Raises:
        ValueError: on a dimension mismatch or singular restricted covariance.
    """
    weights = [float(w) for w in combination]
    k_plus_1 = len(fit.predictors) + 1
    if len(weights) != k_plus_1:
        raise ValueError(f"combination has dimension {len(weights)}, expected {k_plus_1}")
    df2 = fit.residual_df
    if df2 <= 0:
        raise ValueError("fit has no residual degrees of freedom")
    estimate = _dot(weights, [fit.coefficients[name] for name in (INTERCEPT, *fit.predictors)])
    variance = math.fsum(
        wi * c * wj for wi, row in zip(weights, fit.covariance) for wj, c in zip(weights, row)
    )
    if not variance > 0.0:
        raise ValueError("singular restricted covariance for this combination")
    f_value = (estimate - target) ** 2 / variance
    return FTestResult(
        f_value=f_value, df1=1, df2=df2, p_value=f_sf(f_value, 1, df2)
    )
