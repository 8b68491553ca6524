"""Descriptive statistics, correlation, and OLS regression with F-tests.

The regression path takes one thin SVD of the design matrix X, its columns
scaled to unit norm, and never forms XᵀX: β, (XᵀX)⁻¹ and the rank check all
come from it. A design whose scaled columns have a condition estimate
cond(X)² above 1e12 aborts the fit and names the columns that carry the
near-dependency; a column's units do not change the verdict. Standard errors
are the conventional non-robust σ̂²(XᵀX)⁻¹ diagonal.

numpy is imported by each function that computes with it, on its first
call, so a process that never summarizes, correlates or fits never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .special import f_sf, t_sf

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Descriptives",
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


@dataclass(frozen=True)
class Descriptives:
    """Sample mean, SD (n-1 denominator; None for n=1) and median."""

    mean: float
    sd: Optional[float]
    median: float
    n: int


def descriptives(values: Sequence[float]) -> Descriptives:
    """Summarize one column; the median of an even count is the central midpoint.

    Raises:
        ValueError: on an empty column.
    """
    import numpy as np

    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty column")
    mean = float(data.mean())
    sd = float(data.std(ddof=1)) if data.size > 1 else None
    # np.median gives the same values, but its first call imports numpy.ma.
    # np.sort puts NaN last, and a NaN makes the median NaN, as np.median does.
    ordered = np.sort(data)
    mid = data.size // 2
    if math.isnan(ordered[-1]):
        median = math.nan
    elif data.size % 2:
        median = float(ordered[mid])
    else:
        median = float((ordered[mid - 1] + ordered[mid]) / 2)
    return Descriptives(mean=mean, sd=sd, median=median, n=data.size)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Sample Pearson correlation and its two-sided p-value.

    The p-value is twice the Student-t upper tail, with n-2 degrees of
    freedom, at |t| where t = r·sqrt((n-2)/(1-r²)).

    Raises:
        ValueError: on unequal lengths, fewer than 3 points, or zero variance.
    """
    import numpy as np

    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
    n = xa.size
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance in input")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
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
    σ̂²(XᵀX)⁻¹ ordered intercept-first then predictors. When the fit is
    saturated (zero residual degrees of freedom) the inference fields are
    NaN.
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
    covariance: np.ndarray

    @property
    def residual_df(self) -> int:
        return self.n - len(self.predictors) - 1

    def param_vector(self) -> np.ndarray:
        """Coefficients ordered intercept-first, matching ``covariance``."""
        import numpy as np

        return np.array(
            [self.coefficients[INTERCEPT]]
            + [self.coefficients[name] for name in self.predictors]
        )


def _column(
    data: Mapping[str, Sequence[float]], name: str, rows: Optional[int] = None
) -> np.ndarray:
    """``data[name]`` as a float vector, which must hold ``rows`` values if given."""
    import numpy as np

    if name not in data:
        raise KeyError(f"no column {name!r}; have {list(data)}")
    column = np.asarray(data[name], dtype=float)
    if column.ndim != 1:
        raise ValueError(f"column {name!r} is not one-dimensional")
    if rows is not None and column.size != rows:
        raise ValueError(f"column {name!r} has {column.size} rows, expected {rows}")
    return column


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
    """
    import numpy as np

    names = [INTERCEPT, *predictors]
    y = _column(data, response)
    x = np.column_stack(
        [np.ones(y.size)] + [_column(data, name, y.size) for name in predictors]
    )
    if np.isnan(y).any() or np.isnan(x).any():
        raise ValueError("missing values in used columns")
    n, k_plus_1 = x.shape
    if n < k_plus_1:
        raise ValueError(f"need at least {k_plus_1} rows for {k_plus_1} parameters, got {n}")

    # One SVD of the unit-norm columns, X·D⁻¹ = U·diag(s)·Vᵀ (D = column norms,
    # 1 for a zero column), gives a rank check free of the columns' units, β
    # and (XᵀX)⁻¹ without forming XᵀX, whose condition number is cond(X)².
    norms = np.linalg.norm(x, axis=0)
    norms[norms == 0] = 1.0
    u, s, vt = np.linalg.svd(x / norms, full_matrices=False)
    weak = _COND_LIMIT * s**2 < s[0] ** 2
    if weak.any():
        # A column is in the dependency when it carries weight in a weak
        # right-singular vector; rounding leaves about 1e-15 of it on the
        # columns outside the dependency.
        weight = np.abs(vt[weak])
        carried = (weight > 1e-8 * weight.max(axis=1, keepdims=True)).any(axis=0)
        bad = sorted(names[j] for j in np.flatnonzero(carried))
        estimate = f"{(s[0] / s[-1]) ** 2:.3g}" if s[-1] > 0 else "inf"
        raise ValueError(
            "design matrix is rank deficient or ill-conditioned "
            f"(condition estimate {estimate}); collinear columns: {bad}"
        )
    inverse = (vt.T / s**2) @ vt / np.outer(norms, norms)
    beta = vt.T @ ((u.T @ y) / s) / norms

    residuals = y - x @ beta
    rss = float(residuals @ residuals)
    centered = y - y.mean()
    tss = float(centered @ centered)
    df2 = n - k_plus_1
    k = k_plus_1 - 1

    if df2 > 0:
        sigma2 = rss / df2
        se = np.sqrt(sigma2 * np.diag(inverse))
        p_values = {}
        for name, b, s in zip(names, beta, se):
            if s > 0:
                p_values[name] = 2.0 * t_sf(abs(b / s), df2)
            else:
                p_values[name] = 0.0 if b != 0 else 1.0
    else:
        sigma2 = float("nan")
        se = np.full(k_plus_1, float("nan"))
        p_values = {name: float("nan") for name in names}

    if tss > 0.0:
        r_squared = 1.0 - rss / tss
        r_squared = max(0.0, min(1.0, r_squared))
    else:
        r_squared = 0.0

    if k > 0 and df2 > 0 and rss > 0.0:
        f_stat = ((tss - rss) / k) / (rss / df2)
        f_stat = max(0.0, f_stat)
        f_p = f_sf(f_stat, k, df2)
    elif k > 0 and df2 > 0 and tss > 0.0:
        f_stat, f_p = float("inf"), 0.0
    else:
        f_stat, f_p = float("nan"), float("nan")

    return OlsFit(
        response=response,
        predictors=tuple(predictors),
        coefficients={name: float(b) for name, b in zip(names, beta)},
        standard_errors={name: float(s) for name, s in zip(names, se)},
        p_values=p_values,
        r_squared=r_squared,
        f_statistic=f_stat,
        f_df=(k, df2),
        f_p_value=f_p,
        rss=rss,
        tss=tss,
        sigma2=sigma2,
        n=n,
        covariance=sigma2 * inverse if df2 > 0 else np.full_like(inverse, float("nan")),
    )


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
    if full.rss <= 0.0:
        return FTestResult(f_value=float("inf"), df1=df1, df2=df2, p_value=0.0)
    f_value = max(0.0, ((reduced.rss - full.rss) / df1) / (full.rss / df2))
    return FTestResult(
        f_value=f_value, df1=df1, df2=df2, p_value=f_sf(f_value, df1, df2)
    )


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
    import numpy as np

    weights = np.asarray(combination, dtype=float)
    k_plus_1 = len(fit.predictors) + 1
    if weights.shape != (k_plus_1,):
        raise ValueError(
            f"combination has dimension {weights.shape}, expected ({k_plus_1},)"
        )
    df2 = fit.residual_df
    if df2 <= 0:
        raise ValueError("fit has no residual degrees of freedom")
    estimate = float(weights @ fit.param_vector())
    variance = float(weights @ fit.covariance @ weights)
    if not variance > 0.0:
        raise ValueError("singular restricted covariance for this combination")
    f_value = (estimate - target) ** 2 / variance
    return FTestResult(
        f_value=f_value, df1=1, df2=df2, p_value=f_sf(f_value, 1, df2)
    )
