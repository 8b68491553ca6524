"""Descriptive statistics, correlation, and OLS regression with F-tests.

The regression path solves the normal equations with a hand-rolled
diagonally-pivoted Cholesky factorization of XᵀX, which doubles as the rank
check: a pivot collapse (condition estimate above 1e12) aborts the fit and
names the offending columns. Standard errors are the conventional
non-robust σ̂²(XᵀX)⁻¹ diagonal.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Mapping, Optional, Sequence

import numpy as np

from .special import f_sf, t_sf

__all__ = [
    "Descriptives",
    "descriptives",
    "pearson_r",
    "DataMatrix",
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
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty column")
    mean = float(data.mean())
    sd = float(data.std(ddof=1)) if data.size > 1 else None
    return Descriptives(mean=mean, sd=sd, median=float(np.median(data)), n=data.size)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Sample Pearson correlation and its two-sided p-value.

    The p-value is twice the Student-t upper tail, with n-2 degrees of
    freedom, at |t| where t = r·sqrt((n-2)/(1-r²)).

    Raises:
        ValueError: on unequal lengths, fewer than 3 points, or zero variance.
    """
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


class DataMatrix:
    """Named numeric columns of equal length, one row per project."""

    def __init__(self, columns: Mapping[str, Sequence[float]]) -> None:
        if not columns:
            raise ValueError("DataMatrix needs at least one column")
        self._columns: dict[str, np.ndarray] = {}
        length = None
        for name, values in columns.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} is not one-dimensional")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise ValueError(
                    f"column {name!r} has {arr.size} rows, expected {length}"
                )
            self._columns[name] = arr
        self._n = int(length or 0)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def n_rows(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise KeyError(f"no column {name!r}; have {list(self._columns)}")
        return self._columns[name]

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        return np.column_stack([self.column(name) for name in names])

    @classmethod
    def from_csv(cls, source: IO[str], skip: Sequence[str] = ()) -> "DataMatrix":
        """Read numeric columns from a headed CSV; ``skip`` names label columns."""
        reader = csv.DictReader(source)
        if not reader.fieldnames:
            raise ValueError("CSV has no header")
        skipped = set(skip)
        keep = [name for name in reader.fieldnames if name not in skipped]
        columns: dict[str, list[float]] = {name: [] for name in keep}
        for lineno, row in enumerate(reader, start=2):
            for name in keep:
                try:
                    columns[name].append(float(row[name]))
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"line {lineno}: column {name!r} is not numeric: {row[name]!r}"
                    ) from exc
        return cls(columns)


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
        return np.array(
            [self.coefficients[INTERCEPT]]
            + [self.coefficients[name] for name in self.predictors]
        )


def _pivoted_cholesky_inverse(a: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Invert symmetric positive-definite ``a`` via diagonally pivoted Cholesky.

    Raises:
        ValueError: if a pivot collapses (rank deficiency) or the pivot ratio
            exceeds the condition limit, naming the columns still unpivoted.
    """
    p = a.shape[0]
    a = a.astype(float).copy()
    lower = np.zeros((p, p))
    order = list(range(p))
    first_pivot = None
    for k in range(p):
        resid = np.array([a[j, j] - lower[j, :k] @ lower[j, :k] for j in range(k, p)])
        jmax = int(np.argmax(resid)) + k
        if jmax != k:
            a[[k, jmax], :] = a[[jmax, k], :]
            a[:, [k, jmax]] = a[:, [jmax, k]]
            lower[[k, jmax], :] = lower[[jmax, k], :]
            order[k], order[jmax] = order[jmax], order[k]
        d = a[k, k] - lower[k, :k] @ lower[k, :k]
        if first_pivot is None:
            first_pivot = d
        if d <= 0.0 or (first_pivot > 0 and first_pivot / d > _COND_LIMIT):
            bad = sorted(names[order[j]] for j in range(k, p))
            estimate = "inf" if d <= 0 else f"{first_pivot / d:.3g}"
            raise ValueError(
                "design matrix is rank deficient or ill-conditioned "
                f"(condition estimate {estimate}); collinear columns: {bad}"
            )
        lower[k, k] = math.sqrt(d)
        for i in range(k + 1, p):
            lower[i, k] = (a[i, k] - lower[i, :k] @ lower[k, :k]) / lower[k, k]
    # Solve L Y = I, then Lᵀ Z = Y; undo the pivot permutation on both sides.
    identity = np.eye(p)
    y = np.zeros((p, p))
    for col in range(p):
        for i in range(p):
            y[i, col] = (identity[i, col] - lower[i, :i] @ y[:i, col]) / lower[i, i]
    z = np.zeros((p, p))
    for col in range(p):
        for i in range(p - 1, -1, -1):
            z[i, col] = (y[i, col] - lower[i + 1 :, i] @ z[i + 1 :, col]) / lower[i, i]
    inverse = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            inverse[order[i], order[j]] = z[i, j]
    return inverse


def _as_columns(data: Mapping[str, Sequence[float]] | DataMatrix) -> DataMatrix:
    if isinstance(data, DataMatrix):
        return data
    return DataMatrix(data)


def ols_fit(
    data: Mapping[str, Sequence[float]] | DataMatrix,
    response: str,
    predictors: Sequence[str],
) -> OlsFit:
    """Fit ``response ~ 1 + predictors`` by least squares.

    Args:
        data: named columns (a mapping or a :class:`DataMatrix`).
        response: name of the response column.
        predictors: names of the predictor columns; an intercept is always
            included.

    Raises:
        ValueError: on missing values, too few rows (n < k+1), or a rank
            deficient design (collinear columns are named).
    """
    dm = _as_columns(data)
    names = [INTERCEPT, *predictors]
    y = dm.column(response)
    x = np.column_stack([np.ones(dm.n_rows)] + [dm.column(p) for p in predictors])
    if np.isnan(y).any() or np.isnan(x).any():
        raise ValueError("missing values in used columns")
    n, k_plus_1 = x.shape
    if n < k_plus_1:
        raise ValueError(f"need at least {k_plus_1} rows for {k_plus_1} parameters, got {n}")

    xtx = x.T @ x
    xty = x.T @ y
    inverse = _pivoted_cholesky_inverse(xtx, names)
    beta = inverse @ xty

    residuals = y - x @ beta
    rss = float(residuals @ residuals)
    centered = y - y.mean()
    tss = float(centered @ centered)
    df2 = n - k_plus_1
    k = k_plus_1 - 1

    if df2 > 0:
        sigma2 = rss / df2
        se = np.sqrt(np.maximum(sigma2 * np.diag(inverse), 0.0))
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
