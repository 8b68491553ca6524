"""Upper tails of the F and Student-t distributions, for reporting p-values.

Both reduce to the regularized incomplete beta function I_x(a, b), evaluated
here with the continued-fraction expansion (modified Lentz iteration). The
expansion is applied on the side of the split point x < (a+1)/(a+b+2) where
it converges fast, with the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) covering
the other side. Absolute error is well below 1e-10 over the tested domain.

A p-value is an upper tail. Written as ``1 - cdf`` it cancels to 0.0 once
the tail falls below about 1e-16, so ``f_sf`` and ``t_sf`` evaluate
I_{1-x}(b, a) with 1 - x formed from the statistic itself; deep in the tail
that lands on the branch without a subtraction, and the tail keeps its
relative accuracy (DiDonato & Morris, ACM TOMS Algorithm 708, 1992).
"""

from __future__ import annotations

import math

__all__ = ["log_beta", "regularized_incomplete_beta", "f_sf", "t_sf"]

_MAX_ITERATIONS = 400
_EPS = 1e-16
_FPMIN = 1e-300


def log_beta(a: float, b: float) -> float:
    """Natural log of the beta function B(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"log_beta requires positive arguments, got a={a}, b={b}")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction for I_x.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITERATIONS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b): the CDF of the Beta(a, b) distribution at x.

    Raises:
        ValueError: if a or b is non-positive or x is outside [0, 1].
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_sf(x: float, df1: float, df2: float) -> float:
    """Upper tail P(F > x) of the F distribution, without cancellation.

    Raises:
        ValueError: if x < 0 or either df is < 1.
    """
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if x < 0:
        raise ValueError(f"F statistic must be non-negative, got {x}")
    if x == 0:
        return 1.0
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df1 * x + df2))


def t_sf(x: float, df: float) -> float:
    """Upper tail P(T > x) of Student's t, without cancellation for x > 0.

    Raises:
        ValueError: if df < 1.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if x == 0:
        return 0.5
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, df / (df + x * x))
    return tail if x > 0 else 1.0 - tail
