"""Regression report rendering: aligned coefficient tables and JSON bundles."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .stats import INTERCEPT, FTestResult, OlsFit

__all__ = [
    "REPORT_SIGNIFICANT_DIGITS",
    "round_significant",
    "significance_stars",
    "render_coefficient_table",
    "fit_to_dict",
    "f_test_to_dict",
]

# Significant digits of every float written to report.json and
# quality_summary.json. The statistics are plain IEEE arithmetic and
# correctly rounded fsum sums, so only libm's log, log2 and lgamma (and exp
# and log1p in the p-values) can move their last digits between hosts. At 10
# digits every mini-wiki value is at least 2.35e-12 (relative) from a
# rounding boundary; at 12 digits one value is only 1.2e-14 from one. Nine
# digits would move R² by up to 4.6e-10, past the 1e-10 acceptance bound.
REPORT_SIGNIFICANT_DIGITS = 10


def round_significant(value: float) -> float:
    """``value`` rounded to :data:`REPORT_SIGNIFICANT_DIGITS`; NaN and ±inf pass through."""
    return float(f"{value:.{REPORT_SIGNIFICANT_DIGITS}g}")


def significance_stars(p_value: float) -> str:
    """``***`` for p <= .001, ``*`` for p <= .05, empty otherwise."""
    if p_value != p_value:  # NaN
        return ""
    if p_value <= 0.001:
        return "***"
    if p_value <= 0.05:
        return "*"
    return ""


def _cell(fit: OlsFit, name: str) -> str:
    if name != INTERCEPT and name not in fit.predictors:
        return ""
    b = fit.coefficients[name]
    se = fit.standard_errors[name]
    stars = significance_stars(fit.p_values[name])
    return f"{b:.3f}{stars} ({se:.3f})"


def render_coefficient_table(
    fits: Sequence[OlsFit],
    model_names: Sequence[str],
    labels: Optional[Mapping[str, str]] = None,
) -> str:
    """Render fitted models side by side: coefficient (SE) with stars, R², N, F.

    Predictor rows follow their first appearance across the fits; the
    intercept row comes last before the summary block.
    """
    if len(fits) != len(model_names):
        raise ValueError("one name per fitted model is required")
    labels = dict(labels or {})
    rows: list[str] = []
    for fit in fits:
        for name in fit.predictors:
            if name not in rows:
                rows.append(name)

    header = ["Predictor"] + list(model_names)
    table: list[list[str]] = [header]
    for name in rows:
        table.append([labels.get(name, name)] + [_cell(fit, name) for fit in fits])
    table.append([labels.get(INTERCEPT, "Constant")] + [_cell(fit, INTERCEPT) for fit in fits])
    table.append(["R^2"] + [f"{fit.r_squared:.3f}" for fit in fits])
    table.append(["N"] + [str(fit.n) for fit in fits])
    table.append(
        ["F (df1, df2)"]
        + [
            f"{fit.f_statistic:.2f} ({fit.f_df[0]}, {fit.f_df[1]}){significance_stars(fit.f_p_value)}"
            for fit in fits
        ]
    )

    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        cells = [row[0].ljust(widths[0])] + [
            row[i].rjust(widths[i]) for i in range(1, len(row))
        ]
        lines.append("  ".join(cells).rstrip())
        if idx == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    lines.append("Note: coefficients with standard errors in parentheses; *** p<=.001, * p<=.05")
    return "\n".join(lines) + "\n"


def fit_to_dict(fit: OlsFit) -> dict:
    """JSON-ready summary of a fit; floats are rounded by :func:`round_significant`."""
    names = [INTERCEPT, *fit.predictors]
    return {
        "response": fit.response,
        "predictors": list(fit.predictors),
        "coefficients": {n: round_significant(fit.coefficients[n]) for n in names},
        "standard_errors": {n: round_significant(fit.standard_errors[n]) for n in names},
        "p_values": {n: round_significant(fit.p_values[n]) for n in names},
        "r_squared": round_significant(fit.r_squared),
        "f_statistic": round_significant(fit.f_statistic),
        "f_df": list(fit.f_df),
        "f_p_value": round_significant(fit.f_p_value),
        "rss": round_significant(fit.rss),
        "n": fit.n,
    }


def f_test_to_dict(result: FTestResult) -> dict:
    """JSON-ready F-test; floats are rounded by :func:`round_significant`."""
    return {
        "f_value": round_significant(result.f_value),
        "df1": result.df1,
        "df2": result.df2,
        "p_value": round_significant(result.p_value),
    }
