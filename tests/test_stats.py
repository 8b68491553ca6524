import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicomm import stats
from wikicomm.pipeline import MODEL_1, _read_model_columns
from wikicomm.stats import (
    INTERCEPT,
    descriptives,
    linear_hypothesis,
    nested_f_test,
    ols_fit,
    pearson_r,
)

from oracles import betainc_series, ks_statistic_uniform, ols_exact, ols_normal_equations


class TestDescriptives:
    def test_basic(self):
        assert descriptives([1, 2, 3]) == (2.0, 1.0, 2.0)

    def test_single_value_sd_undefined(self):
        assert descriptives([5]) == (5.0, None, 5.0)

    def test_even_count_median_midpoint(self):
        assert descriptives([1, 2, 3, 100])[2] == 2.5

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            descriptives([])

    def test_median_equals_numpy_median(self):
        # Rounded log-normal values tie often; odd and even lengths, small and large.
        rng = np.random.default_rng(20)
        for n in [*range(1, 60), 419, 1000]:
            for _ in range(20):
                column = np.round(rng.lognormal(0.0, 1.0, n), 1).tolist()
                assert descriptives(column)[2] == float(np.median(column)), column

    def test_median_of_ties_and_missing_values(self):
        for column in [[2, 2, 2, 2], [1, 2, 2, 3], [5, 1, 5],
                       [1, math.nan, 2], [math.nan, 3], [math.nan]]:
            expected = float(np.median(column))
            _, _, median = descriptives(column)
            assert median == expected or (math.isnan(median) and math.isnan(expected)), column


class TestPearson:
    def test_perfect_positive(self):
        x = list(range(10))
        r, p = pearson_r(x, [2 * v + 1 for v in x])
        assert r == pytest.approx(1.0)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_perfect_negative(self):
        x = list(range(10))
        r, _ = pearson_r(x, [-v for v in x])
        assert r == pytest.approx(-1.0)

    def test_matches_covariance_formula_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=20)
        y = 0.6 * x + rng.normal(size=20)
        r, _ = pearson_r(x, y)
        assert r == pytest.approx(float(np.corrcoef(x, y)[0, 1]), abs=1e-12)

    def test_p_value_reasonable(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=50)
        y = rng.normal(size=50)  # independent: p should not be tiny
        _, p = pearson_r(x, y)
        assert p > 0.001

    def test_errors(self):
        with pytest.raises(ValueError):
            pearson_r([1, 2], [1, 2])
        with pytest.raises(ValueError):
            pearson_r([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson_r([1, 2, 3], [1, 2])


def params(fit) -> list[float]:
    """The coefficients in ``(const, *predictors)`` order, the covariance's order."""
    return [fit.coefficients[name] for name in (INTERCEPT, *fit.predictors)]


def synthetic_dataset(seed: int = 42, n: int = 50):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    x3 = rng.normal(size=n)
    y = 0.5 + 0.3 * x1 - 0.7 * x2 + 1.3 * x3 + 0.1 * rng.normal(size=n)
    return {"x1": x1, "x2": x2, "x3": x3, "y": y}


class TestOlsFit:
    def test_two_point_exact_line(self):
        fit = ols_fit({"x": [0.0, 1.0], "y": [1.0, 3.0]}, "y", ["x"])
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-12)
        assert fit.coefficients[INTERCEPT] == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_response(self):
        fit = ols_fit({"x": [1.0, 2.0, 3.0, 4.0], "y": [3.0] * 4}, "y", ["x"])
        assert fit.coefficients["x"] == pytest.approx(0.0, abs=1e-12)
        assert fit.coefficients[INTERCEPT] == pytest.approx(3.0, abs=1e-12)

    def test_planted_coefficients_match_normal_equations_oracle(self):
        data = synthetic_dataset()
        fit = ols_fit(data, "y", ["x1", "x2", "x3"])
        x = np.column_stack(
            [np.ones(50), data["x1"], data["x2"], data["x3"]]
        )
        beta, se, r2, f, rss = ols_normal_equations(x, np.asarray(data["y"]))
        names = [INTERCEPT, "x1", "x2", "x3"]
        for i, name in enumerate(names):
            assert abs(fit.coefficients[name] - beta[i]) < 1e-8
            assert abs(fit.standard_errors[name] - se[i]) < 1e-8
        assert fit.r_squared == pytest.approx(r2, abs=1e-10)
        assert fit.f_statistic == pytest.approx(f, rel=1e-9)
        assert fit.rss == pytest.approx(rss, rel=1e-10)

    def test_residuals_orthogonal_to_predictors(self):
        data = synthetic_dataset(seed=3)
        fit = ols_fit(data, "y", ["x1", "x2", "x3"])
        x = np.column_stack([data["x1"], data["x2"], data["x3"]])
        beta = params(fit)
        design = np.column_stack([np.ones(50), x])
        resid = np.asarray(data["y"]) - design @ beta
        for j in range(x.shape[1]):
            column = x[:, j]
            assert abs(float(resid @ column)) < 1e-8 * float(np.linalg.norm(column))

    def test_rank_deficiency_names_collinear_columns(self):
        rng = np.random.default_rng(11)
        x1 = rng.normal(size=30)
        data = {"x1": x1, "x2": 2 * x1, "y": rng.normal(size=30)}
        with pytest.raises(ValueError, match="collinear"):
            ols_fit(data, "y", ["x1", "x2"])

    def test_rank_deficiency_names_the_whole_dependency(self):
        rng = np.random.default_rng(11)
        x1 = rng.normal(size=30)
        y = rng.normal(size=30)
        doubled = {"x1": x1, "x2": 2 * x1, "x3": rng.normal(size=30), "y": y}
        with pytest.raises(ValueError, match=re.escape("collinear columns: ['x1', 'x2']")):
            ols_fit(doubled, "y", ["x1", "x2", "x3"])
        constant = {"x1": x1, "c5": np.full(30, 5.0), "y": y}
        with pytest.raises(ValueError, match=re.escape("collinear columns: ['c5', 'const']")):
            ols_fit(constant, "y", ["x1", "c5"])
        # The columns' units do not decide which of them are named.
        rescaled = {"x1": x1, "x2": 1e-9 * x1, "y": y}
        with pytest.raises(ValueError, match=re.escape("collinear columns: ['x1', 'x2']")):
            ols_fit(rescaled, "y", ["x1", "x2"])

    def test_all_zero_column_is_named(self):
        rng = np.random.default_rng(11)
        data = {"x": rng.normal(size=30), "z": np.zeros(30), "y": rng.normal(size=30)}
        message = "(condition estimate inf); collinear columns: ['z']"
        with pytest.raises(ValueError, match=re.escape(message)):
            ols_fit(data, "y", ["x", "z"])

    def test_column_units_do_not_decide_the_rank_check(self):
        # Unscaled, [1, 1e7·x] has cond(X)² ≈ 1e14 and would be refused.
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        y = x + rng.normal(size=100)
        plain = ols_fit({"x": x, "y": y}, "y", ["x"])
        big = ols_fit({"x": 1e7 * x, "y": y}, "y", ["x"])
        for name in ("const", "x"):
            assert big.p_values[name] == pytest.approx(plain.p_values[name], rel=1e-9, abs=0)
        assert big.coefficients["x"] == pytest.approx(1e-7 * plain.coefficients["x"], rel=1e-9)

    def test_unconverged_svd_raises_arithmetic_error(self, monkeypatch):
        monkeypatch.setattr(stats, "_JACOBI_SWEEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge in 1 sweeps"):
            ols_fit(synthetic_dataset(), "y", ["x1", "x2", "x3"])

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ols_fit({"x": [1.0, float("nan"), 3.0], "y": [1, 2, 3]}, "y", ["x"])

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            ols_fit({"x": [1.0], "y": [2.0]}, "y", ["x"])

    def test_column_of_the_wrong_length_is_named(self):
        data = {"y": [1.0, 2.0], "a": [1.0, 2.0], "b": [1.0]}
        with pytest.raises(ValueError, match=re.escape("column 'b' has 1 rows, expected 2")):
            ols_fit(data, "y", ["a", "b"])

    def test_missing_column_is_named(self):
        data = {"y": [1.0, 2.0, 4.0], "a": [1.0, 2.0, 3.0]}
        with pytest.raises(KeyError, match="'b'"):
            ols_fit(data, "y", ["a", "b"])
        with pytest.raises(KeyError, match="'q'"):
            ols_fit(data, "q", ["a"])

    def test_affine_response_invariance(self):
        data = synthetic_dataset(seed=5)
        base = ols_fit(data, "y", ["x1", "x2", "x3"])
        a, c = -2.5, 7.0
        scaled = dict(data)
        scaled["y"] = [a * v + c for v in data["y"]]
        other = ols_fit(scaled, "y", ["x1", "x2", "x3"])
        for name in ("x1", "x2", "x3"):
            assert other.coefficients[name] == pytest.approx(
                a * base.coefficients[name], abs=1e-9
            )
        assert other.r_squared == pytest.approx(base.r_squared, abs=1e-9)
        assert other.f_statistic == pytest.approx(base.f_statistic, rel=1e-9)


class TestExactOracle:
    # Powers of t = 1.000, 1.001, ..., 1.059: nearly collinear columns.
    T = np.arange(1000, 1060) / 1000

    @classmethod
    def polynomial(cls, degree):
        rng = np.random.default_rng(19)
        columns = {f"t{k}": cls.T**k for k in range(1, degree + 1)}
        columns["y"] = 1.0 + np.sin(40 * cls.T) + 0.1 * rng.normal(size=60)
        return columns, [f"t{k}" for k in range(1, degree + 1)]

    def test_quadratic_design_matches_exact_solution(self):
        # cond(X) is 1.7e4 here, so cond(XᵀX) is 2.8e8: solving the normal
        # equations in floats loses about eight digits.
        data, predictors = self.polynomial(2)
        fit = ols_fit(data, "y", predictors)
        x = np.column_stack([np.ones(60)] + [data[name] for name in predictors])
        exact = ols_exact(x, data["y"])
        for got, want in zip(params(fit), exact):
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_cubic_design_is_rejected(self):
        # cond(X) of the unit-norm columns is 2.4e6, so its square is 5.7e12,
        # past the 1e12 limit.
        data, predictors = self.polynomial(3)
        with pytest.raises(ValueError, match="ill-conditioned"):
            ols_fit(data, "y", predictors)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_reduced_model_never_beats_full_r_squared(seed):
    rng = np.random.default_rng(seed)
    n = 25
    data = {
        "x1": rng.normal(size=n),
        "x2": rng.normal(size=n),
        "y": rng.normal(size=n),
    }
    full = ols_fit(data, "y", ["x1", "x2"])
    reduced = ols_fit(data, "y", ["x1"])
    assert full.r_squared >= reduced.r_squared - 1e-12


class TestNestedFTest:
    def test_identical_models(self):
        data = synthetic_dataset()
        fit = ols_fit(data, "y", ["x1", "x2"])
        result = nested_f_test(fit, fit)
        assert result.f_value == 0.0 and result.p_value == 1.0

    def test_non_nested_rejected(self):
        data = synthetic_dataset()
        full = ols_fit(data, "y", ["x1", "x2"])
        other = ols_fit(data, "y", ["x3"])
        with pytest.raises(ValueError, match="nested"):
            nested_f_test(full, other)

    def test_pure_noise_column_not_significant(self):
        data = synthetic_dataset(seed=1)
        rng = np.random.default_rng(2)
        data["noise"] = rng.normal(size=50)
        full = ols_fit(data, "y", ["x1", "x2", "x3", "noise"])
        reduced = ols_fit(data, "y", ["x1", "x2", "x3"])
        result = nested_f_test(full, reduced)
        assert result.df1 == 1
        assert result.p_value > 0.05

    def test_true_generating_column_is_significant(self):
        data = synthetic_dataset(seed=1)
        full = ols_fit(data, "y", ["x1", "x2", "x3"])
        reduced = ols_fit(data, "y", ["x1", "x2"])
        result = nested_f_test(full, reduced)
        assert result.p_value < 0.001

    def test_null_p_values_uniform_and_calibrated(self):
        rng = np.random.default_rng(12345)
        n, reps = 60, 1000
        p_values = []
        for _ in range(reps):
            x1 = rng.normal(size=n)
            x2 = rng.normal(size=n)
            noise_col = rng.normal(size=n)
            y = 1.0 + 0.5 * x1 - 0.7 * x2 + rng.normal(size=n)
            data = {"x1": x1, "x2": x2, "noise": noise_col, "y": y}
            full = ols_fit(data, "y", ["x1", "x2", "noise"])
            reduced = ols_fit(data, "y", ["x1", "x2"])
            p_values.append(nested_f_test(full, reduced).p_value)
        rejection = sum(p < 0.05 for p in p_values) / reps
        assert 0.03 <= rejection <= 0.07
        assert ks_statistic_uniform(p_values) <= 0.05


class TestPerfectFit:
    """The overall F and the nested test share one rule for a zero residual sum of squares.

    The x column is orthogonal to the intercept, so the SVD needs no rotation
    and the fit of an exactly linear y leaves residuals of exactly zero.
    """

    X = [-1.0, 1.0, -1.0, 1.0]

    def test_exact_line_gives_infinite_f(self):
        data = {"x": self.X, "y": [0.0, 2.0, 0.0, 2.0]}  # y = 1 + x
        fit = ols_fit(data, "y", ["x"])
        assert (fit.rss, fit.tss) == (0.0, 4.0)
        assert (fit.f_statistic, fit.f_p_value, fit.f_df) == (math.inf, 0.0, (1, 2))
        result = nested_f_test(fit, ols_fit(data, "y", []))
        assert (result.f_value, result.p_value, result.df1, result.df2) == (math.inf, 0.0, 1, 2)

    def test_exact_constant_gives_nan_f(self):
        fit = ols_fit({"x": self.X, "y": [3.0] * 4}, "y", ["x"])
        assert (fit.rss, fit.tss) == (0.0, 0.0)
        assert math.isnan(fit.f_statistic) and math.isnan(fit.f_p_value)

    def test_constant_with_rounding_residue_gives_nan_f(self):
        # Here the SVD rotates, and the residuals keep a rounding residue; a
        # constant response still has no overall F, as in the exact case.
        fit = ols_fit({"x": [1.0, 2.0, 3.0, 4.0], "y": [3.0] * 4}, "y", ["x"])
        assert fit.tss == 0.0 and fit.rss > 0.0
        assert math.isnan(fit.f_statistic) and math.isnan(fit.f_p_value)


class TestTailPValues:
    """At N near 1000 strong effects have p-values far below 1e-16; none may read 0."""

    @staticmethod
    def data():
        rng = np.random.default_rng(97)
        n = 997
        x1, x2, x3 = rng.normal(size=(3, n))
        return {"x1": x1, "x2": x2, "x3": x3, "y": 0.45 * x1 + 0.3 * x3 + rng.normal(size=n)}

    @staticmethod
    def f_tail(f, df1, df2):
        return betainc_series(df2 / 2, df1 / 2, df2 / (df1 * f + df2))

    def test_ols_coefficient_and_overall_f(self):
        fit = ols_fit(self.data(), "y", ["x1", "x2", "x3"])
        df2 = fit.residual_df
        t = fit.coefficients["x1"] / fit.standard_errors["x1"]
        assert 0.0 < fit.p_values["x1"] < 1e-20
        assert fit.p_values["x1"] == pytest.approx(self.f_tail(t * t, 1, df2), rel=1e-9)
        assert 0.0 < fit.f_p_value < 1e-20
        assert fit.f_p_value == pytest.approx(self.f_tail(fit.f_statistic, 3, df2), rel=1e-9)

    def test_nested_and_linear_hypothesis(self):
        data = self.data()
        full = ols_fit(data, "y", ["x1", "x2", "x3"])
        nested = nested_f_test(full, ols_fit(data, "y", ["x2", "x3"]))
        assert 0.0 < nested.p_value < 1e-20
        expected = self.f_tail(nested.f_value, 1, nested.df2)
        assert nested.p_value == pytest.approx(expected, rel=1e-9)
        single = linear_hypothesis(full, [0.0, 1.0, 0.0, 0.0])
        assert single.p_value == pytest.approx(full.p_values["x1"], rel=1e-9)

    def test_pearson(self):
        data = self.data()
        r, p = pearson_r(data["x1"], data["y"])
        n = len(data["y"])
        t2 = r * r * (n - 2) / (1.0 - r * r)
        assert 0.0 < p < 1e-20
        assert p == pytest.approx(self.f_tail(t2, 1, n - 2), rel=1e-9)


class TestLinearHypothesis:
    def test_zero_f_at_fitted_value(self):
        data = synthetic_dataset()
        fit = ols_fit(data, "y", ["x1", "x2"])
        weights = [0.0, 1.0, 0.0]
        result = linear_hypothesis(fit, weights, target=fit.coefficients["x1"])
        assert result.f_value == pytest.approx(0.0, abs=1e-18)
        assert result.p_value == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        data = synthetic_dataset()
        fit = ols_fit(data, "y", ["x1"])
        with pytest.raises(ValueError, match="dimension"):
            linear_hypothesis(fit, [1.0, 0.0, 0.0])

    def test_opposed_coefficients_accepted(self):
        # Planted b1 = -b2: H0 b1 + b2 = 0 should usually not reject.
        rng = np.random.default_rng(99)
        n = 200
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = 0.8 * x1 - 0.8 * x2 + rng.normal(size=n)
        fit = ols_fit({"x1": x1, "x2": x2, "y": y}, "y", ["x1", "x2"])
        result = linear_hypothesis(fit, [0.0, 1.0, 1.0], 0.0)
        assert result.df1 == 1
        assert result.p_value > 0.01

    def test_violated_hypothesis_rejected(self):
        # Planted b1 + b2 = 1: H0 b1 + b2 = 0 should reject strongly.
        rng = np.random.default_rng(100)
        n = 400
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = 0.9 * x1 + 0.1 * x2 + 0.3 * rng.normal(size=n)
        fit = ols_fit({"x1": x1, "x2": x2, "y": y}, "y", ["x1", "x2"])
        result = linear_hypothesis(fit, [0.0, 1.0, 1.0], 0.0)
        assert result.p_value < 0.01

    def test_null_calibration(self):
        rng = np.random.default_rng(777)
        n, reps = 60, 1000
        p_values = []
        for _ in range(reps):
            x1 = rng.normal(size=n)
            x2 = rng.normal(size=n)
            beta = rng.normal() * 0.7
            y = beta * x1 - beta * x2 + rng.normal(size=n)
            fit = ols_fit({"x1": x1, "x2": x2, "y": y}, "y", ["x1", "x2"])
            p_values.append(linear_hypothesis(fit, [0.0, 1.0, 1.0], 0.0).p_value)
        rejection = sum(p < 0.05 for p in p_values) / reps
        assert 0.03 <= rejection <= 0.07


def test_reparameterized_model_reproduces_predictions():
    # When the truth uses determinism and degeneracy only through their
    # difference, the difference-based model loses nothing: identical
    # predictions on noiseless data.
    rng = np.random.default_rng(2024)
    n = 40
    det = rng.uniform(0.3, 1.0, size=n)
    deg = rng.uniform(0.0, 0.6, size=n)
    strength = rng.normal(size=n)
    y = 2.0 + 0.9 * (det - deg) + 0.3 * strength
    data = {"det": det, "deg": deg, "ei": det - deg, "strength": strength, "y": y}
    pair_fit = ols_fit(data, "y", ["det", "deg", "strength"])
    diff_fit = ols_fit(data, "y", ["ei", "strength"])
    x_pair = np.column_stack([np.ones(n), det, deg, strength])
    x_diff = np.column_stack([np.ones(n), det - deg, strength])
    pred_pair = x_pair @ params(pair_fit)
    pred_diff = x_diff @ params(diff_fit)
    assert np.max(np.abs(pred_pair - pred_diff)) < 1e-9
    assert np.max(np.abs(pred_pair - y)) < 1e-9


class TestRowOrder:
    """Shuffled rows give bit-identical results: every sum over rows is an
    ``fsum``, and a BLAS or pairwise sum would change the last bits."""

    VARIABLES = Path(__file__).parent / "fixtures" / "miniwiki" / "golden" / "variables.csv"

    @staticmethod
    def shuffled(columns: dict[str, list[float]]):
        n = len(next(iter(columns.values())))
        for seed in range(20):
            order = random.Random(seed).sample(range(n), n)
            yield {name: [values[i] for i in order] for name, values in columns.items()}

    def test_model_1_fit(self):
        columns = _read_model_columns(self.VARIABLES)
        base = ols_fit(columns, "quality_log", MODEL_1)
        for shuffled in self.shuffled(columns):
            fit = ols_fit(shuffled, "quality_log", MODEL_1)
            assert fit.coefficients == base.coefficients
            assert fit.standard_errors == base.standard_errors
            assert fit.rss == base.rss

    def test_descriptives(self):
        columns = _read_model_columns(self.VARIABLES)
        for name in ("det_norm", "q_score"):
            base = descriptives(columns[name])
            for shuffled in self.shuffled({name: columns[name]}):
                assert descriptives(shuffled[name]) == base
