import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicomm.stats import (
    INTERCEPT,
    DataMatrix,
    Descriptives,
    descriptives,
    linear_hypothesis,
    nested_f_test,
    ols_fit,
    pearson_r,
)

from oracles import betainc_series, ks_statistic_uniform, ols_normal_equations


class TestDescriptives:
    def test_basic(self):
        d = descriptives([1, 2, 3])
        assert (d.mean, d.sd, d.median) == (2.0, 1.0, 2.0)

    def test_single_value_sd_undefined(self):
        d = descriptives([5])
        assert d == Descriptives(mean=5.0, sd=None, median=5.0, n=1)

    def test_even_count_median_midpoint(self):
        assert descriptives([1, 2, 3, 100]).median == 2.5

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            descriptives([])


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
        beta = fit.param_vector()
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

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ols_fit({"x": [1.0, float("nan"), 3.0], "y": [1, 2, 3]}, "y", ["x"])

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            ols_fit({"x": [1.0], "y": [2.0]}, "y", ["x"])

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
    pred_pair = x_pair @ pair_fit.param_vector()
    pred_diff = x_diff @ diff_fit.param_vector()
    assert np.max(np.abs(pred_pair - pred_diff)) < 1e-9
    assert np.max(np.abs(pred_pair - y)) < 1e-9


class TestDataMatrix:
    def test_from_csv_and_matrix(self):
        import io

        dm = DataMatrix.from_csv(
            io.StringIO("name,a,b\np1,1.5,2\np2,2.5,4\n"), skip=["name"]
        )
        assert dm.names == ("a", "b")
        assert dm.n_rows == 2
        assert dm.matrix(["b", "a"]).tolist() == [[2.0, 1.5], [4.0, 2.5]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DataMatrix({"a": [1, 2], "b": [1]})

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            DataMatrix({"a": [1, 2]}).column("b")
