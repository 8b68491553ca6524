import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicomm.special import f_sf, log_beta, regularized_incomplete_beta, t_sf

from oracles import betainc_series

# 10 x 10 grid: shape pairs spanning symmetric, skewed, and large-df regimes.
GRID_SHAPES = [
    (0.5, 0.5), (1.0, 1.0), (2.0, 3.0), (0.7, 4.2), (5.0, 5.0),
    (9.5, 0.5), (12.0, 2.5), (30.0, 30.0), (2.5, 495.5), (250.0, 125.0),
]
GRID_X = [0.001, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 0.999, 0.31830988618]


class TestLogBeta:
    def test_integer_identity(self):
        # B(3, 4) = 2! 3! / 6! = 1/60
        assert log_beta(3, 4) == pytest.approx(math.log(1 / 60), abs=1e-13)

    def test_symmetry(self):
        assert log_beta(2.5, 7.1) == pytest.approx(log_beta(7.1, 2.5), abs=1e-13)

    def test_invalid(self):
        with pytest.raises(ValueError):
            log_beta(0, 1)


class TestRegularizedIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2, 3, 0.0) == 0.0
        assert regularized_incomplete_beta(2, 3, 1.0) == 1.0

    def test_exact_binomial_form(self):
        # For integer shapes, I_x(a, b) = sum_{j=a}^{a+b-1} C(a+b-1, j) x^j (1-x)^(a+b-1-j).
        x, a, b = 0.4, 2, 3
        exact = sum(
            math.comb(a + b - 1, j) * x**j * (1 - x) ** (a + b - 1 - j)
            for j in range(a, a + b)
        )
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(exact, abs=1e-14)

    def test_uniform_case(self):
        for x in (0.1, 0.37, 0.9):
            assert regularized_incomplete_beta(1, 1, x) == pytest.approx(x, abs=1e-14)

    def test_grid_against_series_oracle(self):
        checked = 0
        for a, b in GRID_SHAPES:
            for x in GRID_X:
                expected = betainc_series(a, b, x)
                actual = regularized_incomplete_beta(a, b, x)
                assert abs(actual - expected) <= 1e-10, (a, b, x)
                checked += 1
        assert checked == 100

    def test_symmetry_identity(self):
        for a, b in GRID_SHAPES:
            for x in (0.2, 0.5, 0.77):
                left = regularized_incomplete_beta(a, b, x)
                right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
                assert left == pytest.approx(right, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1, 2, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(2, 2, 1.5)

    @given(
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_x_and_bounded(self, a, b, x):
        value = regularized_incomplete_beta(a, b, x)
        assert 0.0 <= value <= 1.0
        if x <= 0.999:
            assert regularized_incomplete_beta(a, b, min(1.0, x + 0.001)) >= value - 1e-12


class TestFTail:
    def test_at_zero(self):
        assert f_sf(0.0, 3, 7) == 1.0

    def test_symmetric_dfs_median_at_one(self):
        assert f_sf(1.0, 10, 10) == pytest.approx(0.5, abs=1e-12)
        assert f_sf(1.0, 991, 991) == pytest.approx(0.5, abs=1e-10)

    def test_against_series_oracle_on_the_complementary_argument(self):
        # P(F > x) = I_{1-w}(df2/2, df1/2) with w = df1·x / (df1·x + df2).
        for x, df1, df2 in [(2.5, 5, 991), (59.66, 5, 991), (0.178, 4, 991), (2.11, 1, 992)]:
            expected = betainc_series(df2 / 2, df1 / 2, df2 / (df1 * x + df2))
            assert f_sf(x, df1, df2) == pytest.approx(expected, abs=1e-10)

    def test_invalid(self):
        with pytest.raises(ValueError):
            f_sf(-1.0, 2, 2)
        with pytest.raises(ValueError):
            f_sf(1.0, 0, 2)


class TestTTail:
    def test_symmetry_at_zero(self):
        assert t_sf(0.0, 7) == 0.5

    def test_symmetry_identity(self):
        for x in (0.5, 1.3, 2.7):
            for df in (1, 5, 30, 995):
                assert t_sf(x, df) + t_sf(-x, df) == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_case(self):
        # df = 1 is the Cauchy distribution: P(T > x) = 1/2 - atan(x)/pi.
        for x in (-2.0, 0.3, 4.0):
            expected = 0.5 - math.atan(x) / math.pi
            assert t_sf(x, 1) == pytest.approx(expected, abs=1e-12)

    def test_squared_t_is_f(self):
        # If T ~ t(df) then T^2 ~ F(1, df).
        for x in (0.7, 1.9, 3.2):
            for df in (4, 60):
                assert 2.0 * t_sf(x, df) == pytest.approx(f_sf(x * x, 1, df), abs=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            t_sf(1.0, 0)


class TestUpperTails:
    # (F, df1, df2) and (t, df) from the tail of the paper's scale (N about 1000)
    # out to tails far below the 1e-16 that 1 - cdf can resolve.
    F_CASES = [(2.5, 5, 991), (8.0, 5, 991), (59.66, 5, 991), (25.0, 1, 992), (150.0, 3, 500)]
    T_CASES = [(2.0, 30), (6.0, 10), (12.0, 991), (30.0, 50)]

    def test_f_tail_relative_accuracy_against_series_oracle(self):
        for x, df1, df2 in self.F_CASES:
            expected = betainc_series(df2 / 2, df1 / 2, df2 / (df1 * x + df2))
            assert f_sf(x, df1, df2) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_t_tail_relative_accuracy_against_series_oracle(self):
        for x, df in self.T_CASES:
            expected = 0.5 * betainc_series(df / 2, 0.5, df / (df + x * x))
            assert t_sf(x, df) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_tails_where_one_minus_cdf_cancels_to_zero(self):
        # I_w(df1/2, df2/2) is the F CDF and I_w(1/2, df/2) is P(|T| < t); this
        # far out both round to 1.0, so a tail written as 1 - cdf reads 0.
        f_w = 5 * 59.66 / (5 * 59.66 + 991)
        assert 1.0 - regularized_incomplete_beta(5 / 2, 991 / 2, f_w) == 0.0
        t_w = 12.0**2 / (991 + 12.0**2)
        assert 1.0 - regularized_incomplete_beta(0.5, 991 / 2, t_w) == 0.0
        assert f_sf(59.66, 5, 991) == pytest.approx(2.2154823784936656e-54, rel=1e-10)
        assert 2.0 * t_sf(12.0, 991) == pytest.approx(4.4998417863e-31, rel=1e-10)

    def test_complement_of_cdf_in_the_body(self):
        for x, df1, df2 in [(0.3, 2, 5), (1.0, 10, 10), (2.5, 5, 991), (0.9, 1, 40)]:
            cdf = regularized_incomplete_beta(df1 / 2, df2 / 2, df1 * x / (df1 * x + df2))
            assert f_sf(x, df1, df2) + cdf == pytest.approx(1.0, abs=1e-12)
        for x in (-3.0, -0.4, 0.0, 0.4, 3.0):
            for df in (1, 7, 995):
                cdf = 0.5 + math.copysign(0.5, x) * regularized_incomplete_beta(
                    0.5, df / 2, x * x / (df + x * x)
                )
                assert t_sf(x, df) + cdf == pytest.approx(1.0, abs=1e-12)

    def test_endpoints(self):
        assert f_sf(0.0, 3, 7) == 1.0
        assert f_sf(math.inf, 3, 7) == 0.0
        assert t_sf(0.0, 7) == 0.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            f_sf(-1.0, 2, 2)
        with pytest.raises(ValueError):
            f_sf(1.0, 2, 0)
        with pytest.raises(ValueError):
            t_sf(1.0, 0)


def test_against_scipy_if_available():
    scipy_special = pytest.importorskip("scipy.special")
    for a, b in GRID_SHAPES:
        for x in GRID_X:
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(scipy_special.betainc(a, b, x)), abs=1e-12
            )
