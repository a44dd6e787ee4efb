import math
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdgap import spectra, waterfill
from rdgap.errors import SolverError

TWO_LEVEL = spectra.parse_spectrum("1.8:0.5,0.2:0.5")
SEMI_HALF = spectra.semi_flat(0.5)
FLAT = spectra.flat()

# Frozen by an independent high-precision (50-digit decimal) bisection oracle.
RR_WF_TWO_LEVEL_AT_02 = 0.792481250360578
# Frozen from tools/oracle_derived.py (50-digit reverse waterfilling): one
# active level at R = 0.3, both at R = 1.3.
DD_WF_TWO_LEVEL = {0.3: 0.4917477534832559, 1.3: 0.09896309330796707}
# The `wf` subcommand's default distortion grid, 0.05:0.95:0.05.
WF_DEFAULT_GRID = [float(Decimal(i) / 20) for i in range(1, 20)]


class TestDWf:
    def test_flat_quarter(self):
        assert waterfill.d_wf(FLAT, 0.25) == 0.25

    def test_semi_flat_level_one(self):
        assert waterfill.d_wf(SEMI_HALF, 1.0) == 0.5

    def test_two_level(self):
        assert waterfill.d_wf(TWO_LEVEL, 0.5) == pytest.approx(0.35, abs=1e-15)

    def test_saturates_at_one(self):
        assert waterfill.d_wf(TWO_LEVEL, 1.8) == 1.0
        assert waterfill.d_wf(TWO_LEVEL, 7.0) == 1.0

    @pytest.mark.parametrize("t", [0.0, -0.5])
    def test_nonpositive_t(self, t):
        with pytest.raises(ValueError):
            waterfill.d_wf(FLAT, t)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=300))
    def test_nondecreasing_in_t(self, k, seed):
        s = spectra.sample_random(k, seed)
        grid = [0.01 * i for i in range(1, 150)]
        ds = [waterfill.d_wf(s, t) for t in grid]
        assert all(a <= b + 1e-15 for a, b in zip(ds, ds[1:]))
        assert all(0.0 < d <= 1.0 for d in ds)


class TestRWf:
    def test_flat_quarter(self):
        assert waterfill.r_wf(FLAT, 0.25) == 1.0

    def test_semi_flat(self):
        assert waterfill.r_wf(SEMI_HALF, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_zero_above_max(self):
        assert waterfill.r_wf(TWO_LEVEL, 1.8) == 0.0
        assert waterfill.r_wf(TWO_LEVEL, 10.0) == 0.0

    def test_zero_levels_contribute_nothing(self):
        # semi_flat(0.5) has a zero level; rate must stay finite and equal
        # the active-level term alone.
        assert waterfill.r_wf(SEMI_HALF, 0.125) == 0.5 * 0.5 * math.log2(2.0 / 0.125)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=300))
    def test_nonincreasing_in_t(self, k, seed):
        s = spectra.sample_random(k, seed)
        grid = [0.01 * i for i in range(1, 150)]
        rs = [waterfill.r_wf(s, t) for t in grid]
        assert all(a >= b - 1e-15 for a, b in zip(rs, rs[1:]))
        assert all(r >= 0.0 for r in rs)


class TestTForDistortion:
    def test_flat(self):
        assert waterfill.t_for_distortion(FLAT, 0.25) == 0.25

    def test_semi_flat(self):
        assert waterfill.t_for_distortion(SEMI_HALF, 0.5) == 1.0

    def test_two_level_inverse(self):
        assert waterfill.t_for_distortion(TWO_LEVEL, 0.35) == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("d", [0.0, 1.0, 1.5, -0.2])
    def test_domain_errors(self, d):
        with pytest.raises(ValueError):
            waterfill.t_for_distortion(FLAT, d)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=200))
    def test_round_trip(self, k, seed):
        s = spectra.sample_random(k, seed)
        for i in range(1, 20):
            d = 0.005 + (0.995 - 0.005) * i / 20.0
            t = waterfill.t_for_distortion(s, d)
            assert abs(waterfill.d_wf(s, t) - d) < 1e-10


class TestRrWf:
    def test_flat_closed_form(self):
        assert waterfill.rr_wf(FLAT, 0.25) == 1.0

    def test_semi_flat_half(self):
        # (f/2) log2(1/D) with f=0.5, D=0.5.
        assert waterfill.rr_wf(SEMI_HALF, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_two_level_oracle_value(self):
        assert waterfill.rr_wf(TWO_LEVEL, 0.2) == pytest.approx(
            RR_WF_TWO_LEVEL_AT_02, abs=1e-12
        )

    def test_strictly_decreasing_in_distortion(self):
        s = spectra.sample_random(5, 17)
        grid = [0.05 * i for i in range(1, 20)]
        rs = [waterfill.rr_wf(s, d) for d in grid]
        assert all(a > b for a, b in zip(rs, rs[1:]))


class TestDdWf:
    def test_flat_rate_one(self):
        assert waterfill.dd_wf(FLAT, 1.0) == 0.25

    def test_rate_zero_is_one(self):
        assert waterfill.dd_wf(FLAT, 0.0) == 1.0
        assert waterfill.dd_wf(TWO_LEVEL, 0.0) == 1.0

    def test_semi_flat_half(self):
        # rr_wf(semi_flat(0.5), D) = 0.25 log2(1/D); rate 0.5 inverts to 0.25.
        assert waterfill.dd_wf(SEMI_HALF, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_negative_rate(self):
        # NaN is refused by the rate's own check, not by the water level's.
        for rate in (-0.1, math.nan):
            with pytest.raises(ValueError, match="rate must be nonnegative"):
                waterfill.dd_wf(FLAT, rate)

    def test_flat_closed_form_grid(self):
        for i in range(1, 61):
            r = 0.1 * i
            assert abs(waterfill.dd_wf(FLAT, r) - 2.0 ** (-2.0 * r)) < 1e-10

    @pytest.mark.parametrize("rate", sorted(DD_WF_TWO_LEVEL))
    def test_two_level_oracle_value(self, rate):
        assert waterfill.dd_wf(TWO_LEVEL, rate) == pytest.approx(
            DD_WF_TWO_LEVEL[rate], abs=1e-13
        )

    def test_water_level_underflow_is_solver_error(self):
        # t = 2^(-2R) on the flat spectrum: the smallest normal double at
        # R = 511, subnormal beyond.
        assert waterfill.dd_wf(FLAT, 511.0) == 2.0**-1022
        for r in (511.5, 600.0):
            with pytest.raises(SolverError):
                waterfill.dd_wf(FLAT, r)
        with pytest.raises(SolverError):
            waterfill.dd_wf(spectra.semi_flat(0.01), 10.0)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=200))
    def test_inverts_rr_wf(self, k, seed):
        s = spectra.sample_random(k, seed)
        for d in (0.1, 0.5, 0.9):
            r = waterfill.rr_wf(s, d)
            assert abs(waterfill.dd_wf(s, r) - d) < 1e-9


class TestTForRate:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=300),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_round_trip(self, k, seed, rate):
        s = spectra.sample_random(k, seed)
        t = waterfill._t_for_rate(s.values, s.weights, rate)
        assert abs(waterfill.r_wf(s, t) - rate) <= 1e-13 * rate

    @pytest.mark.parametrize("f", [0.1, 0.5])
    def test_zero_level_stays_inactive(self, f):
        s = spectra.semi_flat(f)
        for rate in (0.05, 1.0, 8.0):
            t = waterfill._t_for_rate(s.values, s.weights, rate)
            assert t == pytest.approx(2.0 ** (-2.0 * rate / f) / f, rel=1e-13)
            assert abs(waterfill.r_wf(s, t) - rate) <= 1e-13 * rate

    @pytest.mark.parametrize("rate", [0.05, 0.5, 3.0])
    def test_tied_levels_act_as_one(self, rate):
        # Raw arrays may repeat a level and need not be sorted.
        tied = waterfill._t_for_rate([0.5, 2.0, 0.5, 2.0], [0.3, 0.2, 0.3, 0.2], rate)
        merged = waterfill._t_for_rate([2.0, 0.5], [0.4, 0.6], rate)
        assert tied == pytest.approx(merged, rel=1e-14)


class TestWfPoint:
    """A point of the `wf` subcommand's curve: t from t_for_distortion, its rate from r_wf."""

    def test_point_consistency(self):
        t = waterfill.t_for_distortion(TWO_LEVEL, 0.35)
        assert abs(0.35 - waterfill.d_wf(TWO_LEVEL, t)) < 1e-10
        assert waterfill.rr_wf(TWO_LEVEL, 0.35) == waterfill.r_wf(TWO_LEVEL, t)

    def test_flat_level_is_exact_on_default_grid(self):
        for d in WF_DEFAULT_GRID:
            assert waterfill.t_for_distortion(FLAT, d) == d

    def test_rate_zero_iff_level_above_max(self):
        assert waterfill.r_wf(TWO_LEVEL, 1.8) == 0.0
        assert waterfill.r_wf(TWO_LEVEL, 1.7999) > 0.0
