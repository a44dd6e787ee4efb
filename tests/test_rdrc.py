import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdgap import rdrc, simulator, spectra, waterfill
from rdgap.errors import SolverError

TWO_LEVEL = spectra.parse_spectrum("1.8:0.5,0.2:0.5")
SEMI_HALF = spectra.semi_flat(0.5)
FLAT = spectra.flat()

# Frozen by an independent high-precision (50-digit decimal) oracle:
# closed-form quadratic roots for the two-level spectrum, refined bisection.
T_RC_TWO_LEVEL_RATE2 = 23.9813212862051
T_RC_TWO_LEVEL_D02 = 3.067109605220082
RR_RC_TWO_LEVEL_AT_02 = 0.8487930335740901
RR_WF_TWO_LEVEL_AT_02 = 0.792481250360578


def _bisect_t_for_distortion(values, weights, d_star):
    """Reference T(d_star): double the bracket, then plain bisection of _d_rc."""
    lo, hi = 0.0, 1.0
    while rdrc._d_rc(values, weights, hi) > d_star:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if rdrc._d_rc(values, weights, mid) > d_star:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDRc:
    def test_flat(self):
        assert rdrc.d_rc(FLAT, 3.0) == 0.25

    def test_t_zero_is_one(self):
        assert rdrc.d_rc(FLAT, 0.0) == 1.0
        assert rdrc.d_rc(spectra.sample_random(6, 12), 0.0) == 1.0

    def test_semi_flat(self):
        assert rdrc.d_rc(SEMI_HALF, 1.5) == 0.25

    @pytest.mark.parametrize("T", [-0.1, math.nan, math.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize(
        "curve",
        [rdrc.d_rc, rdrc.r_rc, lambda s, T: rdrc.d_rc_per_w(s, [1.0, 1.0], T)],
        ids=["d_rc", "r_rc", "d_rc_per_w"],
    )
    def test_negative_t(self, curve, T):
        # T must lie in [0, inf): a nan T, and an infinite one (0 * inf is nan
        # at the zero level), would otherwise come back as a nan curve value.
        with pytest.raises(ValueError):
            curve(SEMI_HALF, T)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=200))
    def test_strictly_decreasing(self, k, seed):
        s = spectra.sample_random(k, seed)
        grid = [0.25 * i for i in range(40)]
        ds = [rdrc.d_rc(s, T) for T in grid]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert all(0.0 < d <= 1.0 for d in ds)


class TestRRc:
    def test_flat(self):
        assert rdrc.r_rc(FLAT, 3.0) == 1.0

    def test_semi_flat(self):
        assert rdrc.r_rc(SEMI_HALF, 1.5) == 0.5

    def test_t_zero(self):
        assert rdrc.r_rc(TWO_LEVEL, 0.0) == 0.0

    def test_zero_levels_contribute_nothing(self):
        assert rdrc.r_rc(SEMI_HALF, 3.0) == 0.5 * 0.5 * math.log2(1.0 + 2.0 * 3.0)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=200))
    def test_strictly_increasing(self, k, seed):
        s = spectra.sample_random(k, seed)
        grid = [0.25 * i for i in range(40)]
        rs = [rdrc.r_rc(s, T) for T in grid]
        assert all(a < b for a, b in zip(rs, rs[1:]))


class TestSolvers:
    def test_rate_flat(self):
        assert rdrc.t_rc_for_rate(FLAT, 1.0) == 3.0

    def test_rate_semi_flat(self):
        assert rdrc.t_rc_for_rate(SEMI_HALF, 0.5) == 1.5

    def test_rate_two_level_oracle(self):
        T = rdrc.t_rc_for_rate(TWO_LEVEL, 2.0)
        assert T == pytest.approx(T_RC_TWO_LEVEL_RATE2, rel=1e-12)

    def test_distortion_flat(self):
        assert rdrc.t_rc_for_distortion(FLAT, 0.25) == 3.0

    def test_distortion_semi_flat_quarter(self):
        assert rdrc.t_rc_for_distortion(spectra.semi_flat(0.25), 0.25) == 0.75

    def test_distortion_two_level_oracle(self):
        T = rdrc.t_rc_for_distortion(TWO_LEVEL, 0.2)
        assert T == pytest.approx(T_RC_TWO_LEVEL_D02, rel=1e-12)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_rate_domain(self, rate):
        with pytest.raises(ValueError):
            rdrc.t_rc_for_rate(FLAT, rate)

    @pytest.mark.parametrize("d", [0.0, 1.0, -0.2, 1.3])
    def test_distortion_domain(self, d):
        with pytest.raises(ValueError):
            rdrc.t_rc_for_distortion(FLAT, d)

    def test_distortion_at_or_above_mean_is_solver_error(self):
        # Raw arrays need not have unit mean; d_star must lie below sum w*v.
        with pytest.raises(SolverError):
            rdrc._t_for_distortion_newton([2.0, 0.0], [0.5, 0.5], 1.0)

    def test_unreachable_rate_is_solver_error(self):
        with pytest.raises(SolverError):
            rdrc.t_rc_for_rate(FLAT, 200.0)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=150))
    def test_round_trips(self, k, seed):
        s = spectra.sample_random(k, seed)
        for r in (0.1, 0.5, 1.0, 2.5):
            assert abs(rdrc.r_rc(s, rdrc.t_rc_for_rate(s, r)) - r) < 1e-10
        for d in (0.05, 0.3, 0.7, 0.95):
            assert abs(rdrc.d_rc(s, rdrc.t_rc_for_distortion(s, d)) - d) < 1e-10

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=150))
    def test_newton_and_bisection_routes_agree(self, k, seed):
        # The Newton solver must agree with an independent bisection.
        s = spectra.sample_random(k, seed)
        for d in (0.05, 0.4, 0.9):
            slow = _bisect_t_for_distortion(list(s.values), list(s.weights), d)
            fast = rdrc._t_for_distortion_newton(list(s.values), list(s.weights), d)
            assert fast == pytest.approx(slow, rel=1e-10)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e4)),
                st.floats(min_value=1e-3, max_value=10.0),
            ),
            min_size=1,
            max_size=8,
        ).filter(lambda levels: any(v > 0.0 for v, _ in levels)),
        st.floats(min_value=-6.0, max_value=math.log10(0.999)),
    )
    def test_newton_on_raw_arrays(self, levels, log_frac):
        # Raw arrays: weights need not sum to 1, the mean need not be 1, zero
        # levels are allowed, the top level goes up to 1e4, and d_star goes
        # down to 1e-6 of the zero-rate distortion sum w*v.
        values = [v for v, _ in levels]
        weights = [w for _, w in levels]
        mean = rdrc._d_rc(values, weights, 0.0)
        d_star = 10.0**log_frac * mean
        T = rdrc._t_for_distortion_newton(values, weights, d_star)
        assert (mean / d_star - 1.0) / max(values) <= T <= sum(weights) / d_star
        assert abs(rdrc._d_rc(values, weights, T) - d_star) <= 1e-12 * d_star


class TestCompositions:
    def test_dd_rc_flat(self):
        assert rdrc.dd_rc(FLAT, 1.0) == 0.25

    def test_dd_rc_rate_zero(self):
        assert rdrc.dd_rc(TWO_LEVEL, 0.0) == 1.0

    def test_semi_flat_curves_coincide(self):
        for f in (0.1, 0.3, 0.5, 1.0):
            s = spectra.semi_flat(f)
            for d in (0.1, 0.5, 0.9):
                assert abs(rdrc.rr_rc(s, d) - waterfill.rr_wf(s, d)) < 1e-9

    def test_two_level_rate_strictly_above_oracle(self):
        r_rc_val = rdrc.rr_rc(TWO_LEVEL, 0.2)
        assert r_rc_val == pytest.approx(RR_RC_TWO_LEVEL_AT_02, abs=1e-12)
        assert r_rc_val > waterfill.rr_wf(TWO_LEVEL, 0.2)


class TestDRcPerW:
    def test_all_ones_reduces_to_d_rc(self):
        for s in (FLAT, TWO_LEVEL, spectra.sample_random(5, 8)):
            assert rdrc.d_rc_per_w(s, [1.0] * s.k, 2.0) == pytest.approx(
                rdrc._d_rc(s.values, s.weights, 2.0), abs=1e-15
            )

    def test_zero_vector(self):
        assert rdrc.d_rc_per_w(TWO_LEVEL, [0.0, 0.0], 1.0) == 0.0

    def test_flat_concentrated_coordinate(self):
        assert rdrc.d_rc_per_w(FLAT, [4.0, 0.0, 0.0, 0.0], 3.0) == 0.25

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            rdrc.d_rc_per_w(FLAT, [-1.0], 1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, x):
        # A nan passes the x < 0 check and would come back as a nan distortion.
        with pytest.raises(ValueError, match="finite"):
            rdrc.d_rc_per_w(SEMI_HALF, [x, 1.0], 1.0)

    def test_monte_carlo_mean_matches_d_rc(self):
        # E over standard Gaussian coordinates of the per-realization curve
        # equals the ensemble curve.
        s = spectra.parse_spectrum("2:0.25,1:0.125,0.75:0.5,0:0.125")
        n, trials, T = 16, 4000, 1.7
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
        vals = np.array([rdrc.d_rc_per_w(s, rng.standard_normal(n) ** 2, T)
                         for _ in range(trials)])
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - rdrc.d_rc(s, T)) < 4.0 * se


class TestTau:
    def test_zero_vector(self):
        assert rdrc.tau(TWO_LEVEL, [0.0, 0.0], 1.0) == 0.0

    def test_flat_all_ones_closed_form(self):
        for rate in (0.25, 1.0, 2.0):
            T = rdrc.t_rc_for_rate(FLAT, rate)
            got = rdrc.tau(FLAT, [1.0] * 8, rate)
            assert got == pytest.approx(math.sqrt(T / (1.0 + T)), rel=1e-14)

    def test_threshold_forces_zero(self):
        w = [2.0, 0.5]
        assert rdrc.tau(TWO_LEVEL, w, 1.0, threshold=1.5) == 0.0
        assert rdrc.tau(TWO_LEVEL, w, 1.0, threshold=2.5) > 0.0

    @pytest.mark.parametrize("threshold", [-0.1, math.nan])
    def test_threshold_domain(self, threshold):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            rdrc.tau(TWO_LEVEL, [2.0, 0.5], 1.0, threshold=threshold)

    def test_rate_domain(self):
        with pytest.raises(ValueError):
            rdrc.tau(FLAT, [1.0], 0.0)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=10**6))
    def test_bounded_by_sup_norm(self, k, seed, wseed):
        s = spectra.sample_random(k, seed)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(wseed)))
        w = rng.standard_normal(s.k)
        val = rdrc.tau(s, np.abs(w), 0.8)
        assert 0.0 <= val <= float(np.max(np.abs(w))) * (1.0 + 1e-12) + 1e-300

    def test_lipschitz_in_w(self):
        # |tau(w) - tau(w')| <= ||w - w'||_inf over 1000 random pairs.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4242)))
        for i in range(1000):
            k = int(rng.integers(1, 9))
            s = spectra.sample_random(k, i)
            rate = float(rng.uniform(0.05, 3.0))
            w1 = np.abs(rng.standard_normal(k))
            w2 = np.abs(rng.standard_normal(k))
            diff = abs(rdrc.tau(s, w1, rate) - rdrc.tau(s, w2, rate))
            assert diff <= float(np.max(np.abs(w1 - w2))) + 1e-12

    def test_per_coordinate_path_matches_per_level_rms(self):
        # Dyadic weights expand exactly at n=8; per-level entries are the
        # RMS coordinates of each level block.
        s = spectra.parse_spectrum("2:0.5,0.5:0.25,0:0.25")
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
        w = rng.standard_normal(8)
        lams, _ = spectra.expand_to_n(s, 8)
        per_level = []
        for v in s.values:
            block = w[lams == v]
            per_level.append(math.sqrt(float(np.mean(block**2))))
        assert rdrc.tau(s, per_level, 1.2) == pytest.approx(
            rdrc.tau(s, w, 1.2), rel=1e-12
        )

    def test_per_coordinate_matches_the_simulated_scheme(self):
        # Per coordinate, T comes from the n realized eigenvalues, as in the
        # simulator, not from the spectrum's levels (which give 0.6472862742259768).
        s = spectra.parse_spectrum("3:0.3,1:0.7")
        w = np.array([0.3, -1.2, 0.5, 0.9])
        st, _ = simulator._scaling_state(
            simulator.SimConfig(n=4, rate_bits=1.0, spectrum=s, trials=1, seed=0))
        scheme = float(rdrc._scaling(st["T"], st["alam2"], st["den"], w, None, None))
        assert scheme == pytest.approx(0.6539933716043672, rel=1e-14)
        assert rdrc.tau(s, w, 1.0) == pytest.approx(scheme, rel=1e-14)


class TestQuantizeTau:
    def test_zero(self):
        assert rdrc.quantize_tau(0.0, 1.0, 0.25) == 0.0

    def test_on_grid(self):
        assert rdrc.quantize_tau(0.5, 1.0, 0.25) == 0.5

    def test_rounds_to_nearest(self):
        assert rdrc.quantize_tau(0.6, 1.0, 0.5) == 0.5

    @pytest.mark.parametrize("delta,norm", [(0.0, 1.0), (-0.1, 1.0), (0.5, 0.0)])
    def test_domain(self, delta, norm):
        with pytest.raises(ValueError):
            rdrc.quantize_tau(0.3, norm, delta)

    @pytest.mark.parametrize(
        "tau_val,norm,delta,name",
        [
            (math.nan, 1.0, 0.1, "tau_val"),
            (math.inf, 1.0, 0.1, "tau_val"),
            (1.0, math.inf, 0.1, "w_inf_norm"),
            (1.0, math.nan, 0.1, "w_inf_norm"),
            (1.0, 1.0, math.inf, "delta"),
            (1.0, 1.0, math.nan, "delta"),
        ],
    )
    def test_non_finite_argument_named(self, tau_val, norm, delta, name):
        # Otherwise the result is nan, or math.floor fails on a nan quotient.
        with pytest.raises(ValueError, match=name):
            rdrc.quantize_tau(tau_val, norm, delta)

    @pytest.mark.parametrize(
        "tau_val,norm,delta",
        [(1.0, 1e200, 1e200), (1.0, 1e-200, 1e-200), (1e300, 1e-100, 1e-100)],
        ids=["unit-overflows", "unit-underflows", "steps-overflow"],
    )
    def test_out_of_float_range(self, tau_val, norm, delta):
        with pytest.raises(ValueError, match="float range"):
            rdrc.quantize_tau(tau_val, norm, delta)

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.001, max_value=1.0))
    def test_half_unit_error_bound(self, t, norm, delta):
        q = rdrc.quantize_tau(t, norm, delta)
        assert abs(q - t) <= delta * norm / 2.0 * (1.0 + 1e-12)


class TestEigenSensitivity:
    def test_in_unit_interval_two_level(self):
        for j in (0, 1):
            v = rdrc.dd_rc_eigen_sensitivity(TWO_LEVEL, 1.0, j)
            assert 0.0 <= v <= 2.0 + 1e-6

    def test_bound_over_random_instances(self):
        for seed in range(40):
            s = spectra.sample_random(2 + seed % 5, seed)
            for rate in (0.2, 1.0, 3.0):
                for j in range(s.k):
                    v = rdrc.dd_rc_eigen_sensitivity(s, rate, j)
                    assert 0.0 <= v <= 2.0 + 1e-6

    def test_zero_level(self):
        # Levels (2, 0) at weights 1/2: num = den / 2 = 1 / (1 + 2T), so the
        # zero level's figure is 1 + 2T / (1 + 2T).
        for rate in (0.2, 1.0, 3.0):
            T = rdrc.t_rc_for_rate(SEMI_HALF, rate)
            got = rdrc.dd_rc_eigen_sensitivity(SEMI_HALF, rate, 1)
            assert got == pytest.approx(1.0 + 2.0 * T / (1.0 + 2.0 * T), rel=1e-14)

    def test_matches_richardson_difference(self):
        # Acceptance 5's 600 (spectrum, rate, level) instances, against a
        # Richardson-extrapolated central difference of the distortion at
        # fixed rate (steps 1e-3 v_j and half that), per unit weight.
        checked = 0
        for seed in range(50):
            s = spectra.sample_random(2 + seed % 5, seed)
            for rate in (0.2, 1.0, 3.0):
                for j in range(s.k):
                    def central(h):
                        def dd(vj):
                            vals = list(s.values)
                            vals[j] = vj
                            return rdrc._d_rc(vals, s.weights, rdrc._t_for_rate(vals, s.weights, rate))
                        return (dd(s.values[j] + h) - dd(s.values[j] - h)) / (2.0 * h)

                    h = 1e-3 * s.values[j]
                    fd = (4.0 * central(h / 2.0) - central(h)) / (3.0 * s.weights[j])
                    got = rdrc.dd_rc_eigen_sensitivity(s, rate, j)
                    assert abs(got - fd) <= 1e-5 * abs(got), (seed, rate, j)
                    checked += 1
        assert checked == 600
