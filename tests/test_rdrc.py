import math
import subprocess
import sys

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
# Three coordinates of a three-level spectrum: at n = k a vector is still
# read per coordinate, so at rate 1 the scheme's tau is 0.749981481252849.
THREE_LEVEL = spectra.parse_spectrum("3:0.5,1:0.3,0.2:0.2")
W_THREE = np.array([1.1, -0.4, 0.7])


def _realized(k, seed, n):
    """A spectrum that n coordinates realize: the levels of sample_random(k,
    seed) that expand_to_n's apportionment gives a coordinate, weighted by
    their counts, at unit mean."""
    s = spectra.sample_random(k, seed)
    return spectra.from_eigenvalues(np.repeat(s.values, spectra._apportion(s, n)))


def _tau(s, w, rate, threshold=None, delta=None):
    """The scheme's scaling of one realization w at n = len(w), written out
    apart from simulator._scaling_state: T and d = d_rc(T) for the rate on
    the levels weighted by their expand_to_n counts over n, then
    tau^2 = T sum w^2 dlam^2 / (n d) with dlam = lam / (1 + lam T) on the
    n eigenvalues."""
    n = len(w)
    weights = [c / n for c in spectra._apportion(s, n)]
    T = rdrc._t_for_rate(s.values, weights, rate)
    lam = spectra.expand_to_n(s, n)
    dlam = lam / (1.0 + lam * T)
    terms = {"T": T, "alam2": dlam * dlam, "den": n * rdrc._d_rc(s.values, weights, T),
             "threshold": threshold, "delta": delta}
    return float(simulator._scaling(terms, np.asarray(w, dtype=float)))


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
        [rdrc.d_rc, rdrc.r_rc],
        ids=["d_rc", "r_rc"],
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

    def test_dd_rc_negative_rate(self):
        # NaN is refused by dd_rc's own check, not by the solver's for T.
        for rate in (-0.1, math.nan):
            with pytest.raises(ValueError, match="rate must be nonnegative"):
                rdrc.dd_rc(FLAT, rate)

    def test_semi_flat_curves_coincide(self):
        for f in (0.1, 0.3, 0.5, 1.0):
            s = spectra.semi_flat(f)
            for d in (0.1, 0.5, 0.9):
                assert abs(rdrc.rr_rc(s, d) - waterfill.rr_wf(s, d)) < 1e-9

    def test_two_level_rate_strictly_above_oracle(self):
        r_rc_val = rdrc.rr_rc(TWO_LEVEL, 0.2)
        assert r_rc_val == pytest.approx(RR_RC_TWO_LEVEL_AT_02, abs=1e-12)
        assert r_rc_val > waterfill.rr_wf(TWO_LEVEL, 0.2)


class TestTau:
    """The scheme's scaling rule, simulator._scaling, of one realization w
    at n = len(w) (_tau)."""

    def test_zero_vector(self):
        assert _tau(TWO_LEVEL, [0.0, 0.0], 1.0) == 0.0

    def test_flat_all_ones_closed_form(self):
        for rate in (0.25, 1.0, 2.0):
            T = rdrc.t_rc_for_rate(FLAT, rate)
            got = _tau(FLAT, [1.0] * 8, rate)
            assert got == pytest.approx(math.sqrt(T / (1.0 + T)), rel=1e-14)

    def test_threshold_forces_zero(self):
        w = [2.0, 0.5]
        assert _tau(TWO_LEVEL, w, 1.0, threshold=1.5) == 0.0
        assert _tau(TWO_LEVEL, w, 1.0, threshold=2.5) > 0.0

    @pytest.mark.parametrize("threshold", [-0.1, math.nan])
    def test_threshold_domain(self, threshold):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            simulator._check_scaling(threshold, None)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=40))
    def test_bounded_by_sup_norm(self, k, seed, wseed, n):
        s = _realized(k, seed, n)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(wseed)))
        w = rng.standard_normal(n)
        val = _tau(s, np.abs(w), 0.8)
        assert 0.0 <= val <= float(np.max(np.abs(w))) * (1.0 + 1e-12) + 1e-300

    def test_lipschitz_in_w(self):
        # |tau(w) - tau(w')| <= ||w - w'||_inf over 1000 random pairs.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4242)))
        for i in range(1000):
            k, n = int(rng.integers(1, 9)), int(rng.integers(1, 41))
            s = _realized(k, i, n)
            rate = float(rng.uniform(0.05, 3.0))
            w1 = np.abs(rng.standard_normal(n))
            w2 = np.abs(rng.standard_normal(n))
            diff = abs(_tau(s, w1, rate) - _tau(s, w2, rate))
            assert diff <= float(np.max(np.abs(w1 - w2))) + 1e-12

    def test_per_coordinate_matches_the_simulated_scheme(self):
        # T comes from the levels at their realized weights, here 1/4 and
        # 3/4, as in the simulator, not at the spectrum's 0.3 and 0.7 (which
        # give 0.6472862742259768).
        s = spectra.parse_spectrum("3:0.3,1:0.7")
        assert _tau(s, [0.3, -1.2, 0.5, 0.9], 1.0) == pytest.approx(0.6539933716043672, rel=1e-14)

    def test_n_equal_k_is_the_schemes_scaling(self):
        assert _tau(THREE_LEVEL, W_THREE, 1.0) == 0.749981481252849


class TestQuantizeTau:
    """The scaling rule's delta rounds tau to the nearest multiple of
    delta * ||w||_inf, the scheme's quantizer."""

    def test_zero(self):
        assert _tau(TWO_LEVEL, [0.0, 0.0], 1.0, delta=0.25) == 0.0

    def test_on_grid(self):
        # Halving or quartering the step leaves a value on the grid as it is.
        t = _tau(FLAT, [1.0] * 4, 1.0)
        assert _tau(FLAT, [1.0] * 4, 1.0, delta=t / 2.0) == t
        assert _tau(FLAT, [1.0] * 4, 1.0, delta=t / 4.0) == t

    def test_rounds_to_nearest(self):
        # On the flat spectrum at rate 1, tau = ||w||_inf sqrt(3) / 2 ~ 0.866 ||w||_inf.
        assert _tau(FLAT, [1.0] * 4, 1.0, delta=0.5) == 1.0
        assert _tau(FLAT, [1.0] * 4, 1.0, delta=0.25) == 0.75
        assert _tau(FLAT, [2.0, 2.0, -2.0, 2.0], 1.0, delta=0.25) == 1.5

    def test_overflowing_step_rounds_to_zero(self):
        # delta * ||w||_inf overflows: 0 is the nearest multiple, not nan.
        assert _tau(FLAT, [1e150] * 4, 1.0, delta=1e200) == 0.0

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf, 1e-320],
                             ids=["zero", "negative", "nan", "inf", "reciprocal-overflows"])
    def test_domain(self, delta):
        with pytest.raises(ValueError, match="tau_delta must be positive and finite"):
            simulator._check_scaling(None, delta)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.001, max_value=1.0))
    def test_half_unit_error_bound(self, k, seed, wseed, n, delta):
        s = _realized(k, seed, n)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(wseed)))
        w = rng.standard_normal(n)
        q, t = _tau(s, w, 0.8, delta=delta), _tau(s, w, 0.8)
        assert abs(q - t) <= delta * float(np.max(np.abs(w))) / 2.0 * (1.0 + 1e-12)

    def test_equals_the_success_kernel(self):
        # The success kernel scales one realization at a time, with the
        # threshold and step SimConfig passes to the run's state: bit for bit
        # the rule on terms solved apart from the state (_tau).
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(263)))
        for i in range(240):
            n, rate = int(rng.integers(8, 40)), float(rng.uniform(0.1, 2.0))
            s = _realized(int(rng.integers(1, 5)), i, n)
            delta = (None, 0.01, 0.05, 0.2, 0.5)[i % 5]
            threshold = (None, 2.0, 3.0)[i % 3]
            w = rng.standard_normal(n)
            st = simulator._scaling_state(simulator.SimConfig(
                n=n, rate_bits=rate, spectrum=s, trials=1, seed=0,
                tau_delta=delta, tau_threshold=threshold))
            kernel = float(simulator._scaling(st, w))
            assert _tau(s, w, rate, threshold, delta) == kernel, i

    def test_matches_the_simulated_scheme(self):
        # The scheme scales a chunk of up to 256 rows in one stacked call,
        # the success kernel one row at a time: the same bits, with the
        # threshold and step the run's state passes.
        s = spectra.parse_spectrum("3:0.2,1:0.5,0.1:0.3")
        for i, n in enumerate(range(10, 38)):
            cfg = simulator.SimConfig(
                n=n, rate_bits=0.5 + i / 20, spectrum=s, trials=256, seed=5,
                tau_delta=(None, 0.01, 0.05)[i % 3], tau_threshold=(None, 3.0)[i % 2])
            st = simulator._scaling_state(cfg)
            w, tau = simulator._scheme_trials((st, 0, cfg.trials))[:2]
            rows = [simulator._scaling(st, row) for row in w]
            assert np.array_equal(tau[:, 0], rows), n


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

    def test_level_index_is_an_integer(self):
        # A float is not truncated to level 0; a numpy integer passes.
        three = spectra.parse_spectrum("3:0.2,1:0.5,0.1:0.3")
        for level in (0.7, True):
            with pytest.raises(ValueError, match="level_index must be an integer"):
                rdrc.dd_rc_eigen_sensitivity(three, 1.0, level)
        assert rdrc.dd_rc_eigen_sensitivity(three, 1.0, np.int64(1)) == (
            rdrc.dd_rc_eigen_sensitivity(three, 1.0, 1))

    def test_zero_level(self):
        # Levels (2, 0) at weights 1/2: num = den / 2 = 1 / (1 + 2T), so the
        # zero level's figure is 1 + 2T / (1 + 2T).
        for rate in (0.2, 1.0, 3.0):
            T = rdrc.t_rc_for_rate(SEMI_HALF, rate)
            got = rdrc.dd_rc_eigen_sensitivity(SEMI_HALF, rate, 1)
            assert got == pytest.approx(1.0 + 2.0 * T / (1.0 + 2.0 * T), rel=1e-14)

    def test_is_the_moments_formula(self):
        # 1/u^2 + T den / (u num) on rdrc._moments' builtin sums, bit for bit:
        # no BLAS product supplies num or den.
        for seed in range(200):
            s = spectra.sample_random(2 + seed % 7, seed)
            for rate in (0.2, 1.0, 3.0):
                T = rdrc._t_for_rate(s.values, s.weights, rate)
                num, den = rdrc._moments(s.values, s.weights, T)
                for j, v in enumerate(s.values):
                    u = 1.0 + v * T
                    want = 1.0 / u**2 + T * den / (u * num)
                    assert rdrc.dd_rc_eigen_sensitivity(s, rate, j) == want, (seed, rate, j)

    def test_loads_no_numpy(self):
        code = ("import sys; from rdgap import rdrc, spectra; "
                "s = spectra.parse_spectrum('1.8:0.5,0.2:0.5'); "
                "rdrc.dd_rc_eigen_sensitivity(s, 1.0, 0); print('numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

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
