import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdgap import gapopt, rdrc, spectra, waterfill
from rdgap._manifest import split_manifest_comment
from rdgap.errors import KinkError
from rdgap.gapopt import SWEEP_CSV_HEADER

TWO_LEVEL = spectra.parse_spectrum("1.8:0.5,0.2:0.5")
FLAT = spectra.flat()

# Frozen by an independent derivation (closed-form water level t = 0.4,
# T = 5/3 from the quadratic, implicit-function-theorem chain rule),
# cross-checked against central finite differences at rel 1.3e-10.
GRAD_WF_TWO_LEVEL_03 = (0.20037431123457825, 0.9016844005556022)
GRAD_RC_TWO_LEVEL_03 = (0.21039302679630717, 0.9918528406111624)

# Worst two-level spectra, frozen from tools/oracle_derived.py: Newton on the
# 50-digit gap gradient in (v1, w1); d_star -> (levels, weights).
ARGMAX_TWO_LEVEL = {
    0.475: ((5.361931419564428, 0.43815183187083945), (0.1141091224987882, 0.8858908775012118)),
    0.655: ((5.498462802039754, 0.6173649192380127), (0.07839119188946801, 0.921608808110532)),
    0.865: ((6.302025769587146, 0.8403474107853405), (0.02923141545993281, 0.9707685845400672)),
}
# Worst two-level gaps below the acceptance grid, frozen from the same tool
# (Newton started at the d* -> 0 limit's argmax) at 1e-4, 1.2e-3 and 12
# log-spaced d* from 1e-6 to 5e-3, rounded to three digits: d_star -> gap_bits.
GAP_TWO_LEVEL_BELOW_GRID = {
    1e-06: 0.10832556657067519,
    2.17e-06: 0.10832551892400119,
    4.7e-06: 0.10832541589297612,
    1.02e-05: 0.10832519191162343,
    2.21e-05: 0.10832470729337593,
    4.8e-05: 0.1083236525168733,
    0.0001: 0.108321534739676,
    0.000104: 0.10832137182935797,
    0.000226: 0.10831640276406485,
    0.00049: 0.10830564803946453,
    0.00106: 0.10828241830816324,
    0.0012: 0.10827671081375735,
    0.00231: 0.10823143133886463,
    0.005: 0.10812149916357672,
}
# The worst two-level spectra at the same d*, from the same tool: d_star ->
# (levels, weights).
ARGMAX_TWO_LEVEL_BELOW_GRID = {
    1e-06: ((5.408645073090324, 8.793355001398771e-07), (0.18488905626647886, 0.8151109437335211)),
    2.17e-06: ((5.408644701552602, 1.908158238730465e-06), (0.18488891391812198, 0.815111086081878)),
    4.7e-06: ((5.408643898144127, 4.132878244015317e-06), (0.18488860610456967, 0.8151113938954303)),
    1.02e-05: ((5.408642151614132, 8.96922962028052e-06), (0.18488793694260336, 0.8151120630573967)),
    2.21e-05: ((5.408638372805997, 1.943335191590157e-05), (0.18488648910973512, 0.8151135108902648)),
    4.8e-05: ((5.408630148566644, 4.2208284768423374e-05), (0.18488333789819408, 0.8151166621018059)),
    0.0001: ((5.408613637513062, 8.793434325952016e-05), (0.18487701095156428, 0.8151229890484357)),
    0.000104: ((5.408612367483602, 9.145175032301325e-05), (0.18487652425286238, 0.8151234757471376)),
    0.000226: ((5.4085736351257845, 0.00019873389754497629), (0.18486167922186766, 0.8151383207781323)),
    0.00049: ((5.4084898443259615, 0.00043089359570413376), (0.18482955077058152, 0.8151704492294185)),
    0.00106: ((5.408309042038779, 0.0009321855940688396), (0.18476016022726538, 0.8152398397727346)),
    0.0012: ((5.408264657416152, 0.0010553179138141468), (0.1847431122720552, 0.8152568877279448)),
    0.00231: ((5.407913071885432, 0.002031692592885952), (0.18460788119211666, 0.8153921188078833)),
    0.005: ((5.407063407821435, 0.004398682463847789), (0.1842796782971307, 0.8157203217028692)),
}
# The d* -> 0 limit of the worst two-level gap and its argmax (c, w), a low
# level c d* of weight 1 - w; frozen from tools/oracle_derived.py.
LIMIT_GAP = 0.10832560729428575
LIMIT_ARGMAX = (0.879335420015874, 0.18488917793163945)
GOLDEN_SWEEP = Path(__file__).parent / "fixtures" / "gap_sweep_kmax5_seed0.csv"


def _golden_rows():
    """(d_star, spectrum) for each row of the golden sweep."""
    _, payload = split_manifest_comment(GOLDEN_SWEEP.read_text())
    rows = []
    for row in payload.splitlines()[1:]:
        f = row.split(",")
        s = spectra.Spectrum(
            tuple(float(x) for x in f[4].split(";")),
            tuple(float(x) for x in f[5].split(";")),
        )
        rows.append((float(f[0]), s))
    return rows


def _mean_preserving_direction(s, rng):
    u = rng.standard_normal(s.k)
    u = u - float(np.dot(s.weights, u))
    m = float(np.max(np.abs(u)))
    return u / m if m > 0 else u


def _perturbed(s, u, h):
    values = tuple(v + h * du for v, du in zip(s.values, u))
    return spectra.Spectrum(values, s.weights)


def _richardson_fd(s, u, d_star, h):
    def central(hh):
        rp = gapopt.gap_at(_perturbed(s, u, hh), d_star)
        rm = gapopt.gap_at(_perturbed(s, u, -hh), d_star)
        return (
            (rp.rate_wf_bits - rm.rate_wf_bits) / (2.0 * hh),
            (rp.rate_rc_bits - rm.rate_rc_bits) / (2.0 * hh),
        )

    a = central(h)
    b = central(h / 2.0)
    return (4.0 * b[0] - a[0]) / 3.0, (4.0 * b[1] - a[1]) / 3.0


class TestGapAt:
    def test_flat_is_exactly_zero(self):
        rec = gapopt.gap_at(FLAT, 0.25)
        assert rec.rate_wf_bits == 1.0
        assert rec.rate_rc_bits == 1.0
        assert rec.gap_bits == 0.0
        assert rec.level_t == 0.25
        assert rec.level_T == 3.0

    def test_two_level_frozen(self):
        rec = gapopt.gap_at(TWO_LEVEL, 0.2)
        assert rec.rate_rc_bits == pytest.approx(0.8487930335740901, abs=1e-12)
        assert rec.rate_wf_bits == pytest.approx(0.792481250360578, abs=1e-12)
        assert rec.gap_bits == pytest.approx(
            0.8487930335740901 - 0.792481250360578, abs=1e-12
        )

    def test_record_consistency(self):
        rec = gapopt.gap_at(TWO_LEVEL, 0.35)
        assert rec.spectrum is TWO_LEVEL
        assert abs(waterfill.d_wf(TWO_LEVEL, rec.level_t) - 0.35) < 1e-10
        assert abs(rdrc.d_rc(TWO_LEVEL, rec.level_T) - 0.35) < 1e-10
        assert rec.gap_bits == rec.rate_rc_bits - rec.rate_wf_bits

    @pytest.mark.parametrize("d", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, d):
        with pytest.raises(ValueError):
            gapopt.gap_at(FLAT, d)

    def test_matches_gap_core_on_golden_rows(self):
        # The public record and the optimizer's raw-array gap use the same
        # solvers, so they agree bit for bit.
        for d_star, s in _golden_rows():
            core = gapopt._gap_core(list(s.values), list(s.weights), d_star)
            assert gapopt.gap_at(s, d_star).gap_bits == core, d_star

    def test_semi_flat_gap_vanishes(self):
        for f in (0.1, 0.5, 1.0):
            s = spectra.semi_flat(f)
            for d in (0.05, 0.4, 0.9):
                assert abs(gapopt.gap_at(s, d).gap_bits) < 1e-9

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=400),
           st.integers(min_value=1, max_value=19))
    def test_gap_never_negative(self, k, seed, dtick):
        rec = gapopt.gap_at(spectra.sample_random(k, seed), dtick * 0.05)
        assert rec.gap_bits >= -1e-9


class TestGradRates:
    def test_two_level_frozen(self):
        g_wf, g_rc = gapopt.grad_rates(TWO_LEVEL, 0.3)
        assert g_wf == pytest.approx(GRAD_WF_TWO_LEVEL_03, rel=1e-12)
        assert g_rc == pytest.approx(GRAD_RC_TWO_LEVEL_03, rel=1e-12)

    def test_active_level_closed_form(self):
        # Active levels differentiate the log directly: w / (2 ln2 v).
        g_wf, _ = gapopt.grad_rates(TWO_LEVEL, 0.3)
        assert g_wf[0] == pytest.approx(0.5 / (2.0 * math.log(2.0) * 1.8), rel=1e-12)

    def test_inactive_levels_share_normalized_gradient(self):
        # Below the water level the oracle gradient is w_j/(2 ln2 t): the
        # weight-normalized entries agree across every inactive level.
        s = spectra.parse_spectrum("3.4:0.25,0.3:0.25,0.2:0.25,0.1:0.25")
        d_star = 0.6
        t = waterfill.t_for_distortion(s, d_star)
        g_wf, _ = gapopt.grad_rates(s, d_star)
        inactive = [j for j, v in enumerate(s.values) if v < t]
        assert len(inactive) >= 2
        normalized = [g_wf[j] / s.weights[j] for j in inactive]
        for x in normalized[1:]:
            assert x == pytest.approx(normalized[0], rel=1e-12)

    def test_kink_raises(self):
        # At d_star = 0.2 the water level equals the lower level exactly.
        with pytest.raises(KinkError):
            gapopt.grad_rates(TWO_LEVEL, 0.2)

    def test_domain(self):
        with pytest.raises(ValueError):
            gapopt.grad_rates(TWO_LEVEL, 0.0)

    def test_fd_two_level(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
        g_wf, g_rc = gapopt.grad_rates(TWO_LEVEL, 0.3)
        u = _mean_preserving_direction(TWO_LEVEL, rng)
        h = 1e-6
        up, um = _perturbed(TWO_LEVEL, u, h), _perturbed(TWO_LEVEL, u, -h)
        rp, rm = gapopt.gap_at(up, 0.3), gapopt.gap_at(um, 0.3)
        fd_wf = (rp.rate_wf_bits - rm.rate_wf_bits) / (2.0 * h)
        fd_rc = (rp.rate_rc_bits - rm.rate_rc_bits) / (2.0 * h)
        assert fd_wf == pytest.approx(float(np.dot(g_wf, u)), rel=1e-6)
        assert fd_rc == pytest.approx(float(np.dot(g_rc, u)), rel=1e-6)

    def test_fd_random_instances(self):
        # 200 non-degenerate random instances: directional derivative along a
        # mean-preserving direction matches central differences at rel 1e-5.
        # Richardson extrapolation over h and h/2 removes the O(h^2) term, and
        # h = 1e-4 keeps the distortion-solver residue (~1e-13 in the rates)
        # far below the comparison band.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
        checked = 0
        seed = 0
        while checked < 200:
            seed += 1
            k = 2 + seed % 6
            s = spectra.sample_random(k, seed)
            d_star = float(rng.uniform(0.05, 0.95))
            t = waterfill.t_for_distortion(s, d_star)
            if min(abs(v - t) for v in s.values) < 1e-3 * t:
                continue
            try:
                g_wf, g_rc = gapopt.grad_rates(s, d_star)
            except KinkError:
                continue
            u = _mean_preserving_direction(s, rng)
            dot_wf = float(np.dot(g_wf, u))
            dot_rc = float(np.dot(g_rc, u))
            if min(abs(dot_wf), abs(dot_rc)) < 1e-2:
                continue
            try:
                fd_wf, fd_rc = _richardson_fd(s, u, d_star, 1e-4)
            except ValueError:
                continue  # perturbation collided with a level-order invariant
            assert fd_wf == pytest.approx(dot_wf, rel=1e-5)
            assert fd_rc == pytest.approx(dot_rc, rel=1e-5)
            checked += 1


def _raw_rates(values, weights, d_star):
    # Rates on raw arrays (closed-form t, Newton T): a weight perturbation
    # leaves the unit-sum, unit-mean set that Spectrum enforces.
    t = waterfill._t_wf_exact(values, weights, d_star)
    T = rdrc._t_for_distortion_newton(values, weights, d_star)
    return waterfill._r_wf(values, weights, t), rdrc._r_rc(values, weights, T)


def _richardson_fd_weights(s, u, d_star, h):
    def central(hh):
        wp = [w + hh * du for w, du in zip(s.weights, u)]
        wm = [w - hh * du for w, du in zip(s.weights, u)]
        rp, rm = _raw_rates(s.values, wp, d_star), _raw_rates(s.values, wm, d_star)
        return (rp[0] - rm[0]) / (2.0 * hh), (rp[1] - rm[1]) / (2.0 * hh)

    a = central(h)
    b = central(h / 2.0)
    return (4.0 * b[0] - a[0]) / 3.0, (4.0 * b[1] - a[1]) / 3.0


class TestRateGradsWeights:
    # _rate_grads' weight components, on which _kkt, _max_phi and the
    # Hessian build.
    def test_fd_random_instances(self):
        # 200 non-degenerate random instances: the directional derivative in
        # the weights along a random direction (each weight moved relative to
        # itself, so none turns negative) matches Richardson-extrapolated
        # central differences at rel 1e-5.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(98)))
        checked = 0
        seed = 0
        while checked < 200:
            seed += 1
            k = 2 + seed % 6
            s = spectra.sample_random(k, seed)
            d_star = float(rng.uniform(0.05, 0.95))
            t = waterfill.t_for_distortion(s, d_star)
            if min(abs(v - t) for v in s.values) < 1e-3 * t:
                continue
            g_wf, g_rc = gapopt._rate_grads(
                s.values, s.weights, *gapopt._levels(s.values, s.weights, d_star))[2:]
            z = rng.standard_normal(k)
            u = np.asarray(s.weights) * z / float(np.max(np.abs(z)))
            dot_wf = float(np.dot(g_wf, u))
            dot_rc = float(np.dot(g_rc, u))
            if min(abs(dot_wf), abs(dot_rc)) < 1e-3:
                continue
            fd_wf, fd_rc = _richardson_fd_weights(s, u, d_star, 1e-4)
            assert fd_wf == pytest.approx(dot_wf, rel=1e-5)
            assert fd_rc == pytest.approx(dot_rc, rel=1e-5)
            checked += 1


class TestChartGradient:
    def test_fd_random_instances(self):
        # The gap gradient chained through the search chart (_unpack) matches
        # Richardson-extrapolated central differences of _gap_core at rel
        # 1e-5, for k = 2..5, random z and several d_star off the kink.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(97)))
        checked = 0
        while checked < 120:
            k = 2 + checked % 4
            z = rng.uniform(-2.0, 2.0, size=2 * k - 1)
            d_star = float(rng.uniform(0.05, 0.95))
            values, weights = gapopt._unpack(z, k)
            t = waterfill._t_wf_exact(values, weights, d_star)
            if min(abs(v - t) for v in values) < 1e-2 * t:
                continue
            grad = gapopt._chart_gap_grad(z[None], k, d_star)[1][0]

            def central(i, h):
                e = np.zeros_like(z)
                e[i] = h
                return (
                    gapopt._gap_core(*gapopt._unpack(z + e, k), d_star)
                    - gapopt._gap_core(*gapopt._unpack(z - e, k), d_star)
                ) / (2.0 * h)

            h = 1e-3
            for i in range(z.size):
                if abs(grad[i]) < 1e-4:
                    continue
                fd = (4.0 * central(i, h / 2.0) - central(i, h)) / 3.0
                assert fd == pytest.approx(grad[i], rel=1e-5), (k, d_star, i)
            checked += 1

    def test_gap_matches_gap_core(self):
        z = np.array([0.7, -0.4, 0.1, 0.3, -0.2])
        gap = gapopt._chart_gap_grad(z[None], 3, 0.4)[0][0]
        assert gap == pytest.approx(gapopt._gap_core(*gapopt._unpack(z, 3), 0.4), abs=1e-15)
        # Each row of a stacked chart call equals the same row evaluated alone,
        # bit for bit, and its gap is within 1e-15 of _gap_core's; the stack
        # holds a row with two equal log-levels and a row clipped at the chart
        # bound among random k = 3 rows.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(98)))
        Z = np.vstack([
            [0.7, -0.4, 0.1, 0.3, -0.2],
            [0.3, 0.3, -0.5, 0.2, -0.1],
            [0.5, -70.0, 0.1, 0.3, -0.2],
            rng.uniform(-2.0, 2.0, size=(15, 5)),
        ])
        for d_star in (1e-5, 0.4, 0.995):
            gaps, grads = gapopt._chart_gap_grad(Z, 3, d_star)
            for z, gap, grad in zip(Z, gaps, grads):
                alone_gap, alone_grad = gapopt._chart_gap_grad(z[None], 3, d_star)
                assert gap == alone_gap[0] and np.array_equal(grad, alone_grad[0]), (d_star, z)
                core = gapopt._gap_core(*gapopt._unpack(z, 3), d_star)
                assert abs(gap - core) <= 1e-15, (d_star, z)

    def test_unpack_lands_on_constraint_set(self):
        # Any z, log-levels past the clip and far-out weight logits included,
        # unpacks to a spectrum with sum w = 1 and sum w v = 1.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(96)))
        for i in range(400):
            k = 1 + i % 5
            z = rng.uniform(-1.0, 1.0, size=2 * k - 1) * (3.0 if i % 2 else 80.0)
            values, weights = gapopt._unpack(z, k)
            assert abs(sum(weights) - 1.0) <= 1e-15
            assert abs(sum(v * w for v, w in zip(values, weights)) - 1.0) <= 1e-15

    @pytest.mark.parametrize(
        "z, k, clipped",
        [
            ([65.0, 0.0, 0.4], 2, [0]),
            ([0.5, -70.0, 0.1, 0.3, -0.2], 3, [1]),
            ([61.0, 0.2, -0.3, -64.0, 0.1, -0.5, 0.2], 4, [0, 3]),
        ],
    )
    def test_clipped_log_level(self, z, k, clipped):
        # A log-level past +-_CHART_CLIP does not move the spectrum, so its
        # gradient component is 0, and the gap is still _gap_core's.
        z = np.array(z)
        assert all(abs(z[j]) > gapopt._CHART_CLIP for j in clipped)
        d_star = 0.3
        gap, grad = (x[0] for x in gapopt._chart_gap_grad(z[None], k, d_star))
        assert gap == gapopt._gap_core(*gapopt._unpack(z, k), d_star)
        assert grad.shape == (2 * k - 1,)
        for j in range(2 * k - 1):
            assert (grad[j] == 0.0) == (j in clipped), j


def _gap_grad(values, weights, t, T):
    """Gap gradient in (levels, weights) from _rate_grads, given t and T."""
    levels_wf, levels_rc, weights_wf, weights_rc = gapopt._rate_grads(values, weights, t, T)
    return np.r_[np.subtract(levels_rc, levels_wf), np.subtract(weights_rc, weights_wf)]


class TestGapHessian:
    def test_fd_random_instances(self):
        # The exact gap Hessian in (levels, weights) matches Richardson-
        # extrapolated central differences of the analytic gradient
        # (_rate_grads, _gap_grad) at rel 1e-5 of its max-norm, for k = 2..5
        # and several d_star off the kink.  Each coordinate moves relative to
        # itself, so none turns negative; weights may leave sum w = 1, which
        # _rate_grads accepts.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(95)))
        checked = 0
        seed = 0
        while checked < 120:
            seed += 1
            k = 2 + seed % 4
            s = spectra.sample_random(k, seed)
            values, weights = list(s.values), list(s.weights)
            d_star = float(rng.choice([0.02, 0.1, 0.3, 0.6, 0.9]))
            t = waterfill._t_wf_exact(values, weights, d_star)
            if min(abs(v - t) for v in values) < 1e-2 * t:
                continue
            try:
                H = gapopt._gap_hessian(
                    values, weights, d_star, *gapopt._levels(values, weights, d_star)
                )
            except KinkError:
                continue
            x = np.r_[values, weights]

            def central(i, h):
                e = np.zeros_like(x)
                e[i] = h * x[i]
                gp, gm = (
                    _gap_grad(list(y[:k]), list(y[k:]), *gapopt._levels(y[:k], y[k:], d_star))
                    for y in (x + e, x - e)
                )
                return (gp - gm) / (2.0 * e[i])

            fd = np.array([(4.0 * central(i, 5e-5) - central(i, 1e-4)) / 3.0
                           for i in range(2 * k)]).T
            assert np.array_equal(H, H.T)
            assert float(np.max(np.abs(fd - H))) <= 1e-5 * float(np.max(np.abs(H))), (k, d_star)
            checked += 1

    @pytest.mark.parametrize("d_star", [0.02, 0.3, 0.9])
    def test_kkt_hessian_in_log_levels(self, d_star):
        # _kkt's Lagrangian Hessian in (log v, w) matches central differences
        # of its own Lagrangian gradient D g - J^T m at fixed multipliers m.
        for seed in range(1, 9):
            s = spectra.sample_random(2 + seed % 4, seed)
            z = np.r_[np.log(s.values), s.weights]
            k = s.k
            try:
                _, m, _, H, _, _ = gapopt._kkt(list(s.values), list(s.weights), d_star)
            except KinkError:
                continue

            def lagrangian_grad(z):
                v, w = np.exp(z[:k]), z[k:]
                g = np.r_[v, np.ones(k)] * _gap_grad(
                    v.tolist(), w.tolist(), *gapopt._levels(v.tolist(), w.tolist(), d_star))
                return g - m[0] * np.r_[np.zeros(k), np.ones(k)] - m[1] * np.r_[w * v, v]

            h = 1e-6
            fd = np.array([(lagrangian_grad(z + h * e) - lagrangian_grad(z - h * e)) / (2 * h)
                           for e in np.eye(2 * k)]).T
            assert float(np.max(np.abs(fd - H))) <= 1e-5 * float(np.max(np.abs(H))), seed


class TestStationarity:
    @pytest.mark.parametrize("d_star", sorted(ARGMAX_TWO_LEVEL))
    def test_two_level_argmax_frozen(self, d_star):
        rec = gapopt.maximize_gap(d_star, 2)
        levels, weights = ARGMAX_TWO_LEVEL[d_star]
        assert rec.spectrum.k == 2
        assert gapopt.stationarity_residual(rec.spectrum, d_star) <= 1e-11
        assert all(abs(a - b) < 1e-11 for a, b in zip(rec.spectrum.values, levels))
        assert all(abs(a - b) < 1e-11 for a, b in zip(rec.spectrum.weights, weights))

    def test_golden_sweep_rows_are_stationary(self):
        rows = _golden_rows()
        assert len(rows) == 199
        for d_star, s in rows:
            assert gapopt.stationarity_residual(s, d_star) <= 1e-11, d_star
            if d_star in ARGMAX_TWO_LEVEL:
                levels, weights = ARGMAX_TWO_LEVEL[d_star]
                assert all(abs(a - b) < 1e-11 for a, b in zip(s.values, levels))
                assert all(abs(a - b) < 1e-11 for a, b in zip(s.weights, weights))

    def test_residual_separates_stationary_points(self):
        assert gapopt.stationarity_residual(TWO_LEVEL, 0.3) > 1e-3
        assert gapopt.stationarity_residual(FLAT, 0.3) < 1e-15  # no free direction

    def test_coalesced_levels_are_merged(self):
        # Duplicate top levels 1e-6 apart and a level of weight 1e-8: the
        # solve lands on the two-level maximum.
        v, w = ARGMAX_TWO_LEVEL[0.475]
        values = [v[0] * (1 + 1e-7), v[0] * (1 - 1e-7), v[1], 0.01]
        weights = [w[0] / 2, w[0] / 2, w[1] - 1e-8, 1e-8]
        sv, sw = gapopt._stationary_point(values, weights, 0.475)
        assert len(sv) == 2
        assert gapopt._max_phi(sv, sw, 0.475)[1] <= 1e-11
        assert all(abs(a - b) < 1e-11 for a, b in zip(sv + sw, v + w))

    def test_stationary_below_the_grid(self):
        # At d* = 1e-4, below the acceptance grid, the low level of the worst
        # spectrum is about 8.8e-5 and the gradient scales like 1/v there;
        # the solve still reaches STATIONARY_TOL.
        rec = gapopt.maximize_gap(1e-4, 5)
        assert rec.spectrum.k == 2
        assert gapopt.stationarity_residual(rec.spectrum, 1e-4) <= gapopt.STATIONARY_TOL

    @pytest.mark.parametrize("d_star", sorted(GAP_TWO_LEVEL_BELOW_GRID))
    def test_two_level_gap_below_the_grid(self, d_star):
        # The k = 2 scan places the low level relative to d*, where the worst
        # one sits (about 0.88 d*), so no k >= 3 start has to rescue it.
        rec = gapopt.maximize_gap(d_star, 2)
        assert abs(rec.gap_bits - GAP_TWO_LEVEL_BELOW_GRID[d_star]) <= 1e-9

    def test_log_level_newton_converges_at_two_levels(self):
        # At d* = 2e-8 the low level is about 1.8e-8; in (log v, w) the KKT
        # solve still reaches STATIONARY_TOL with k_max = 2.
        rec, diag = gapopt._point_search(2e-8, 2)
        assert rec.spectrum.k == 2
        assert 0.0 < LIMIT_GAP - rec.gap_bits < 1e-8
        assert diag.converged == 1

    @pytest.mark.parametrize("d_star", [1e-8, 2e-8, 1e-7, 3e-7])
    def test_converges_toward_the_limit(self, d_star):
        # The worst gap approaches LIMIT_GAP as d* -> 0, about 0.04 d* below it.
        rec, diag = gapopt._point_search(d_star, 5)
        assert diag.converged == 1
        assert diag.best_k == 2
        assert diag.max_phi <= gapopt.STATIONARY_TOL
        assert 0.0 < LIMIT_GAP - rec.gap_bits < 0.05 * d_star

    def test_below_grid_point_converges_at_two_levels(self):
        # One of 100 log-uniform d* in [1e-4, 0.995] (random.Random(7)).
        _, diag = gapopt._point_search(0.00019022588999714564, 5)
        assert diag.converged == 1
        assert diag.best_k == 2

    def test_limit_constant(self):
        # The frozen limit is the d* -> 0 gap at its frozen argmax, that
        # argmax is a maximum, and the below-grid gaps rise toward it.
        def limit(c, w):
            tau = (c - 1.0 + math.sqrt((1.0 - c) ** 2 + 4.0 * c * w)) / (2.0 * c)
            return 0.5 * (1.0 - w) * math.log2(1.0 + c * tau) + 0.5 * w * math.log2(
                tau * (1.0 - (1.0 - w) * c) / w
            )

        c, w = LIMIT_ARGMAX
        assert limit(c, w) == pytest.approx(LIMIT_GAP, abs=1e-15)
        for dc, dw in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)):
            assert limit(c + dc, w + dw) < LIMIT_GAP
        gaps = [GAP_TWO_LEVEL_BELOW_GRID[d] for d in sorted(GAP_TWO_LEVEL_BELOW_GRID, reverse=True)]
        assert gaps == sorted(gaps)
        assert 0.0 < LIMIT_GAP - gaps[-1] < 1e-7

    def test_failed_solve_reports_the_searched_gap(self, monkeypatch):
        # A level of weight 5e-7 is under _collapse's floor yet moves the gap
        # by far more than _GAP_SLACK.  When the solve fails, the point must
        # report the searched spectrum, not one that lost that gap.
        v, w = gapopt._normalized([30.0, 1.2, 0.3], [5e-7, 0.6, 0.4 - 5e-7])
        searched = gapopt._gap_core(v, w, 0.3)
        collapsed = gapopt._collapse(v, w, gapopt._WEIGHT_FLOOR, gapopt._COALESCE_REL)
        assert gapopt._gap_core(*collapsed, 0.3) < searched - 1e-9
        monkeypatch.setattr(gapopt, "_search_k", lambda d, n: (searched, v, w, 1))
        monkeypatch.setattr(gapopt, "_stationary_point", lambda *args: None)
        res = gapopt.sweep([0.3], 3, threads=1)
        s, d = res.records[0].spectrum, res.diagnostics[0]
        assert s.k == 3
        assert gapopt._gap_core(s.values, s.weights, 0.3) >= searched - gapopt._GAP_SLACK
        assert d.residual == gapopt.stationarity_residual(s, 0.3)
        assert d.converged == 0

    def test_diagnostics_report_the_residual(self):
        res = gapopt.sweep([0.3], 3)
        d = res.diagnostics[0]
        assert d.residual == pytest.approx(
            gapopt.stationarity_residual(res.records[0].spectrum, 0.3), abs=1e-13
        )
        assert d.residual <= gapopt.STATIONARY_TOL
        assert d.converged == 1


def _phi_on_levels(values, weights, d_star, levels):
    """phi at each of levels, written out from the weight derivatives of the
    two rates (not through gapopt._rate_grads), with gapopt's multipliers."""
    t, T = gapopt._levels(values, weights, d_star)
    m0, m1 = gapopt._kkt(values, weights, d_star)[1]
    v, w = np.asarray(values), np.asarray(weights)
    A = float(w @ (v / (1.0 + v * T))) / float(w @ (v / (1.0 + v * T)) ** 2)
    wf = np.where(levels > t, np.log(levels / t) + 1.0, levels / t)
    rc = np.log1p(levels * T) + A * levels / (1.0 + levels * T)
    return (rc - wf) / (2.0 * math.log(2.0)) - m0 - m1 * levels, m1


class TestEquivalenceCheck:
    """max phi <= 0: no spectrum with any number of levels gains gap to first
    order at the point's T, the global-optimality condition at fixed T."""

    def test_golden_rows_pass(self):
        worst = max(gapopt._max_phi(s.values, s.weights, d)[0] for d, s in _golden_rows())
        assert worst <= gapopt.STATIONARY_TOL

    @pytest.mark.parametrize("d_star", sorted(ARGMAX_TWO_LEVEL_BELOW_GRID))
    def test_below_grid_two_level_argmax_passes(self, d_star):
        levels, weights = ARGMAX_TWO_LEVEL_BELOW_GRID[d_star]
        assert gapopt._max_phi(levels, weights, d_star)[0] <= gapopt.STATIONARY_TOL

    def test_exact_maximum_matches_a_dense_grid(self):
        # Guards the quadratic (v < t) and cubic (v > t) for phi' = 0: the
        # exact maximum is never below 400,000 log-spaced levels, and agrees
        # with them to 1e-9 where it is finite; it is +inf only for m1 < 0.
        rng = np.random.default_rng(11)
        finite = 0
        for i in range(50):
            s = spectra.sample_random(2 + i % 4, 1000 + i)
            d_star = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.99))))
            levels = np.geomspace(1e-3 * d_star, 1e3 / d_star, 400_000)
            phi, m1 = _phi_on_levels(s.values, s.weights, d_star, levels)
            exact, _ = gapopt._max_phi(s.values, s.weights, d_star)
            assert exact >= float(phi.max()) - 1e-12
            if math.isinf(exact):
                assert m1 < 0.0 and exact > 0.0
                continue
            finite += 1
            assert exact == pytest.approx(float(phi.max()), abs=1e-9)
        assert finite >= 20

    def test_one_level_spectrum(self):
        # One level has m1 = 0 (the gap does not depend on its scale), so the
        # supremum may be the limit at v -> inf, which no level attains.
        d_star = 0.9
        limit = (math.log(1.0 - d_star) + d_star / (1.0 - d_star)) / (2.0 * math.log(2.0))
        phi, _ = gapopt._max_phi([1.0], [1.0], d_star)
        assert phi == pytest.approx(limit, rel=1e-12)
        finite_levels = _phi_on_levels([1.0], [1.0], d_star, np.geomspace(1e-6, 1e3, 1000))[0]
        assert phi > float(finite_levels.max())
        # At d* = 0.3 a finite level below the water level, t = 0.3, beats the limit.
        phi, _ = gapopt._max_phi([1.0], [1.0], 0.3)
        assert phi > (math.log(0.7) + 0.3 / 0.7) / (2.0 * math.log(2.0))
        below = _phi_on_levels([1.0], [1.0], 0.3, np.linspace(1e-6, 0.3, 300_000))[0]
        assert phi == pytest.approx(float(below.max()), abs=1e-9)

    def test_sweep_reports_max_phi(self):
        res = gapopt.sweep([0.3, 0.7], 5)
        for rec, d in zip(res.records, res.diagnostics):
            s = rec.spectrum
            assert d.max_phi == gapopt._max_phi(s.values, s.weights, rec.d_star)[0]
            assert d.max_phi <= gapopt.STATIONARY_TOL
            assert d.restarts == 4 * gapopt._STARTS_PER_K

    def test_diagnostics_describe_the_reported_spectrum(self):
        # max_phi and the residual are those of the spectrum the record reports,
        # at points where the solved spectrum's mean is not exactly 1.
        res = gapopt.sweep([0.1, 0.9], 5)
        for rec, d in zip(res.records, res.diagnostics):
            s = rec.spectrum
            phi, residual = gapopt._max_phi(s.values, s.weights, rec.d_star)
            assert d.max_phi == phi
            assert d.residual == residual


class TestLockstep:
    def test_ascent_does_not_crawl_where_the_gap_is_not_concave(self, monkeypatch):
        # From this start s.y <= 0 at every step; without doubling the inverse
        # Hessian there, the ascent took gradient steps to the iteration cap.
        evaluations = []
        chart = gapopt._chart_gap_grad
        monkeypatch.setattr(gapopt, "_chart_gap_grad",
                            lambda Z, k, d: evaluations.append(len(Z)) or chart(Z, k, d))
        z = gapopt._pack([1.3029527270568124, 0.5455709094147815], [0.6, 0.4])
        gapopt._ascend(z[None], 2, 0.9)
        assert sum(evaluations) <= gapopt._ASCENT_MAX_ITER // 4

    @pytest.mark.parametrize("d_star", [1e-5, 0.5, 0.995])
    def test_lockstep_best_equals_one_at_a_time(self, d_star, monkeypatch):
        starts = []
        ascend = gapopt._ascend
        monkeypatch.setattr(gapopt, "_ascend", lambda Z, k, d: starts.append(Z) or ascend(Z, k, d))
        gapopt._search_k(d_star, 4 * gapopt._STARTS_PER_K)
        (Z,) = starts
        assert len(Z) == 4 * gapopt._STARTS_PER_K
        lockstep = max(gap for gap, _, _ in ascend(Z, 2, d_star))
        one_at_a_time = max(ascend(z[None], 2, d_star)[0][0] for z in Z)
        assert abs(lockstep - one_at_a_time) <= gapopt._GAP_SLACK


class TestVertexDirection:
    """A non-stationary two-level point (residual ~7e-4, phi ~0.13 near
    v = 216) patched in as the search's best: phi asks for a level there,
    and the search reports the point with its failed certificate."""

    D_STAR = 0.865
    LEVELS = [504.6718775488723, 0.511488327895775]
    WEIGHTS = [0.000968960835775036, 0.999031039164225]

    def test_patched_point_asks_for_a_level(self):
        phi, _ = gapopt._max_phi(self.LEVELS, self.WEIGHTS, self.D_STAR)
        assert phi > 0.1
        near, _ = _phi_on_levels(self.LEVELS, self.WEIGHTS, self.D_STAR,
                                 np.geomspace(100.0, 400.0, 100_000))
        assert phi == pytest.approx(float(near.max()), abs=1e-9)

    def test_patched_point_is_reported_as_found(self, monkeypatch):
        def patched(d_star, n_starts):
            gap = gapopt._gap_core(self.LEVELS, self.WEIGHTS, d_star)
            return gap, list(self.LEVELS), list(self.WEIGHTS), n_starts

        monkeypatch.setattr(gapopt, "_search_k", patched)
        patched_gap = gapopt._gap_core(self.LEVELS, self.WEIGHTS, self.D_STAR)
        for k_max in range(2, 6):
            rec, diag = gapopt._point_search(self.D_STAR, k_max)
            assert diag.restarts == gapopt._STARTS_PER_K * (k_max - 1)
            assert rec.spectrum.k == 2
            assert rec.gap_bits == pytest.approx(patched_gap, abs=1e-15)
            assert diag.max_phi > gapopt.STATIONARY_TOL
            assert diag.converged == 0


class TestMaximizeGap:
    def test_single_level_gap_is_zero(self):
        rec = gapopt.maximize_gap(0.3, 1)
        assert rec.spectrum.k == 1
        assert abs(rec.gap_bits) < 1e-12

    def test_k_nesting(self):
        for d in (0.1, 0.5):
            g2 = gapopt.maximize_gap(d, 2).gap_bits
            g5 = gapopt.maximize_gap(d, 5).gap_bits
            assert g5 >= g2 >= -1e-12

    def test_positive_gap_found_at_small_distortion(self):
        rec = gapopt.maximize_gap(0.05, 2)
        assert rec.gap_bits > 0.05

    def test_deterministic(self):
        a = gapopt.maximize_gap(0.2, 3)
        b = gapopt.maximize_gap(0.2, 3)
        assert a.spectrum.values == b.spectrum.values
        assert a.spectrum.weights == b.spectrum.weights
        assert a.gap_bits == b.gap_bits

    def test_weightless_level_does_not_set_merge_scale(self):
        # A k >= 3 ascent can leave a level of weight ~1e-29 at ~3e9 next to
        # the two-level maximum.  _collapse drops such a level by its weight,
        # and no merge scale is taken from the levels, so it cannot pull the
        # others into one; the search at k_max = 4 reports two levels.
        rec = gapopt.maximize_gap(0.765, 4)
        assert rec.spectrum.k == 2
        assert rec.gap_bits > 0.05
        v, w = (list(x) for x in (rec.spectrum.values, rec.spectrum.weights))
        cv, cw = gapopt._collapse([3e9] + v, [1e-29] + w, gapopt._WEIGHT_FLOOR,
                                  gapopt._COALESCE_REL)
        assert len(cv) == 2
        assert all(abs(a - b) < 1e-12 for a, b in zip(cv + cw, v + w))

    @pytest.mark.parametrize("d,k", [(0.0, 2), (1e-10, 2), (1.0, 2), (0.5, 0), (0.5, 6)])
    def test_domain(self, d, k):
        with pytest.raises(ValueError):
            gapopt.maximize_gap(d, k)

    @pytest.mark.parametrize("search", [
        pytest.param(lambda k: gapopt.maximize_gap(0.3, k), id="maximize_gap"),
        pytest.param(lambda k: gapopt.sweep([0.3], k, threads=1), id="sweep"),
    ])
    def test_float_k_max_rejected(self, search):
        for k_max in (2.7, True):
            with pytest.raises(ValueError, match="k_max must be an integer"):
                search(k_max)
        assert search(np.int64(1)) is not None

    def test_record_is_reevaluated_through_public_solvers(self):
        rec = gapopt.maximize_gap(0.25, 2)
        fresh = gapopt.gap_at(rec.spectrum, 0.25)
        assert fresh.gap_bits == rec.gap_bits


class TestSweep:
    def test_single_point(self):
        res = gapopt.sweep([0.25], 1)
        assert len(res.records) == 1
        assert len(res.diagnostics) == 1
        assert res.best is res.records[0]
        assert abs(res.best.gap_bits) < 1e-12

    def test_diagnostics_restart_count(self):
        res = gapopt.sweep([0.3], 3)
        d = res.diagnostics[0]
        # The flat start is not searched; each unit of k_max above 1 adds _STARTS_PER_K.
        assert d.restarts == 2 * gapopt._STARTS_PER_K
        assert 0 <= d.converged <= d.restarts
        assert d.best_k == 2

    def test_k_max_sets_only_the_start_count(self):
        # The search is two-level at every k_max >= 2: more starts refind the
        # same spectrum, so records and diagnostics agree apart from restarts.
        points = [1e-8, 0.005, 0.3, 0.9]
        base = gapopt.sweep(points, 2, threads=1)
        for k in (3, 4, 5):
            res = gapopt.sweep(points, k, threads=1)
            assert res.records == base.records
            assert [replace(d, restarts=0) for d in res.diagnostics] == [
                replace(d, restarts=0) for d in base.diagnostics]
            assert {d.restarts for d in res.diagnostics} == {gapopt._STARTS_PER_K * (k - 1)}

    def test_best_picks_grid_max(self):
        res = gapopt.sweep([0.1, 0.5, 0.9], 2)
        assert res.best.gap_bits == max(r.gap_bits for r in res.records)
        assert res.best.d_star == 0.1  # gap grows toward small distortion

    def test_thread_count_does_not_change_results(self):
        serial = gapopt.sweep([0.15, 0.75], 2, threads=1)
        parallel = gapopt.sweep([0.15, 0.75], 2, threads=2)
        assert gapopt.sweep_csv_rows(serial) == gapopt.sweep_csv_rows(parallel)
        assert serial.best.gap_bits == parallel.best.gap_bits

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            gapopt.sweep([], 2)
        with pytest.raises(ValueError):
            gapopt.sweep([9.9e-9], 2)
        with pytest.raises(ValueError):
            gapopt.sweep([0.9995], 2)


class TestSearchDomain:
    """maximize_gap and sweep share one d* domain, [1e-8, 0.999]; the search
    converges at both of its ends."""

    ENDS = [1e-8, 1e-4, 0.999]

    @pytest.mark.parametrize("search", [
        pytest.param(lambda d: gapopt.maximize_gap(d, 2), id="maximize_gap"),
        pytest.param(lambda d: gapopt.sweep([0.3, d], 2, threads=1), id="sweep"),
    ])
    @pytest.mark.parametrize("d_star", [9.9e-9, 0.9995, 1.0])
    def test_outside_is_refused(self, search, d_star):
        with pytest.raises(ValueError, match=r"d_star must lie in \[1e-8, 0\.999\]"):
            search(d_star)

    @pytest.mark.parametrize("k_max", [2, 5])
    def test_ends_converge(self, k_max):
        res = gapopt.sweep(self.ENDS, k_max, threads=1)
        assert [d.converged for d in res.diagnostics] == [1, 1, 1]
        assert res.records == tuple(gapopt.maximize_gap(d, k_max) for d in self.ENDS)


class TestSweepCsvRows:
    def test_header(self):
        assert SWEEP_CSV_HEADER == "d_star,rate_rc_bits,rate_wf_bits,gap_bits,levels,weights"

    def test_row_shape_and_zero_formatting(self):
        res = gapopt.sweep([0.25], 1)
        rows = gapopt.sweep_csv_rows(res)
        assert len(rows) == 1
        cells = rows[0].split(",")
        assert cells[0] == "0.25"
        assert cells[3] == "0.000000"  # tiny signed residue never prints as -0.000000
        assert float(cells[1]) == res.records[0].rate_rc_bits
        assert ";" not in cells[0]

    def test_levels_and_weights_round_trip(self):
        res = gapopt.sweep([0.1], 2)
        cells = gapopt.sweep_csv_rows(res)[0].split(",")
        values = tuple(float(x) for x in cells[4].split(";"))
        weights = tuple(float(x) for x in cells[5].split(";"))
        assert values == res.records[0].spectrum.values
        assert weights == res.records[0].spectrum.weights
