"""Universality rate gap: evaluation, analytic gradients, worst-case search.

The gap at a fixed target distortion is the random-coding rate minus the
oracle waterfilling rate.  The worst case over spectra is found by a
deterministic multi-start search: a coarse log-space scan over (levels,
weights) for each level count k, then a BFGS ascent on the analytic gap
gradient from the top 16 scan cells per k, under the reparametrization
levels = exp(x), weights = softmax(y), projected to unit mean.

The gap is flat at its maximum, so maximizing it in float64 fixes the argmax
only to about 1e-7.  The search's best point is therefore finished by a
stationarity solve: Newton on the analytic gap gradient in levels and
weights (grad_rates, grad_rates_weights) over the set sum w = 1,
sum w v = 1, merging levels that coalesce or lose their weight.  The solved
point replaces the searched one unless it loses more than 1e-15 of gap, and
its residual (stationarity_residual) is reported per grid point.  The golden
sweep fixture is regenerated with tools/regen_golden_sweep.py.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import rdrc, waterfill
from ._parallel import ordered_map, resolve_threads
from .errors import KinkError, SolverError
from .spectra import Spectrum, _merge_values

_LN2 = math.log(2.0)
_STREAM_GAPOPT = 5

STATIONARY_TOL = 1e-11  # projected-gradient residual that counts as converged
_NEWTON_STEP_FLOOR = 1e-15  # relative Newton step that is rounding
_NEWTON_MAX_ITER = 20
_NEWTON_HALVINGS = 12
_GAP_SLACK = 1e-15  # a solved point may lose no more gap than this to rounding
_WEIGHT_FLOOR = 1e-6
_COALESCE_REL = 1e-4
_CHART_CLIP = 60.0  # log-level bound in the search chart
_ASCENT_MAX_ITER = 200
_ASCENT_GTOL = 1e-10  # max-norm of the chart gradient that stops an ascent
_ASCENT_XTOL = 1e-12  # max-norm of a step too small to take
_ASCENT_MAX_STEP = 2.0
_ARMIJO = 1e-4


@dataclass(frozen=True)
class GapRecord:
    """Both curve rates and their gap at one (spectrum, distortion) point."""

    spectrum: Spectrum
    d_star: float
    rate_wf_bits: float
    rate_rc_bits: float
    gap_bits: float
    level_t: float
    level_T: float


@dataclass(frozen=True)
class PointDiagnostics:
    """Optimizer bookkeeping for one grid point.

    restarts counts the BFGS ascents of the multi-start search; residual
    is the stationarity residual of the reported spectrum (see
    stationarity_residual), and converged is 1 when it is at most
    STATIONARY_TOL, else 0.
    """

    d_star: float
    restarts: int
    converged: int
    best_k: int
    residual: float


@dataclass(frozen=True)
class SweepResult:
    d_grid: tuple[float, ...]
    records: tuple[GapRecord, ...]
    best: GapRecord
    diagnostics: tuple[PointDiagnostics, ...]


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search knobs; identical configs give identical results."""

    seed: int = 0
    starts_per_k: int = 16
    coarse_per_k: int = 256
    merge_tol: float = 1e-7


def gap_at(s: Spectrum, d_star: float) -> GapRecord:
    """Evaluate both curves at the same target distortion via the public solvers."""
    if not 0.0 < d_star < 1.0:
        raise ValueError("d_star must lie in (0, 1)")
    t = waterfill.t_for_distortion(s, d_star)
    rate_wf = waterfill.r_wf(s, t)
    T = rdrc.t_rc_for_distortion(s, d_star)
    rate_rc = rdrc.r_rc(s, T)
    return GapRecord(
        spectrum=s,
        d_star=d_star,
        rate_wf_bits=rate_wf,
        rate_rc_bits=rate_rc,
        gap_bits=rate_rc - rate_wf,
        level_t=t,
        level_T=T,
    )


def _check_kink(values, t: float) -> None:
    for v in values:
        if abs(v - t) <= 1e-9 * max(v, t):
            raise KinkError(f"level {v} sits on the waterfilling level {t}")


def _rate_grads(values, weights, t: float, T: float):
    """Partial derivatives of (rate_wf, rate_rc) in bits at fixed target
    distortion, given the solved water level t and parameter T.

    Both distortion constraints are differentiated implicitly: a change
    that moves the distortion by dD at fixed t (or T) moves t by
    -dD / W_active and T by dD / den, with W_active the weight above the
    water level and den = sum w v^2 / (1 + vT)^2.
    Returns (levels_wf, levels_rc, weights_wf, weights_rc).
    """
    num = sum(w * v / (1.0 + v * T) for v, w in zip(values, weights))
    den = sum(w * v * v / (1.0 + v * T) ** 2 for v, w in zip(values, weights))
    A = num / den
    levels_wf = tuple(
        w / (2.0 * _LN2 * v) if v > t else w / (2.0 * _LN2 * t)
        for v, w in zip(values, weights)
    )
    levels_rc = tuple(
        w / (2.0 * _LN2) * (T / (1.0 + v * T) + A / (1.0 + v * T) ** 2)
        for v, w in zip(values, weights)
    )
    # d rate / d w_j: the level's own log term plus the shift of t (or T) that
    # keeps the distortion at d_star while w_j moves.
    weights_wf = tuple(
        (math.log(v / t) + 1.0) / (2.0 * _LN2) if v > t else v / (2.0 * _LN2 * t)
        for v in values
    )
    weights_rc = tuple(
        (math.log1p(v * T) + A * v / (1.0 + v * T)) / (2.0 * _LN2) for v in values
    )
    return levels_wf, levels_rc, weights_wf, weights_rc


def _public_rate_grads(s: Spectrum, d_star: float):
    if not 0.0 < d_star < 1.0:
        raise ValueError("d_star must lie in (0, 1)")
    t = waterfill.t_for_distortion(s, d_star)
    _check_kink(s.values, t)
    T = rdrc.t_rc_for_distortion(s, d_star)
    return _rate_grads(s.values, s.weights, t, T)


def grad_rates(s: Spectrum, d_star: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-level gradients of (rate_wf_bits, rate_rc_bits) in the level values,
    weights held fixed, at fixed target distortion.

    Raises KinkError when a level sits on the waterfilling level (the oracle
    curve has a kink there and is not differentiable).
    """
    levels_wf, levels_rc, _, _ = _public_rate_grads(s, d_star)
    return levels_wf, levels_rc


def grad_rates_weights(s: Spectrum, d_star: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-level gradients of (rate_wf_bits, rate_rc_bits) in the weights,
    level values held fixed, at fixed target distortion.

    These are partial derivatives of the rate formulas, which accept any
    positive weights: a perturbation need not keep the weights summing to 1.
    Raises KinkError on the waterfilling kink, like grad_rates.
    """
    _, _, weights_wf, weights_rc = _public_rate_grads(s, d_star)
    return weights_wf, weights_rc


def _gap_core(values, weights, d_star: float) -> float:
    """Gap on raw arrays; equals gap_at(s, d_star).gap_bits bit for bit."""
    t = waterfill._t_wf_exact(values, weights, d_star)
    rate_wf = waterfill._r_wf(values, weights, t)
    T = rdrc._t_for_distortion_newton(values, weights, d_star)
    return rdrc._r_rc(values, weights, T) - rate_wf


def _gap_grad(values, weights, d_star: float) -> tuple[np.ndarray, np.ndarray]:
    """Gap gradient in (levels, weights) on raw arrays."""
    t = waterfill._t_wf_exact(values, weights, d_star)
    _check_kink(values, t)
    T = rdrc._t_for_distortion_newton(values, weights, d_star)
    levels_wf, levels_rc, weights_wf, weights_rc = _rate_grads(values, weights, t, T)
    return np.subtract(levels_rc, levels_wf), np.subtract(weights_rc, weights_wf)


def _projected_residual(values, weights, g_levels, g_weights) -> float:
    """Max-norm of the gap gradient after removing its least-squares fit by
    the gradients of the constraints sum w = 1 and sum w v = 1."""
    k = len(values)
    g = np.concatenate([g_levels, g_weights])
    J = np.array([np.r_[np.zeros(k), np.ones(k)], np.r_[weights, values]])
    mult = np.linalg.lstsq(J.T, g, rcond=None)[0]
    return float(np.max(np.abs(g - J.T @ mult)))


def stationarity_residual(s: Spectrum, d_star: float) -> float:
    """Distance of s from a stationary point of the gap over spectra with
    s.k levels: the max-norm of the gap gradient in (levels, weights)
    projected onto the constraint set sum w = 1, sum w v = 1.

    The water level and T come from the same solvers as gap_at (closed
    form and Newton), which are accurate to rounding; raises KinkError on
    the waterfilling kink.
    """
    if not 0.0 < d_star < 1.0:
        raise ValueError("d_star must lie in (0, 1)")
    return _residual(s.values, s.weights, d_star)


def _residual(values, weights, d_star: float) -> float:
    g_levels, g_weights = _gap_grad(values, weights, d_star)
    return _projected_residual(values, weights, g_levels, g_weights)


class _Chart:
    """Coordinates on the constraint set: every level but the heaviest is
    free; the heaviest level's weight and value follow from sum w = 1 and
    sum w v = 1."""

    def __init__(self, values, weights, d_star: float) -> None:
        self.k = len(values)
        self.dep = int(np.argmax(weights))
        self.free = [j for j in range(self.k) if j != self.dep]
        self.d_star = d_star
        self.x0 = np.array([values[j] for j in self.free] + [weights[j] for j in self.free])

    def point(self, x: np.ndarray):
        """(values, weights) at x, or None outside the feasible set."""
        m, dep = len(self.free), self.dep
        v, w = np.empty(self.k), np.empty(self.k)
        v[self.free], w[self.free] = x[:m], x[m:]
        w[dep] = 1.0 - float(np.sum(x[m:]))
        if not (w[dep] > 0.0 and np.all(x > 0.0)):
            return None
        v[dep] = (1.0 - float(x[:m] @ x[m:])) / w[dep]
        return (v, w) if v[dep] > 0.0 else None

    def grad(self, x: np.ndarray):
        """(gradient in x, projected residual), or None outside the feasible set."""
        p = self.point(x)
        if p is None:
            return None
        v, w = p
        g_levels, g_weights = _gap_grad(v.tolist(), w.tolist(), self.d_star)
        f, dep = self.free, self.dep
        gx = np.r_[
            g_levels[f] - g_levels[dep] * w[f] / w[dep],
            g_weights[f] - g_weights[dep] + g_levels[dep] * (v[dep] - v[f]) / w[dep],
        ]
        return gx, _projected_residual(v, w, g_levels, g_weights)


def _newton(values, weights, d_star: float):
    """Newton on the chart gradient, with the Hessian by central differences
    of the analytic gradient.

    A step is halved until the Newton step from the trial point is shorter
    (relative to x) than the step taken, which measures the distance to the
    root along soft directions as well as stiff ones.  Stops when the step is
    within rounding of x, when no halving shortens it (the rounding floor of
    the gradient), or on a Hessian that is not negative definite (no nearby
    maximum).  Returns (values, weights, residual) at the last accepted
    point, or None from an infeasible start.
    """
    chart = _Chart(values, weights, d_star)
    x = chart.x0
    start = chart.grad(x)
    if start is None:
        return None
    gx, res = start
    if x.size == 0:  # one level: the constraints fix the spectrum
        return (*chart.point(x), res)
    for _ in range(_NEWTON_MAX_ITER):
        cols = []
        for i, h in enumerate(1e-5 * x):
            e = np.zeros_like(x)
            e[i] = h
            hi, lo = chart.grad(x + e), chart.grad(x - e)
            if hi is None or lo is None:
                return (*chart.point(x), res)
            cols.append((hi[0] - lo[0]) / (2.0 * h))
        H = np.array(cols)
        H = 0.5 * (H + H.T)
        if float(np.linalg.eigvalsh(H).max()) >= 0.0:
            break
        step = np.linalg.solve(H, -gx)
        size = float(np.max(np.abs(step) / x, initial=0.0))
        if size <= _NEWTON_STEP_FLOOR:
            break
        for _ in range(_NEWTON_HALVINGS):
            trial = chart.grad(x + step)
            if trial is not None and float(
                np.max(np.abs(np.linalg.solve(H, trial[0])) / x)
            ) < size:
                x = x + step
                gx, res = trial
                break
            step = 0.5 * step
        else:
            break
    return (*chart.point(x), res)


def _collapse(values, weights):
    """Drop levels lighter than _WEIGHT_FLOOR and merge levels within
    _COALESCE_REL of each other; returns decreasing, unit-mean lists."""
    merged: list[list[float]] = []
    for v, w in sorted(zip(values, weights), key=lambda p: -p[0]):
        if w <= _WEIGHT_FLOOR:
            continue
        if merged and merged[-1][0] - v <= _COALESCE_REL * merged[-1][0]:
            pv, pw = merged[-1]
            merged[-1] = [(pv * pw + v * w) / (pw + w), pw + w]
        else:
            merged.append([v, w])
    return _normalized([p[0] for p in merged], [p[1] for p in merged])


def _merge_closest(values, weights):
    """Merge the adjacent pair of a decreasing list with the smallest relative gap."""
    j = min(range(len(values) - 1), key=lambda i: (values[i] - values[i + 1]) / values[i])
    w = weights[j] + weights[j + 1]
    v = (values[j] * weights[j] + values[j + 1] * weights[j + 1]) / w
    return _normalized(
        values[:j] + [v] + values[j + 2:], weights[:j] + [w] + weights[j + 2:]
    )


def _normalized(values, weights):
    total = sum(weights)
    weights = [w / total for w in weights]
    mean = sum(v * w for v, w in zip(values, weights))
    return [v / mean for v in values], weights


def _stationary_point(values, weights, d_star: float):
    """Solve the stationarity conditions from a searched point.

    Levels that coalesce or lose their weight, before or during the solve,
    are merged and the solve restarts with fewer levels; so does a solve that
    stalls.  Returns (values, weights, residual), or None when no solve ran
    cleanly (kink, infeasible start).
    """
    v, w = _collapse(values, weights)
    while True:
        try:
            sol = _newton(v, w, d_star)
        except (KinkError, SolverError):
            sol = None
        if sol is not None:
            sv, sw = _sorted_desc(sol[0].tolist(), sol[1].tolist())
            cv, cw = _collapse(sv, sw)
            if len(cv) < len(sv):
                v, w = cv, cw
                continue
            if sol[2] <= STATIONARY_TOL or len(v) <= 2:
                return sv, sw, sol[2]
        if len(v) <= 2:
            return None
        v, w = _merge_closest(v, w)


def _dstar_key(d_star: float) -> tuple[int, int]:
    bits = struct.unpack("<Q", struct.pack("<d", d_star))[0]
    return (bits & 0xFFFFFFFF, bits >> 32)


def _unpack(z: np.ndarray, k: int) -> tuple[list[float], list[float]]:
    values = [math.exp(min(max(x, -_CHART_CLIP), _CHART_CLIP)) for x in z[:k].tolist()]
    logits = z[k:].tolist() + [0.0]
    top = max(logits)
    e = [math.exp(y - top) for y in logits]
    total = sum(e)
    weights = [u / total for u in e]
    mean = sum(v * w for v, w in zip(values, weights))
    return [v / mean for v in values], weights


def _pack(values, weights) -> np.ndarray:
    x = [math.log(max(v, 1e-24)) for v in values]
    ref = math.log(weights[-1])
    y = [math.log(w) - ref for w in weights[:-1]]
    return np.asarray(x + y, dtype=float)


def _chart_gap_grad(z: np.ndarray, k: int, d_star: float) -> tuple[float, np.ndarray]:
    """Gap and its gradient in the _unpack chart z = (x, y), on Python floats
    (at k <= 5 a numpy call costs more than the arithmetic it does).
    The oracle rate is C^1 across the water level, so no kink check is made.
    With s = sum g_v v the chain rule through v = exp(x) / mean and
    w = softmax(y, 0) gives dG/dx_j = v_j (g_v,j - s w_j), 0 where x_j is
    clipped, and, with h = g_w - s v, dG/dy_l = w_l (h_l - w.h).
    """
    values, weights = _unpack(z, k)
    t = waterfill._t_wf_exact(values, weights, d_star)
    T = rdrc._t_for_distortion_newton(values, weights, d_star)
    gap = rdrc._r_rc(values, weights, T) - waterfill._r_wf(values, weights, t)
    levels_wf, levels_rc, weights_wf, weights_rc = _rate_grads(values, weights, t, T)
    g_v = [rc - wf for rc, wf in zip(levels_rc, levels_wf)]
    s = sum(g * v for g, v in zip(g_v, values))
    h = [rc - wf - s * v for rc, wf, v in zip(weights_rc, weights_wf, values)]
    wh = sum(w * u for w, u in zip(weights, h))
    gx = [v * (g - s * w) if abs(x) < _CHART_CLIP else 0.0
          for v, g, w, x in zip(values, g_v, weights, z.tolist())]
    gy = [w * (u - wh) for w, u in zip(weights[:-1], h)]
    return gap, np.array(gx + gy)


def _ascend(z: np.ndarray, k: int, d_star: float) -> np.ndarray:
    """BFGS ascent of the gap in the _unpack chart from z.

    Starts from the identity inverse Hessian, caps each step at
    _ASCENT_MAX_STEP in max-norm and halves it until the Armijo condition
    holds; stops at _ASCENT_MAX_ITER iterations, at a gradient below
    _ASCENT_GTOL in max-norm, or when the accepted step falls below
    _ASCENT_XTOL (Nocedal & Wright, Numerical Optimization, 2nd ed., ch. 6).
    """
    gap, g = _chart_gap_grad(z, k, d_star)
    H = np.eye(z.size)
    for _ in range(_ASCENT_MAX_ITER):
        if float(np.max(np.abs(g))) < _ASCENT_GTOL:
            break
        p = H @ g
        if float(g @ p) <= 0.0:  # H lost positive definiteness to rounding
            H = np.eye(z.size)
            p = g.copy()
        p *= min(1.0, _ASCENT_MAX_STEP / float(np.max(np.abs(p))))
        slope = float(g @ p)
        alpha = 1.0
        while True:
            if alpha * float(np.max(np.abs(p))) < _ASCENT_XTOL:
                return z
            z_new = z + alpha * p
            gap_new, g_new = _chart_gap_grad(z_new, k, d_star)
            if gap_new >= gap + _ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        s, y = z_new - z, g - g_new  # y: change in the gradient of -gap
        z, gap, g = z_new, gap_new, g_new
        sy = float(s @ y)
        if sy > 0.0:
            Hy = H @ y
            H += ((sy + float(y @ Hy)) / sy**2) * np.outer(s, s) - (
                np.outer(Hy, s) + np.outer(s, Hy)
            ) / sy
    return z


def _coarse_candidates(d_star: float, k: int, cfg: SearchConfig) -> list[tuple[list[float], list[float]]]:
    """Deterministic coarse scan cells for level count k (already unit-mean)."""
    cands: list[tuple[list[float], list[float]]] = []
    if k == 1:
        return [([1.0], [1.0])]
    if k == 2:
        # Exhaustive two-level family: top weight x position of the top level
        # between 1 and its feasibility bound 1/w1.
        for w1 in np.linspace(0.04, 0.96, 24):
            for u in np.linspace(0.02, 0.98, 24):
                v1 = 1.0 + u * (1.0 / w1 - 1.0)
                v2 = (1.0 - w1 * v1) / (1.0 - w1)
                if v2 < 0.0:
                    continue
                cands.append(([float(v1), float(v2)], [float(w1), float(1.0 - w1)]))
        return cands
    rng = np.random.Generator(
        np.random.Philox(
            np.random.SeedSequence(
                entropy=cfg.seed, spawn_key=(_STREAM_GAPOPT, k, *_dstar_key(d_star))
            )
        )
    )
    for _ in range(cfg.coarse_per_k):
        values = np.exp(rng.uniform(-4.0, 4.0, size=k))
        weights = rng.dirichlet(np.ones(k))
        if float(weights.min()) < 1e-8:
            continue
        order = np.argsort(-values)
        values, weights = values[order], weights[order]
        values = values / float(values @ weights)
        cands.append((values.tolist(), weights.tolist()))
    return cands


def _search_k(d_star: float, k: int, cfg: SearchConfig, carry):
    """Best (gap, values, weights, ascents) over spectra with k levels."""
    cands = _coarse_candidates(d_star, k, cfg)
    scored = sorted(
        ((_gap_core(v, w, d_star), v, w) for v, w in cands), key=lambda c: -c[0]
    )
    starts = [(v, w) for _, v, w in scored[: cfg.starts_per_k]]
    if carry is not None and len(starts) == cfg.starts_per_k and k > 2:
        # Continuation: split the previous level count's top level in two.
        cv, cw = carry
        v = [cv[0] * 1.05, cv[0] * 0.95] + list(cv[1:])
        w = [cw[0] / 2.0, cw[0] / 2.0] + list(cw[1:])
        m = sum(a * b for a, b in zip(v, w))
        starts[-1] = ([a / m for a in v], list(w))
    if k == 1:
        starts = starts[:1]

    best = (-math.inf, None, None)
    for v0, w0 in starts:
        v, w = _unpack(_ascend(_pack(v0, w0), k, d_star), k)
        g = _gap_core(v, w, d_star)
        if g > best[0]:
            best = (g, v, w)
    return best[0], best[1], best[2], len(starts)


def _point_search(d_star: float, k_max: int, cfg: SearchConfig) -> tuple[GapRecord, PointDiagnostics]:
    best = (-math.inf, [1.0], [1.0], 1)
    restarts = 0
    carry = None
    for k in range(1, k_max + 1):
        g, v, w, runs = _search_k(d_star, k, cfg, carry)
        restarts += runs
        carry = (v, w)
        if g > best[0]:
            best = (g, v, w, k)
    _, values, weights, best_k = best
    # The merge scale is the top level that carries weight: an ascent can
    # leave a level of weight ~1e-29 far above the rest, and scaling by it
    # would merge every level into one.
    top = max(v for v, w in zip(values, weights) if w > _WEIGHT_FLOOR)
    values, weights = _merge_values(*_sorted_desc(values, weights), tol=cfg.merge_tol * top)
    mean = sum(v * w for v, w in zip(values, weights))
    values = [v / mean for v in values]
    # The gap is flat at its maximum, so the search fixes the argmax only to
    # about sqrt(eps); solving grad = 0 fixes it to about eps / |curvature|.
    solved = _stationary_point(values, weights, d_star)
    if solved is not None and _gap_core(solved[0], solved[1], d_star) >= (
        _gap_core(values, weights, d_star) - _GAP_SLACK
    ):
        values, weights, residual = solved
    else:
        try:
            residual = _residual(values, weights, d_star)
        except KinkError:
            residual = math.inf
    mean = sum(v * w for v, w in zip(values, weights))
    spectrum = Spectrum(tuple(v / mean for v in values), tuple(weights))
    record = gap_at(spectrum, d_star)
    diag = PointDiagnostics(
        d_star=d_star,
        restarts=restarts,
        converged=int(residual <= STATIONARY_TOL),
        best_k=best_k,
        residual=residual,
    )
    return record, diag


def _sorted_desc(values, weights):
    pairs = sorted(zip(values, weights), key=lambda p: -p[0])
    return [p[0] for p in pairs], [p[1] for p in pairs]


def maximize_gap(d_star: float, k_max: int, search: SearchConfig | None = None) -> GapRecord:
    """Best gap found over spectra with at most k_max distinct levels."""
    if not 0.0 < d_star < 1.0:
        raise ValueError("d_star must lie in (0, 1)")
    if not 1 <= int(k_max) <= 5:
        raise ValueError("k_max must lie in 1..5")
    record, _ = _point_search(d_star, int(k_max), search or SearchConfig())
    return record


def _sweep_worker(args):
    d_star, k_max, cfg = args
    return _point_search(d_star, k_max, cfg)


def sweep(
    d_grid,
    k_max: int,
    search: SearchConfig | None = None,
    threads: int | None = None,
) -> SweepResult:
    """Per-point worst-case gaps over a distortion grid.

    Grid points are independent; with threads > 1 they run in a process pool
    and are reduced in grid order, so the result does not depend on
    scheduling.
    """
    grid = tuple(float(d) for d in d_grid)
    if not grid:
        raise ValueError("empty distortion grid")
    for d in grid:
        if not 0.005 - 1e-12 <= d <= 0.995 + 1e-12:
            raise ValueError(f"grid point {d} outside [0.005, 0.995]")
    if not 1 <= int(k_max) <= 5:
        raise ValueError("k_max must lie in 1..5")
    cfg = search or SearchConfig()
    args = [(d, int(k_max), cfg) for d in grid]
    results = ordered_map(_sweep_worker, args, resolve_threads(threads))
    records = tuple(r for r, _ in results)
    diags = tuple(d for _, d in results)
    best = max(records, key=lambda r: r.gap_bits)
    return SweepResult(d_grid=grid, records=records, best=best, diagnostics=diags)


SWEEP_CSV_HEADER = "d_star,rate_rc_bits,rate_wf_bits,gap_bits,levels,weights"


def sweep_csv_rows(result: SweepResult) -> list[str]:
    """CSV rows for a sweep; gap fixed to 6 decimals per the output contract."""
    rows = []
    for rec in result.records:
        levels = ";".join(repr(v) for v in rec.spectrum.values)
        weights = ";".join(repr(w) for w in rec.spectrum.weights)
        gap = rec.gap_bits if abs(rec.gap_bits) >= 5e-7 else 0.0  # avoid "-0.000000"
        rows.append(
            f"{rec.d_star!r},{rec.rate_rc_bits!r},{rec.rate_wf_bits!r},"
            f"{gap:.6f},{levels},{weights}"
        )
    return rows
