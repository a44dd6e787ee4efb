"""Universality rate gap: evaluation, analytic gradients, worst-case search.

The gap at a fixed target distortion is the random-coding rate minus the
oracle waterfilling rate.  Its worst case is searched deterministically over
two-level spectra, starting from the flat spectrum.  BFGS ascents on the
analytic gap gradient, in the chart levels = exp(x), weights = softmax(y) at
unit mean, start from the 16 (k_max - 1) best cells of an exhaustive
two-level scan.  They run in lockstep on one array chart
(_chart_gap_grad, whose t and T come from _gap_core's scalar solvers), with
the inverse Hessian doubled wherever BFGS sees no curvature, and
each end point is re-scored by _gap_core, the one gap that the 1e-15 rules
below compare.  The gap is flat at its maximum, so each ascent stops at the
1e-7 that float64 resolves, and the best point is finished by Newton on
the KKT conditions over sum w = 1, sum w v = 1 in (log v, w) with the exact
gap Hessian, merging levels that coalesce or lose their weight
(spectra._collapse, at _COALESCE_REL and _WEIGHT_FLOOR);
that solve, the stationarity residual and phi share one multiplier fit
(_kkt).  The search adds no level: _max_phi, the exact maximum of the gap's
derivative in the direction of a new level, reports whether one would gain
gap to first order at the reported spectrum's T.  A point replaces the best
only if it gains more than 1e-15 of gap, and a solved point replaces the
searched one unless it loses more.  tools/regen_golden_sweep.py regenerates
the golden sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rdrc, waterfill
from ._parallel import ordered_map
from .errors import KinkError, SolverError
from .spectra import Spectrum, _collapse, _integer, _normalized

_LN2 = math.log(2.0)

STATIONARY_TOL = 1e-11  # projected-gradient residual that counts as converged
_NEWTON_MAX_ITER = 20
_GAP_SLACK = 1e-15  # a solved point may lose no more gap than this to rounding
_WEIGHT_FLOOR = 1e-6
_COALESCE_REL = 1e-4
_CHART_CLIP = 60.0  # log-level bound in the search chart
_ASCENT_MAX_ITER = 200
_ASCENT_GTOL = 1e-7  # max-norm of the chart gradient that stops an ascent
_ASCENT_XTOL = 1e-12  # max-norm of a step too small to take
_ASCENT_MAX_STEP = 2.0
_ARMIJO = 1e-4
_STARTS_PER_K = 16  # two-level BFGS ascents per level count above one


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

    restarts counts the BFGS ascents, 16 (k_max - 1); best_k is 2 if they
    beat the flat spectrum, else 1; residual is the reported spectrum's
    stationarity residual (unit-free, the same at every d*), converged is 1
    when it is at most STATIONARY_TOL, else 0, and max_phi is its
    equivalence check (_max_phi).
    """

    d_star: float
    restarts: int
    converged: int
    best_k: int
    residual: float
    max_phi: float


@dataclass(frozen=True)
class SweepResult:
    records: tuple[GapRecord, ...]
    best: GapRecord
    diagnostics: tuple[PointDiagnostics, ...]


def gap_at(s: Spectrum, d_star: float) -> GapRecord:
    """Evaluate both curves at the same target distortion via the public solvers."""
    t = waterfill.t_for_distortion(s, d_star)
    rate_wf = waterfill.r_wf(s, t)
    T = rdrc.t_rc_for_distortion(s, d_star)
    rate_rc = rdrc.r_rc(s, T)
    return GapRecord(s, d_star, rate_wf, rate_rc, rate_rc - rate_wf, t, T)


def _rate_grads(values, weights, t: float, T: float):
    """Partial derivatives of (rate_wf, rate_rc) in bits at fixed target
    distortion, given the solved water level t and parameter T.

    Both distortion constraints are differentiated implicitly: a change
    that moves the distortion by dD at fixed t (or T) moves t by
    -dD / W_active and T by dD / den, with W_active the weight above the
    water level and den = sum w v^2 / (1 + vT)^2.
    Returns (levels_wf, levels_rc, weights_wf, weights_rc).
    """
    num, den = rdrc._moments(values, weights, T)
    A = num / den
    levels_wf = tuple(w / (2.0 * _LN2 * max(v, t)) for v, w in zip(values, weights))
    levels_rc = tuple(
        w / (2.0 * _LN2) * (T / (1.0 + v * T) + A / (1.0 + v * T) ** 2)
        for v, w in zip(values, weights)
    )
    weights_wf, weights_rc = zip(*(_weight_terms(v, t, T, A) for v in values))
    return levels_wf, levels_rc, weights_wf, weights_rc


def _weight_terms(v: float, t: float, T: float, A: float) -> tuple[float, float]:
    """(d rate_wf / d w, d rate_rc / d w) in bits at a level v, A = num / den
    (rdrc._moments): its own log term plus the shift of t (or T) that keeps
    the distortion at d_star while w moves."""
    wf = (math.log(v / t) + 1.0) / (2.0 * _LN2) if v > t else v / (2.0 * _LN2 * t)
    rc = (math.log1p(v * T) + A * v / (1.0 + v * T)) / (2.0 * _LN2)
    return wf, rc


def grad_rates(s: Spectrum, d_star: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-level gradients of (rate_wf_bits, rate_rc_bits) in the level values,
    weights held fixed, at fixed target distortion.

    Raises KinkError when a level sits on the waterfilling level (the oracle
    curve has a kink there and is not differentiable).
    """
    if not 0.0 < d_star < 1.0:
        raise ValueError("d_star must lie in (0, 1)")
    return _rate_grads(s.values, s.weights, *_levels(s.values, s.weights, d_star))[:2]


def _gap_core(values, weights, d_star: float) -> float:
    """Gap on raw arrays; equals gap_at(s, d_star).gap_bits bit for bit."""
    t = waterfill._t_wf_exact(values, weights, d_star)
    rate_wf = waterfill._r_wf(values, weights, t)
    T = rdrc._t_for_distortion_newton(values, weights, d_star)
    return rdrc._r_rc(values, weights, T) - rate_wf


def _levels(values, weights, d_star: float) -> tuple[float, float]:
    """Water level t and parameter T on raw arrays; raises KinkError on the
    waterfilling kink."""
    t = waterfill._t_wf_exact(values, weights, d_star)
    for v in values:
        if abs(v - t) <= 1e-9 * max(v, t):
            raise KinkError(f"level {v} sits on the waterfilling level {t}")
    return t, rdrc._t_for_distortion_newton(values, weights, d_star)


def stationarity_residual(s: Spectrum, d_star: float) -> float:
    """Distance of s from a stationary point of the gap over spectra with
    s.k levels: the max-norm of the gap gradient in (log levels, weights)
    less its least-squares fit by the gradients there of sum w = 1 and
    sum w v = 1 (_kkt).  Unit-free, so its rounding floor does not grow
    like 1/v as the low level shrinks with d*.  Raises KinkError on the
    waterfilling kink.
    """
    if not 0.0 < d_star < 1.0:
        raise ValueError("d_star must lie in (0, 1)")
    return float(np.max(np.abs(_kkt(s.values, s.weights, d_star)[0])))


def _gap_hessian(values, weights, d_star: float, t: float, T: float) -> np.ndarray:
    """Hessian of the gap in (levels, weights) on raw arrays, given t and T:
    _rate_grads differentiated once more, through t and T as well.

    Each curve's Hessian is a 2x2 (v_j, w_j) block per level plus low-rank
    terms from the implicit shift of t (or T).  With b = (w [v <= t];
    min(v, t)) the distortion's gradient at fixed t, the oracle's is
    b b^T / (t^2 W_active).  With u = 1 + vT, q = (w / u^2; v / u) the
    distortion's gradient at fixed T, den = sum w v^2 / u^2, and q_T, den_T
    their T-derivatives, the random-coding curve's is
    q q^T (1/den - d* den_T / den^3) + d* (q q_T^T + q_T q^T) / den^2.
    """
    k = len(values)
    v, w = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    active = v > t
    b = np.r_[np.where(active, 0.0, w), np.minimum(v, t)]
    u = 1.0 + v * T
    vu = v / u
    q = np.r_[w / u**2, vu]
    q_T = np.r_[-2.0 * w * v / u**3, -(vu**2)]
    den = rdrc._moments(values, weights, T)[1]
    den_T = -2.0 * float(np.sum(w * vu * vu * vu))
    H = (
        np.outer(q, q) * (1.0 / den - d_star * den_T / den**3)
        + d_star * (np.outer(q, q_T) + np.outer(q_T, q)) / den**2
        - np.outer(b, b) / (t * t * float(w[active].sum()))
    )
    for j, (vj, wj, uj) in enumerate(zip(values, weights, u.tolist())):
        H[j, j] += -wj * T * T / uj**2 - 2.0 * d_star * wj * T / (den * uj**3)
        H[j, j] += wj / vj**2 if vj > t else 0.0
        cross = T / uj + d_star / (den * uj**2) - (1.0 / vj if vj > t else 1.0 / t)
        H[j, k + j] += cross
        H[k + j, j] += cross
    return H / (2.0 * _LN2)


def _kkt(values, weights, d_star: float):
    """From one t and T solve, in the chart (log levels, weights): the gap
    gradient less its least-squares fit by the gradients J = [(0, 1),
    (w v, v)] of sum w = 1 and sum w v = 1 (the stationarity residual), the
    fitted multipliers (m0, m1), J, the Lagrangian's Hessian, t and T.  The
    Hessian is _gap_hessian scaled by D = diag(v, 1) on both sides, plus
    v g_v - m1 w v on the log-level diagonal and -m1 v at each (x_j, w_j)
    pair, with g_v the gap's raw level gradient.
    """
    k = len(values)
    v, w = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    t, T = _levels(values, weights, d_star)
    levels_wf, levels_rc, weights_wf, weights_rc = _rate_grads(values, weights, t, T)
    D = np.r_[v, np.ones(k)]
    g = D * np.r_[np.subtract(levels_rc, levels_wf), np.subtract(weights_rc, weights_wf)]
    J = np.array([np.r_[np.zeros(k), np.ones(k)], np.r_[w * v, v]])
    mult = np.linalg.lstsq(J.T, g, rcond=None)[0]
    H = D[:, None] * _gap_hessian(values, weights, d_star, t, T) * D
    j = np.arange(k)
    H[j, j] += g[:k] - mult[1] * w * v
    H[j, k + j] -= mult[1] * v
    H[k + j, j] -= mult[1] * v
    return g - J.T @ mult, mult, J, H, t, T


def _max_phi(values, weights, d_star: float) -> tuple[float, float]:
    """The max over levels v >= 0 of phi(v), the gap's derivative in the
    weight of a new level v (_weight_terms) less the constraints'
    multipliers m0 + m1 v (_kkt).  The gap is concave in the spectrum at
    fixed T, so max phi <= 0 certifies a point over any level count.  With
    u = 1 + vT and A = num / den (rdrc._moments), 2 ln2 phi' = T/u + A/u^2
    - 2 ln2 m1 - 1/max(v, t) is a quadratic over u^2 below t and a cubic
    over v u^2 above it; phi is C^1, so the max is at a root, at 0 or t, or
    is the limit at v = inf: -inf (m1 > 0), +inf (m1 < 0) or, at m1 = 0, as
    for one level (whose fitted m1 is rounding: the gap ignores its scale),
    (ln(tT) + A/T - 1) / (2 ln2) - m0.  The same _kkt evaluation's
    stationarity residual comes second.  Raises KinkError on the kink.
    """
    r, mult, _, _, t, T = _kkt(values, weights, d_star)
    residual = float(np.max(np.abs(r)))
    m0, m1 = mult.tolist()
    m1 = m1 if len(values) > 1 else 0.0
    if m1 < 0.0:
        return math.inf, residual
    num, den = rdrc._moments(values, weights, T)
    A, L = num / den, 2.0 * _LN2 * m1
    B = 1.0 / t + L

    def phi(v):
        wf, rc = _weight_terms(v, t, T, A)
        return rc - wf - m0 - m1 * v

    # phi anywhere is a lower bound, so every root is a candidate, in range or not.
    roots = np.r_[np.roots([-B * T * T, T * T - 2.0 * B * T, T + A - B]),
                  np.roots([-L * T * T, -2.0 * L * T, A - T - L, -1.0])]
    top = max(phi(v) for v in [0.0, t] + [v for v in roots.real.tolist() if v > 0.0])
    limit = (math.log(t * T) + A / T - 1.0) / (2.0 * _LN2) - m0 if m1 == 0.0 else -math.inf
    return max(top, limit), residual


def _newton(values, weights, d_star: float):
    """Newton on the KKT conditions of the gap over sum w = 1, sum w v = 1,
    in (log levels, weights) with the exact Hessian (_kkt), so levels stay
    positive and only the weights are checked.

    Each step solves the KKT system on the null space Z of the constraint
    Jacobian, is re-normalized onto the constraint set and is kept only
    while the stationarity residual falls; stops when Z^T H Z is not
    negative definite (no nearby maximum).  Steps are full, so the start
    must lie in Newton's quadratic region; searched points do at all 199
    golden grid points and at every d* of tools/probe_small_dstar.py.  From
    any other start the solve stops early and the point reports
    converged = 0.  Returns (values, weights) at the last kept point.
    """
    k = len(values)
    r, _, J, H, _, _ = _kkt(values, weights, d_star)
    res = float(np.max(np.abs(r)))
    for _ in range(_NEWTON_MAX_ITER if k > 1 else 0):  # one level: nothing to solve
        Z = np.linalg.svd(J)[2][2:].T
        reduced = Z.T @ H @ Z
        if float(np.linalg.eigvalsh(reduced).max()) >= 0.0:
            break
        x = np.r_[np.log(values), weights] - Z @ np.linalg.solve(reduced, Z.T @ r)
        if float(x[k:].min()) <= 0.0:
            break
        trial = _normalized(np.exp(x[:k]).tolist(), x[k:].tolist())
        r_trial, _, J_trial, H_trial, _, _ = _kkt(*trial, d_star)
        res_trial = float(np.max(np.abs(r_trial)))
        if not res_trial < res:
            break
        (values, weights), r, J, H, res = trial, r_trial, J_trial, H_trial, res_trial
    return list(values), list(weights)


def _stationary_point(values, weights, d_star: float):
    """Solve the stationarity conditions from a searched point.

    Levels that coalesce or lose their weight, before or during the solve,
    are merged by _collapse and the solve restarts with fewer levels.
    Returns (values, weights), or None on the waterfilling kink, a failed
    T solve or a singular Newton system.
    """
    v, w = _collapse(values, weights, _WEIGHT_FLOOR, _COALESCE_REL)
    while True:
        try:
            pairs = sorted(zip(*_newton(v, w, d_star)), key=lambda p: -p[0])
            sv, sw = [p[0] for p in pairs], [p[1] for p in pairs]
        except (KinkError, SolverError, np.linalg.LinAlgError):
            return None
        v, w = _collapse(sv, sw, _WEIGHT_FLOOR, _COALESCE_REL)
        if len(v) == len(sv):
            return sv, sw


def _unpack(Z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels and weights ([..., k]) at the chart points Z ([..., 2k - 1]):
    levels exp(x) with x clipped at +-_CHART_CLIP, weights softmax(y, 0),
    then scaled to sum w = 1 and sum w v = 1."""
    V = np.exp(np.clip(Z[..., :k], -_CHART_CLIP, _CHART_CLIP))
    logits = np.concatenate([Z[..., k:], np.zeros(Z.shape[:-1] + (1,))], axis=-1)
    W = np.exp(logits - logits.max(axis=-1, keepdims=True))
    W = W / W.sum(axis=-1, keepdims=True)
    return V / (V * W).sum(axis=-1, keepdims=True), W


def _pack(values, weights) -> np.ndarray:
    x = [math.log(max(v, 1e-24)) for v in values]
    ref = math.log(weights[-1])
    y = [math.log(w) - ref for w in weights[:-1]]
    return np.asarray(x + y, dtype=float)


def _chart_gap_grad(Z: np.ndarray, k: int, d_star: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaps [N] and their gradients [N, 2k - 1] in the _unpack chart at the
    rows of Z ([N, 2k - 1]).  Each row's t and T come from the scalar
    solvers that _gap_core calls, so a gap differs from _gap_core's only by
    rounding: numpy's log2 against math's, and numpy's row sum against the
    builtin sum, which is compensated since Python 3.12 (at most about
    1e-15 in all).  The oracle rate is C^1 across the water level, so no
    kink check is made.  With g_v the gap's level gradient (_rate_grads)
    and s = sum g_v v, the chain rule through v = exp(x) / mean and
    w = softmax(y, 0) gives dG/dx_j = v_j (g_v,j - s w_j), 0 where x_j is
    clipped, and, with h = g_w - s v, dG/dy_l = w_l (h_l - w.h).
    """
    V, W = _unpack(Z, k)
    rows = list(zip(V.tolist(), W.tolist()))
    t = np.array([waterfill._t_wf_exact(v, w, d_star) for v, w in rows])[:, None]
    T = np.array([rdrc._t_for_distortion_newton(v, w, d_star) for v, w in rows])[:, None]
    VT = V * T
    u = 1.0 + VT
    top = np.maximum(V, t)
    log_top = np.log2(top / t)  # 0 below the water level
    gap = 0.5 * (W * np.log2(u)).sum(axis=1) - 0.5 * (W * log_top).sum(axis=1)
    q = V / u
    A = (W * q).sum(axis=1, keepdims=True) / (W * q * q).sum(axis=1, keepdims=True)
    g_v = W / (2.0 * _LN2) * (T / u + A / u**2 - 1.0 / top)
    s = (g_v * V).sum(axis=1, keepdims=True)
    g_w = (np.log1p(VT) + A * q - np.minimum(V, t) / t) / (2.0 * _LN2) - 0.5 * log_top
    h = g_w - s * V
    gx = np.where(np.abs(Z[:, :k]) < _CHART_CLIP, V * (g_v - s * W), 0.0)
    gy = W[:, :-1] * (h[:, :-1] - (W * h).sum(axis=1, keepdims=True))
    return gap, np.concatenate([gx, gy], axis=1)


def _ascend(Z: np.ndarray, k: int, d_star: float) -> list[tuple[float, list, list]]:
    """BFGS ascents of the gap in the _unpack chart, one from each row of Z
    ([N, 2k - 1]), run in lockstep on one _chart_gap_grad call per line-search
    trial.  Returns per row (gap, values, weights) at its last accepted point,
    the gap re-scored by _gap_core, so that every gap compared against
    _GAP_SLACK is _gap_core's.

    Each ascent starts from the identity inverse Hessian, caps each step at
    _ASCENT_MAX_STEP in max-norm and halves it, row by row, until the Armijo
    condition holds; it stops at _ASCENT_MAX_ITER iterations, at a gradient
    below _ASCENT_GTOL in max-norm, or when its accepted step would fall
    below _ASCENT_XTOL (Nocedal & Wright, Numerical Optimization, 2nd ed.,
    ch. 6).  Where s.y <= 0 the BFGS update is skipped and the inverse
    Hessian doubled: Armijo backtracking never checks the curvature
    condition, and s.y <= 0 says it failed, so the next step may be longer
    (without this, ascents where the gap is not concave crawl to the
    iteration cap on gradient steps).  A gradient of 1e-7 suffices: float64
    fixes the argmax only to about 1e-7, and _point_search finishes the
    winning point with the KKT solve.
    """
    Z = np.array(Z, dtype=float)
    n = Z.shape[1]
    gap, G = _chart_gap_grad(Z, k, d_star)
    H = np.tile(np.eye(n), (len(Z), 1, 1))
    running = np.ones(len(Z), dtype=bool)
    for _ in range(_ASCENT_MAX_ITER):
        running &= np.abs(G).max(axis=1) >= _ASCENT_GTOL
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        g = G[rows]
        P = np.einsum("nij,nj->ni", H[rows], g)
        lost = (g * P).sum(axis=1) <= 0.0  # H lost positive definiteness to rounding
        H[rows[lost]] = np.eye(n)
        P[lost] = g[lost]
        step = np.abs(P).max(axis=1)
        P *= np.minimum(1.0, _ASCENT_MAX_STEP / step)[:, None]
        step = np.minimum(step, _ASCENT_MAX_STEP)
        slope = (g * P).sum(axis=1)
        alpha, taken = np.ones(rows.size), np.zeros(rows.size, dtype=bool)
        Z_new, gap_new, G_new = Z[rows], gap[rows], G[rows]
        todo = np.arange(rows.size)
        while True:
            short = alpha[todo] * step[todo] < _ASCENT_XTOL
            running[rows[todo[short]]] = False  # ends at its last accepted point
            todo = todo[~short]
            if not todo.size:
                break
            trial = Z[rows[todo]] + alpha[todo, None] * P[todo]
            gap_t, G_t = _chart_gap_grad(trial, k, d_star)
            ok = gap_t >= gap[rows[todo]] + _ARMIJO * alpha[todo] * slope[todo]
            Z_new[todo[ok]], gap_new[todo[ok]], G_new[todo[ok]] = trial[ok], gap_t[ok], G_t[ok]
            taken[todo[ok]] = True
            alpha[todo[~ok]] *= 0.5
            todo = todo[~ok]
        rows, Z_new, gap_new, G_new = rows[taken], Z_new[taken], gap_new[taken], G_new[taken]
        S, Y = Z_new - Z[rows], G[rows] - G_new  # Y: change in the gradient of -gap
        Z[rows], gap[rows], G[rows] = Z_new, gap_new, G_new
        sy = (S * Y).sum(axis=1)
        H[rows[sy <= 0.0]] *= 2.0
        rows, S, Y, sy = rows[sy > 0.0], S[sy > 0.0], Y[sy > 0.0], sy[sy > 0.0]
        HY = np.einsum("nij,nj->ni", H[rows], Y)
        M = ((0.5 * (sy + (Y * HY).sum(axis=1)) / sy**2)[:, None] * S - HY / sy[:, None])
        X = M[:, :, None] * S[:, None, :]
        H[rows] += X + X.transpose(0, 2, 1)  # the BFGS inverse update in one outer product
    V, W = _unpack(Z, k)
    return [(_gap_core(v, w, d_star), v, w) for v, w in zip(V.tolist(), W.tolist())]


def _search_k(d_star: float, n_starts: int):
    """Best (gap, values, weights, ascents) of two-level BFGS ascents from the
    n_starts best scan cells (top weight x low level on a log grid relative to
    d*, where the worst one sits: 0.88-1.00 d* for d* in 1e-6..0.995), in
    blocks of _STARTS_PER_K.  A later block beats the best only by more than
    _GAP_SLACK, so a larger k_max that refinds the same spectrum reports the
    same point."""
    cells = [
        ([(1.0 - (1.0 - w1) * v2) / w1, v2], [w1, 1.0 - w1])
        for w1 in np.linspace(0.04, 0.96, 24).tolist()
        for v2 in (np.geomspace(0.1, 10.0, 24) * d_star).tolist() if v2 < 1.0
    ]
    scored = sorted(((_gap_core(v, w, d_star), v, w) for v, w in cells), key=lambda c: -c[0])
    starts = scored[:n_starts]
    ends = _ascend(np.array([_pack(v, w) for _, v, w in starts]), 2, d_star)
    best, best_block = (-math.inf, None, None), 0
    for i, end in enumerate(ends):
        if end[0] > best[0] + (_GAP_SLACK if i // _STARTS_PER_K > best_block else 0.0):
            best, best_block = end, i // _STARTS_PER_K
    return *best, len(starts)


def _point_search(d_star: float, k_max: int) -> tuple[GapRecord, PointDiagnostics]:
    # The flat spectrum is the starting best; two levels must beat it by more
    # than rounding, so a search that only refinds it does not replace it.
    values, weights, best_k, restarts = [1.0], [1.0], 1, 0
    searched = _gap_core(values, weights, d_star)
    if k_max > 1:
        g, v, w, restarts = _search_k(d_star, _STARTS_PER_K * (k_max - 1))
        if g > searched + _GAP_SLACK:
            searched, values, weights, best_k = g, v, w, 2
    # The gap is flat at its maximum, so the search fixes the argmax only to
    # about sqrt(eps); solving grad = 0 fixes it to about eps / |curvature|.
    solved = _stationary_point(values, weights, d_star)
    if solved is not None and _gap_core(*solved, d_star) >= searched - _GAP_SLACK:
        values, weights = solved
    else:  # report what the search found, with nothing merged that moves the gap
        values, weights = _collapse(values, weights, 0.0, 0.0)
    mean = sum(v * w for v, w in zip(values, weights))
    values = [v / mean for v in values]  # the spectrum reported, so the one checked
    try:
        max_phi, residual = _max_phi(values, weights, d_star)
    except KinkError:
        max_phi = residual = math.inf
    record = gap_at(Spectrum(tuple(values), tuple(weights)), d_star)
    converged = int(residual <= STATIONARY_TOL)
    return record, PointDiagnostics(d_star, restarts, converged, best_k, residual, max_phi)


def _check_kmax(k_max) -> int:
    """k_max as an int in 1..5, else ValueError."""
    k_max = _integer(k_max, "k_max")
    if not 1 <= k_max <= 5:
        raise ValueError("k_max must lie in 1..5")
    return k_max


def _check_dstar(d_star: float) -> None:
    """Raise ValueError unless d_star lies in [1e-8, 0.999] (maximize_gap)."""
    if not 1e-8 <= d_star <= 0.999:
        raise ValueError(f"d_star must lie in [1e-8, 0.999], got {d_star!r}")


def maximize_gap(d_star: float, k_max: int) -> GapRecord:
    """Best gap found at d* (deterministic): the flat spectrum at k_max = 1,
    else the best two-level spectrum of 16 (k_max - 1) ascents if it beats
    flat.  d* must lie in [1e-8, 0.999]: below 1e-8 the
    gap's rounding exceeds _GAP_SLACK, so the search could not tell its
    solved point from the searched one, and above 0.999 it stops reaching
    STATIONARY_TOL (on a 1e-6 scan, every point from 0.999913 up)."""
    _check_dstar(d_star)
    return _point_search(d_star, _check_kmax(k_max))[0]


def _sweep_worker(args):
    return _point_search(*args)


def sweep(d_grid, k_max: int, threads: int | None = None) -> SweepResult:
    """Per-point worst-case gaps over a distortion grid.

    Grid points are independent; `ordered_map` resolves `threads` (None
    reads RDGAP_THREADS) to the number of processes that compute, the
    caller and threads - 1 children, deals the points out in strides and
    reduces in grid order, so the result does not depend on scheduling.
    """
    grid = tuple(float(d) for d in d_grid)
    if not grid:
        raise ValueError("empty distortion grid")
    for d in grid:
        _check_dstar(d)
    k_max = _check_kmax(k_max)
    records, diags = zip(*ordered_map(_sweep_worker, [(d, k_max) for d in grid], threads))
    best = max(records, key=lambda r: r.gap_bits)
    return SweepResult(records, best, diags)


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
