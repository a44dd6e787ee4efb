"""Universal random-coding rate-distortion curve and codebook scaling.

Distortion at parameter T is sum_j w_j * v_j / (1 + v_j T); rate in bits is
(1/2) sum_j w_j * log2(1 + v_j T).  Also houses the per-realization
distortion D(V, T), the codebook scaling tau, and its rounding quantizer.
The functions on arrays import numpy inside the function, so the scalar
curves load without it.
"""

from __future__ import annotations

import math

from .errors import SolverError
from .spectra import Spectrum, expand_to_n

REL_TOL = 1e-12
MAX_ITER = 200
T_BRACKET_CAP = 2.0**200  # T grows like 2^(2nR); beyond this the rate is absurd


def _d_rc(values, weights, T: float) -> float:
    return sum(w * v / (1.0 + v * T) for v, w in zip(values, weights))


def _r_rc(values, weights, T: float) -> float:
    return 0.5 * sum(w * math.log2(1.0 + v * T) for v, w in zip(values, weights))


def _check_T(T: float) -> None:
    if not 0.0 <= T < math.inf:
        raise ValueError("T must be nonnegative and finite")


def d_rc(s: Spectrum, T: float) -> float:
    """Distortion at parameter T; equals the mean eigenvalue (1) at T = 0."""
    _check_T(T)
    if T == 0.0:
        return 1.0
    return min(_d_rc(s.values, s.weights, T), 1.0)


def r_rc(s: Spectrum, T: float) -> float:
    """Rate in bits at parameter T; 0 at T = 0, strictly increasing."""
    _check_T(T)
    return _r_rc(s.values, s.weights, T)


def _t_for_rate(values, weights, rate: float) -> float:
    """Solve r_rc(T) = rate by doubling the bracket from [0, 1], then
    bisection to relative tolerance 1e-12, with early exit on exact residuals."""
    lo, hi = 0.0, 1.0
    r_hi = _r_rc(values, weights, hi)
    while r_hi < rate:
        lo, hi = hi, hi * 2.0
        if hi > T_BRACKET_CAP:
            raise SolverError(f"target {rate} not bracketed below T = 2^200")
        r_hi = _r_rc(values, weights, hi)
    if r_hi == rate:
        return hi
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        r = _r_rc(values, weights, mid)
        if r == rate:
            return mid
        if r < rate:
            lo = mid
        else:
            hi = mid
        if hi - lo <= REL_TOL * hi:
            return 0.5 * (lo + hi)
    raise SolverError(f"bisection did not converge: [{lo}, {hi}]")


def _t_for_distortion_newton(values, weights, d_star: float) -> float:
    """Solve d_rc(T) = d_star by bracketed Newton from a closed-form bracket.

    From v <= max v and v / (1 + vT) < 1 / T, sum w v / (1 + T max v) <=
    d_rc(T) <= sum w / T, so the root lies in [lo, hi] with
    lo = (sum w v / d_star - 1) / max v and hi = sum w / d_star.  d_rc is
    convex and decreasing, so Newton from lo climbs monotonically to the
    root; a step leaving the bracket (only by rounding) becomes its midpoint.
    Stops on an exact residual or a step of at most 1e-14 relative.  Needs
    no unit mean: d_star must lie below the zero-rate distortion sum w*v.
    """
    mean = _d_rc(values, weights, 0.0)
    if d_star >= mean:
        raise SolverError(f"d_star {d_star} is not below the zero-rate distortion {mean}")
    lo = T = (mean / d_star - 1.0) / max(values)
    hi = sum(weights) / d_star
    for _ in range(80):
        d = gp = 0.0  # d_rc(T) and its derivative in one pass
        for v, w in zip(values, weights):
            q = v / (1.0 + v * T)
            d += w * q
            gp -= w * q * q
        g = d - d_star
        if g == 0.0:
            return T  # an exact root would otherwise close the bracket on itself
        if g > 0.0:
            lo = T
        else:
            hi = T
        T_new = T - g / gp if gp != 0.0 else T
        if not lo < T_new < hi:
            T_new = 0.5 * (lo + hi)
        if abs(T_new - T) <= 1e-14 * max(T_new, 1e-300):
            return T_new
        T = T_new
    return T


def t_rc_for_rate(s: Spectrum, rate: float) -> float:
    """The unique T with r_rc(s, T) = rate, rate > 0."""
    if not rate > 0.0:
        raise ValueError("rate must be positive")
    return _t_for_rate(s.values, s.weights, rate)


def t_rc_for_distortion(s: Spectrum, d_star: float) -> float:
    """The unique T with d_rc(s, T) = d_star, d_star in (0, 1)."""
    if not 0.0 < d_star < 1.0:
        raise ValueError("d_star must lie in (0, 1)")
    return _t_for_distortion_newton(s.values, s.weights, d_star)


def rr_rc(s: Spectrum, d_star: float) -> float:
    """Random-coding rate in bits at target distortion."""
    return r_rc(s, t_rc_for_distortion(s, d_star))


def dd_rc(s: Spectrum, rate: float) -> float:
    """Random-coding distortion at a given rate; the mean eigenvalue at rate 0."""
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    if rate == 0.0:
        return d_rc(s, 0.0)
    return d_rc(s, t_rc_for_rate(s, rate))


def _reading(s: Spectrum, x) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and mass per entry of a realization vector x: the levels
    and their weights when len(x) == s.k, otherwise the n = len(x)
    eigenvalues of expand_to_n, each of mass 1/n."""
    import numpy as np
    if len(x) == s.k:
        return np.asarray(s.values), np.asarray(s.weights)
    lams, dropped = expand_to_n(s, len(x))
    if dropped:
        raise ValueError(f"levels {dropped} receive zero dimensions at n={len(x)}; use a larger n")
    return lams, np.full(len(x), 1.0 / len(x))


def d_rc_per_w(s: Spectrum, w_tilde_sq, T: float) -> float:
    """Per-realization distortion D(V, T) = sum_j m_j x_j lam_j / (1 + lam_j T)
    for squared eigenbasis coordinates x, read by _reading: per level
    (entries are mean squared coordinates, m the weights) when len(x) == s.k,
    else per coordinate (m = 1/n).  Reduces to d_rc when all entries are 1.
    """
    import numpy as np
    _check_T(T)
    x = np.asarray([float(u) for u in w_tilde_sq], dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("squared coordinates must be finite")
    if np.any(x < 0.0):
        raise ValueError("squared coordinates must be nonnegative")
    lam, m = _reading(s, x)
    return float((m * x) @ (lam / (1.0 + lam * T)))


def _scaling(T: float, alam2, den: float, w, threshold, delta):
    """The scheme's scaling rule for realizations w (one per row, or one
    vector) in the eigenbasis: tau = sqrt(T (w^2 . alam2) / den), 0 where
    ||w||_inf exceeds the threshold, then rounded by the quantizer of
    quantize_tau when delta is given.  Raises SolverError if tau leaves
    [0, ||w||_inf], which the rule never does beyond rounding."""
    import numpy as np
    norms = np.abs(w).max(axis=-1)
    tau = np.sqrt(T * ((w * w) @ alam2) / den)
    if threshold is not None:
        tau = np.where(norms > threshold, 0.0, tau)
    if not ((tau >= 0.0).all() and (tau <= norms * (1.0 + 1e-12) + 1e-300).all()):
        raise SolverError("scaling tau outside [0, ||w||_inf]")
    if delta is not None:
        unit = delta * norms
        with np.errstate(invalid="ignore", divide="ignore"):
            q = unit * np.floor(tau / unit + 0.5)
        tau = np.where(unit > 0.0, q, 0.0)
    return tau


def tau(s: Spectrum, w_tilde, rate: float, threshold: float | None = None) -> float:
    """Codebook scaling tau for a source realization in the eigenbasis.

    tau = sqrt(T * sum m_j w~_j^2 lam_j^2/(1+lam_j T)^2 / sum m_j lam_j/(1+lam_j T))
    with (lam, m) from _reading: per level (entries are root-mean-square
    coordinates at that level) when len(w~) == s.k, else per coordinate; T is
    solved from the rate on that (lam, m), as in the simulated scheme.  With
    a threshold, tau is 0 whenever ||w~||_inf exceeds it.  Always satisfies
    0 <= tau <= ||w~||_inf.
    """
    import numpy as np
    if not rate > 0.0:
        raise ValueError("rate must be positive")
    if threshold is not None and not threshold >= 0.0:
        raise ValueError("threshold must be nonnegative")
    w = np.asarray([float(u) for u in w_tilde], dtype=float)
    lam, m = _reading(s, w)
    T = _t_for_rate(lam.tolist(), m.tolist(), rate)
    u = 1.0 + lam * T
    return float(_scaling(T, m * lam**2 / u**2, float(m @ (lam / u)), w, threshold, None))


def quantize_tau(tau_val: float, w_inf_norm: float, delta: float) -> float:
    """Round tau to the nearest multiple of delta * ||w~||_inf (half away up).

    |q(tau) - tau| <= delta * ||w~||_inf / 2.
    """
    if not math.isfinite(tau_val):
        raise ValueError("tau_val must be finite")
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if not 0.0 < w_inf_norm < math.inf:
        raise ValueError("w_inf_norm must be positive and finite")
    unit = delta * w_inf_norm
    if not (0.0 < unit < math.inf and math.isfinite(tau_val / unit)):
        raise ValueError("tau_val / (delta * w_inf_norm) leaves the float range")
    return unit * math.floor(tau_val / unit + 0.5)


def dd_rc_eigen_sensitivity(s: Spectrum, rate: float, level_index: int) -> float:
    """Derivative of the per-dimension distortion at fixed rate in the level
    value v_j, divided by its weight: 1/u_j^2 + T den / (u_j num), with T
    solved from the rate, u = 1 + v T, num = sum w v / u and
    den = sum w v^2 / u^2.  The second term is the distortion's slope -den
    in T times the shift -w_j T / (u_j num) of T that keeps the rate.  The
    value vector need not have unit mean; the figure lies in [0, 2].
    """
    import numpy as np
    if not rate > 0.0:
        raise ValueError("rate must be positive")
    j = int(level_index)
    if not 0 <= j < s.k:
        raise ValueError("level_index out of range")
    T = _t_for_rate(s.values, s.weights, rate)
    v, w = np.asarray(s.values), np.asarray(s.weights)
    u = 1.0 + v * T
    num, den = float(w @ (v / u)), float(w @ (v / u) ** 2)
    return float(1.0 / u[j] ** 2 + T * den / (u[j] * num))
