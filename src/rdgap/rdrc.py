"""Universal random-coding rate-distortion curve.

Distortion at parameter T is sum_j w_j * v_j / (1 + v_j T); rate in bits is
(1/2) sum_j w_j * log2(1 + v_j T).  Scalar builtin arithmetic only: the
module imports no numpy and takes no bits from BLAS.  The simulator solves
each coded run's point by _t_for_rate and _d_rc (simulator._scaling_state).
"""

from __future__ import annotations

import math

from .errors import SolverError
from .spectra import Spectrum, _integer

REL_TOL = 1e-12
MAX_ITER = 200
T_BRACKET_CAP = 2.0**200  # T grows like 2^(2nR); beyond this the rate is absurd


def _d_rc(values, weights, T: float) -> float:
    return sum(w * v / (1.0 + v * T) for v, w in zip(values, weights))


def _moments(values, weights, T: float) -> tuple[float, float]:
    """num = sum w v / u (the distortion at T) and den = sum w v^2 / u^2
    (minus its slope in T), u = 1 + vT, by builtin sums."""
    den = sum(w * v * v / (1.0 + v * T) ** 2 for v, w in zip(values, weights))
    return _d_rc(values, weights, T), den


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
    if not rate >= 0.0:
        raise ValueError("rate must be nonnegative")
    if rate == 0.0:
        return d_rc(s, 0.0)
    return d_rc(s, t_rc_for_rate(s, rate))


def dd_rc_eigen_sensitivity(s: Spectrum, rate: float, level_index: int) -> float:
    """Derivative of the per-dimension distortion at fixed rate in the level
    value v_j, divided by its weight: 1/u_j^2 + T den / (u_j num), with T
    solved from the rate, u = 1 + v T and (num, den) = _moments.  The second
    term is the distortion's slope -den in T times the shift
    -w_j T / (u_j num) of T that keeps the rate.  The value vector need not
    have unit mean; the figure lies in [0, 2].
    """
    if not rate > 0.0:
        raise ValueError("rate must be positive")
    j = _integer(level_index, "level_index")
    if not 0 <= j < s.k:
        raise ValueError("level_index out of range")
    T = _t_for_rate(s.values, s.weights, rate)
    num, den = _moments(s.values, s.weights, T)
    u = 1.0 + s.values[j] * T
    return 1.0 / u**2 + T * den / (u * num)
