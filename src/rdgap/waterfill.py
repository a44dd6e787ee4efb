"""Oracle waterfilling rate-distortion curve.

Distortion at water level t is sum_j w_j * min(v_j, t); rate in bits is
(1/2) sum_j w_j * max(0, log2(v_j / t)).  All rates are per dimension,
base-2.  Both inverses are closed forms: the distortion is piecewise linear
in t, and on each active set the rate is log-linear in t (reverse
waterfilling, Cover & Thomas, Elements of Information Theory, 2nd ed.,
sec. 10.3.3).  The module exposes Spectrum-level operations plus private
array-based cores shared with the gap optimizer.
"""

from __future__ import annotations

import math
import sys

from .errors import SolverError
from .spectra import Spectrum


def _d_wf(values, weights, t: float) -> float:
    return sum(w * (v if v < t else t) for v, w in zip(values, weights))


def _r_wf(values, weights, t: float) -> float:
    # Zero levels never satisfy v > t, so the max{0, log(lambda/t)} summand
    # never sees a -inf branch.
    acc = 0.0
    for v, w in zip(values, weights):
        if v > t:
            acc += w * math.log2(v / t)
    return 0.5 * acc


def _check_t(t: float) -> None:
    if not t > 0.0:
        raise ValueError("water level t must be positive")


def d_wf(s: Spectrum, t: float) -> float:
    """Distortion at water level t; nondecreasing in t, 1 for t >= max value."""
    _check_t(t)
    if t >= s.max_value:
        return 1.0
    # The stored mean is 1 only to 1e-12, so cap the rounding residue.
    return min(_d_wf(s.values, s.weights, t), 1.0)


def r_wf(s: Spectrum, t: float) -> float:
    """Rate in bits at water level t; nonincreasing, 0 for t >= max value."""
    _check_t(t)
    return _r_wf(s.values, s.weights, t)


def t_for_distortion(s: Spectrum, d_star: float) -> float:
    """The unique t with d_wf(s, t) = d_star, for d_star in (0, 1).

    d_star >= 1 is rejected: the rate there is 0 and t is not unique
    (any t >= max value works), so callers must handle that regime.
    """
    if not 0.0 < d_star < 1.0:
        raise ValueError("d_star must lie in (0, 1)")
    return _t_wf_exact(s.values, s.weights, d_star)


def _t_wf_exact(values, weights, d_star: float) -> float:
    """Water level for a target distortion, in closed form.

    The distortion is linear in t between consecutive levels, so the segment
    holding d_star is inverted exactly.  Does not require unit-mean
    normalization: d_star must lie in (0, sum w*v).
    """
    # Walk segments from the smallest level upward.  Within a segment all
    # levels above contribute t, the rest contribute their own value.
    below = 0.0  # sum of w*v over levels <= current segment floor
    wabove = sum(weights)
    for v, w in sorted(zip(values, weights), key=lambda p: p[0]):
        d_at_v = below + wabove * v
        if d_at_v >= d_star:
            return (d_star - below) / wabove
        below += w * v
        wabove -= w
    raise SolverError(f"d_star {d_star} not reachable (mean {below})")


def rr_wf(s: Spectrum, d_star: float) -> float:
    """Minimum oracle rate in bits achieving distortion d_star."""
    return r_wf(s, t_for_distortion(s, d_star))


def _t_for_rate(values, weights, rate: float) -> float:
    """Water level for a target rate > 0, in closed form.

    With the active set A = {v > t} fixed, the rate is
    (1/2) sum_A w log2(v / t), so log2 t = (sum_A w log2 v - 2 rate) / sum_A w.
    The active sets are walked from the top level down; the first whose t
    lies at or above the next level holds the answer.  Does not require
    unit-mean normalization.
    """
    levels = sorted(((v, w) for v, w in zip(values, weights) if v > 0.0), reverse=True)
    w_active = 0.0
    wlog_active = 0.0
    for j, (v, w) in enumerate(levels):
        w_active += w
        wlog_active += w * math.log2(v)
        t = 2.0 ** ((wlog_active - 2.0 * rate) / w_active)
        if j + 1 == len(levels) or t >= levels[j + 1][0]:
            break
    if t < sys.float_info.min:
        raise SolverError(f"water level underflows at rate {rate}")
    return t


def dd_wf(s: Spectrum, rate: float) -> float:
    """Distortion at a given oracle rate; 1 at rate 0."""
    if not rate >= 0.0:
        raise ValueError("rate must be nonnegative")
    if rate == 0.0:
        return 1.0
    return d_wf(s, _t_for_rate(s.values, s.weights, rate))
