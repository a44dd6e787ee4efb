"""Independent high-precision oracle for derived expected test values.

Solves the two-level curve equations in closed form with 50-digit Decimal
arithmetic (quadratic formula + Decimal ln/sqrt), with no imports from the
package under test.  Frozen outputs are pasted into the test suite.

Run: python3 tools/oracle_derived.py
"""

from decimal import Decimal, getcontext

getcontext().prec = 50

LOG2 = Decimal(2).ln()


def log2(x: Decimal) -> Decimal:
    return x.ln() / LOG2


def two_level_T_for_distortion(v1, v2, w1, w2, d) -> Decimal:
    """Solve w1 v1/(1+v1 T) + w2 v2/(1+v2 T) = d (largest root)."""
    m = w1 * v1 + w2 * v2
    a = d * v1 * v2
    b = d * (v1 + v2) - v1 * v2 * (w1 + w2)
    c = d - m
    disc = b * b - 4 * a * c
    return (-b + disc.sqrt()) / (2 * a)


def two_level_gap(v1, w1, d) -> Decimal:
    """Gap in bits of the unit-mean two-level spectrum with top level v1 of
    weight w1; the lower level and its weight follow from the constraints."""
    w2 = 1 - w1
    v2 = (1 - w1 * v1) / w2
    t = d if d <= v2 else (d - w2 * v2) / w1  # water level, from below v1
    rate_wf = sum(w * log2(v / t) for v, w in ((v1, w1), (v2, w2)) if v > t) / 2
    T = two_level_T_for_distortion(v1, v2, w1, w2, d)
    rate_rc = (w1 * log2(1 + v1 * T) + w2 * log2(1 + v2 * T)) / 2
    return rate_rc - rate_wf


def two_level_dd_wf(v1, v2, w1, w2, rate) -> Decimal:
    """Waterfilling distortion at a rate, by reverse waterfilling: with only
    v1 active, t = v1 2^(-2R/w1); once t falls below v2, both are active and
    t = 2^((w1 log2 v1 + w2 log2 v2 - 2R) / (w1 + w2))."""
    t = v1 * (-2 * rate / w1 * LOG2).exp()
    if t >= v2:
        return w1 * t + w2 * v2
    t = ((w1 * log2(v1) + w2 * log2(v2) - 2 * rate) / (w1 + w2) * LOG2).exp()
    return (w1 + w2) * t


def argmax2(f, a, b) -> tuple[Decimal, Decimal]:
    """Newton on the gradient of f(a, b) from a nearby start.

    The gradient is a central difference with step 1e-20 (truncation about
    1e-40, rounding about 1e-30 at 50 digits) and the Hessian a central
    difference of that gradient, so the root is fixed to about 1e-26.
    """
    def grad(a, b):
        h = Decimal("1e-20")
        return (
            (f(a + h, b) - f(a - h, b)) / (2 * h),
            (f(a, b + h) - f(a, b - h)) / (2 * h),
        )

    for _ in range(40):
        g = grad(a, b)
        h = Decimal("1e-12")
        ga_p, ga_m = grad(a + h, b), grad(a - h, b)
        gb_p, gb_m = grad(a, b + h), grad(a, b - h)
        haa = (ga_p[0] - ga_m[0]) / (2 * h)
        hbb = (gb_p[1] - gb_m[1]) / (2 * h)
        hab = ((ga_p[1] - ga_m[1]) + (gb_p[0] - gb_m[0])) / (4 * h)
        det = haa * hbb - hab * hab
        da = -(hbb * g[0] - hab * g[1]) / det
        db = -(haa * g[1] - hab * g[0]) / det
        a, b = a + da, b + db
        if abs(da) + abs(db) < Decimal("1e-40"):
            break
    return a, b


def two_level_argmax(d, v1, w1) -> tuple[Decimal, Decimal]:
    """Worst two-level spectrum (top level, its weight) at d, from a nearby start."""
    return argmax2(lambda a, b: two_level_gap(a, b, d), v1, w1)


def limit_gap(c, w) -> Decimal:
    """The two-level gap as d* -> 0, in bits: a low level c d* of weight 1 - w,
    the top level (1 - (1 - w) c d*) / w and T = tau / d*.  The distortion
    constraint tends to c tau^2 + (1 - c) tau - w = 0, and the gap to
    1/2 (1 - w) log2(1 + c tau) + 1/2 w log2(tau (1 - (1 - w) c) / w)."""
    tau = (-(1 - c) + ((1 - c) ** 2 + 4 * c * w).sqrt()) / (2 * c)
    return ((1 - w) * log2(1 + c * tau) + w * log2(tau * (1 - (1 - w) * c) / w)) / 2


def main() -> None:
    # The spectrum of the [1.8, 0.2] / [0.5, 0.5] examples, as exact doubles.
    v1, v2 = Decimal(1.8), Decimal(0.2)
    w1 = w2 = Decimal(0.5)

    # rr_wf at d* = 0.2: the water level sits exactly at the lower level
    # (0.5 t + 0.5*0.2 = 0.2 gives t = 0.2), so rate = 0.25 * log2(v1/v2).
    d = Decimal(0.2)
    t = (d - w2 * v2) / w1
    rate_wf = (w1 * log2(v1 / t)) / 2
    print(f"t_wf([1.8,.2], d*=0.2)        = {float(t)!r}")
    print(f"rr_wf([1.8,.2], d*=0.2)       = {float(rate_wf)!r}")

    # dd_wf at one rate per active set: R = 0.3 leaves v2 inactive (t > v2
    # up to R = log2(9) / 4), R = 1.3 waterfills both levels.
    for rate in ("0.3", "1.3"):
        dd = two_level_dd_wf(v1, v2, w1, w2, Decimal(float(rate)))
        print(f"dd_wf([1.8,.2], R={rate})        = {float(dd)!r}")

    # t_rc_for_rate at rate = 2:
    # 0.25 log2((1+v1 T)(1+v2 T)) = 2  =>  v1 v2 T^2 + (v1+v2) T + 1 = 2^8.
    target = Decimal(2) ** 8
    a = v1 * v2
    b = v1 + v2
    c = 1 - target
    T_rate = (-b + (b * b - 4 * a * c).sqrt()) / (2 * a)
    print(f"t_rc_for_rate([1.8,.2], R=2)  = {float(T_rate)!r}")

    # t_rc_for_distortion at d* = 0.2, then the rate there and the gap.
    T_dist = two_level_T_for_distortion(v1, v2, w1, w2, d)
    rate_rc = (w1 * log2(1 + v1 * T_dist) + w2 * log2(1 + v2 * T_dist)) / 2
    print(f"t_rc_for_dist([1.8,.2], 0.2)  = {float(T_dist)!r}")
    print(f"rr_rc([1.8,.2], d*=0.2)       = {float(rate_rc)!r}")
    print(f"gap([1.8,.2], d*=0.2)         = {float(rate_rc - rate_wf)!r}")

    # _collapse derived example at tol 0.01: 2 and 1.999 (weights .3/.3)
    # differ by 0.05 % of the upper level, within the relative tol, and
    # merge into their weight average; then normalize to unit mean.  Exact
    # decimal arithmetic.
    merged = (Decimal("0.3") * 2 + Decimal("0.3") * Decimal("1.999")) / Decimal("0.6")
    mean = Decimal("0.6") * merged + Decimal("0.4") * Decimal("0.5")
    print(f"_collapse v1                  = {float(merged / mean)!r}")
    print(f"_collapse v2                  = {float(Decimal('0.5') / mean)!r}")
    # The same example entered through a pre-normalized (unit-mean) spectrum:
    # inputs divided by 1.3997 first; merging commutes with the rescale.
    pre = [Decimal(2) / Decimal("1.3997"), Decimal("1.999") / Decimal("1.3997"),
           Decimal("0.5") / Decimal("1.3997")]
    print(f"normalized inputs             = {[float(x) for x in pre]!r}")

    # grad_rates spot value at [1.8, 0.2], d* = 0.3 (kink-free): analytic
    # formulas evaluated in high precision as an extra cross-check.
    d3 = Decimal(0.3)
    t3 = (d3 - w2 * v2) / w1  # active set = {v1} since t3 in (v2, v1)
    gw1 = w1 / (2 * LOG2 * v1)
    gw2 = w2 / (2 * LOG2 * t3)
    T3 = two_level_T_for_distortion(v1, v2, w1, w2, d3)
    A = (w1 * v1 / (1 + v1 * T3) + w2 * v2 / (1 + v2 * T3)) / (
        w1 * v1 * v1 / (1 + v1 * T3) ** 2 + w2 * v2 * v2 / (1 + v2 * T3) ** 2
    )
    gr1 = w1 / (2 * LOG2) * (T3 / (1 + v1 * T3) + A / (1 + v1 * T3) ** 2)
    gr2 = w2 / (2 * LOG2) * (T3 / (1 + v2 * T3) + A / (1 + v2 * T3) ** 2)
    print(f"t_wf([1.8,.2], d*=0.3)        = {float(t3)!r}")
    print(f"grad_wf([1.8,.2], 0.3)        = ({float(gw1)!r}, {float(gw2)!r})")
    print(f"grad_rc([1.8,.2], 0.3)        = ({float(gr1)!r}, {float(gr2)!r})")

    # Worst two-level spectra (gap argmax over v1, w1) at three grid points,
    # started from three-digit guesses.
    for d_text, v1_0, w1_0 in (("0.475", "5.36", "0.114"), ("0.655", "5.50", "0.078"),
                               ("0.865", "6.30", "0.029")):
        da = Decimal(float(d_text))  # the grid point as the exact double
        a1, b1 = two_level_argmax(da, Decimal(v1_0), Decimal(w1_0))
        a2 = (1 - b1 * a1) / (1 - b1)
        print(f"argmax2 d*={d_text} levels        = ({float(a1)!r}, {float(a2)!r})")
        print(f"argmax2 d*={d_text} weights       = ({float(b1)!r}, {float(1 - b1)!r})")
        print(f"argmax2 d*={d_text} gap           = {float(two_level_gap(a1, b1, da))!r}")

    # The d* -> 0 limit of the worst two-level gap, and the worst two-level
    # gap and spectrum below the acceptance grid, started from the limit's
    # argmax, at 1e-4, 1.2e-3 and 12 log-spaced d* from 1e-6 to 5e-3 rounded
    # to three digits.
    c0, w0 = argmax2(limit_gap, Decimal("0.879"), Decimal("0.185"))
    print(f"limit argmax (c, w)           = ({float(c0)!r}, {float(w0)!r})")
    print(f"limit gap                     = {float(limit_gap(c0, w0))!r}")
    dense = [float(f"{1e-6 * 5000 ** (i / 11):.3g}") for i in range(12)]
    for d_float in sorted(dense + [1e-4, 1.2e-3]):
        da = Decimal(d_float)
        a1, b1 = two_level_argmax(da, (1 - (1 - w0) * c0 * da) / w0, w0)
        print(f"argmax2 d*={d_float!r:<8} gap      = {float(two_level_gap(a1, b1, da))!r}")
        print(f"argmax2 d*={d_float!r:<8} low level = {float((1 - b1 * a1) / (1 - b1) / da)!r} d*")
        print(f"argmax2 d*={d_float!r:<8} levels    = ({float(a1)!r}, {float((1 - b1 * a1) / (1 - b1))!r})")
        print(f"argmax2 d*={d_float!r:<8} weights   = ({float(b1)!r}, {float(1 - b1)!r})")


if __name__ == "__main__":
    main()
