"""Report the worst-case gap over the whole search domain, [1e-8, 0.999].

The acceptance sweep's largest gap sits on its grid edge, d* = 0.005, so the
sweep alone cannot show whether the gap keeps growing toward d* -> 0.  This
runs the search of gapopt.maximize_gap(d*, 5), as gapopt.sweep([d*], 5), at
35 d* from 1e-8 to 0.005 (mantissas 1, 1.5, 2, 3, 5, 7 per decade), at
0.99, 0.995, 0.998 and 0.999, up to the domain's top end, above which the
search stops converging, and at the four d* (UNCONVERGED) of a 2,999-point
scan of the domain where its residual stays above gapopt.STATIONARY_TOL at
k_max 2 and 5 alike.  It prints one CSV row per point: the gap in
bits, both rates, the distance below the d* -> 0 limit of the worst
two-level gap (LIMIT_GAP_BITS, from tools/oracle_derived.py),
the stationarity residual of the worst spectrum (gapopt.stationarity_residual:
the gap gradient in (log v, w) projected onto the constraints sum w = 1,
sum w v = 1, unit-free at any d*), converged (1 when the residual is at most
gapopt.STATIONARY_TOL, else 0), max_phi (the equivalence check
gapopt._max_phi: at most about STATIONARY_TOL when no spectrum with any
number of levels gains gap to first order at the point's T), the level count
the search picked, the wall time of the search in seconds, and the worst
spectrum's levels and weights.

It checks no bound on the gap and changes neither the acceptance grid nor
any fixture, but it exits 1 when any row reads converged = 0 (else 0); the
UNCONVERGED rows do, until the search converges there.
Run from the repository root:

    python3 tools/probe_small_dstar.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rdgap import gapopt  # noqa: E402

LIMIT_GAP_BITS = 0.10832560729428575
UNCONVERGED = [2.6725639838351294e-08, 3.417119283956404e-08, 1.6881783268220888e-07,
               1.0795558888212839e-06]
GRID = sorted([float(f"{m}e{e}") for e in range(-8, -2) for m in (1, 1.5, 2, 3, 5, 7)][:-1]
              + UNCONVERGED + [0.99, 0.995, 0.998, 0.999])


def main() -> int:
    print("d_star,gap_bits,rate_rc_bits,rate_wf_bits,limit_minus_gap,residual,"
          "converged,max_phi,best_k,seconds,levels,weights")
    best, unconverged = None, 0
    for d_star in GRID:
        start = time.perf_counter()
        result = gapopt.sweep([d_star], 5, threads=1)
        seconds = time.perf_counter() - start
        (rec,), (diag,) = result.records, result.diagnostics
        s = rec.spectrum
        print(
            f"{d_star!r},{rec.gap_bits:.9f},{rec.rate_rc_bits!r},{rec.rate_wf_bits!r},"
            f"{LIMIT_GAP_BITS - rec.gap_bits:.3e},{diag.residual:.2e},"
            f"{diag.converged},{diag.max_phi:.2e},{diag.best_k},{seconds:.3f},"
            f"{';'.join(repr(v) for v in s.values)},{';'.join(repr(w) for w in s.weights)}",
            flush=True,
        )
        unconverged += 1 - diag.converged
        if best is None or rec.gap_bits > best.gap_bits:
            best = rec
    print(f"# largest gap {best.gap_bits:.9f} bits at d* = {best.d_star:.6g}", file=sys.stderr)
    if unconverged:
        print(f"# {unconverged} of {len(GRID)} points not converged", file=sys.stderr)
    return 1 if unconverged else 0


if __name__ == "__main__":
    sys.exit(main())
