"""Report the worst-case gap below the acceptance grid's smallest distortion.

The acceptance sweep's largest gap sits on its grid edge, d* = 0.005, so the
sweep alone cannot show whether the gap keeps growing toward d* -> 0.  This
prints gapopt.maximize_gap(d*, 5) with the default search on 9 log-spaced
d* from 1e-4 to 0.005, one CSV row per point: the gap in bits, both rates,
the distance below the d* -> 0 limit of the worst two-level gap
(LIMIT_GAP_BITS, from tools/oracle_derived.py), the stationarity residual of
the worst spectrum, converged (1 when that residual is at most
gapopt.STATIONARY_TOL, else 0), the wall time of the search in seconds, and
the worst spectrum's levels and weights.

It is a report only: it checks no bound and changes neither the acceptance
grid nor any fixture.  Run from the repository root:

    python3 tools/probe_small_dstar.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rdgap import gapopt  # noqa: E402

LIMIT_GAP_BITS = 0.10832560729428575
D_MIN, D_MAX, POINTS = 1e-4, 0.005, 9
GRID = [D_MIN * (D_MAX / D_MIN) ** (i / (POINTS - 1)) for i in range(POINTS - 1)] + [D_MAX]


def main() -> int:
    print("d_star,gap_bits,rate_rc_bits,rate_wf_bits,limit_minus_gap,residual,converged,seconds,"
          "levels,weights")
    best = None
    for d_star in GRID:
        start = time.perf_counter()
        rec = gapopt.maximize_gap(d_star, 5)
        seconds = time.perf_counter() - start
        residual = gapopt.stationarity_residual(rec.spectrum, d_star)
        print(
            f"{d_star:.6g},{rec.gap_bits:.9f},{rec.rate_rc_bits!r},{rec.rate_wf_bits!r},"
            f"{LIMIT_GAP_BITS - rec.gap_bits:.3e},{residual:.2e},"
            f"{int(residual <= gapopt.STATIONARY_TOL)},{seconds:.3f},"
            f"{';'.join(repr(v) for v in rec.spectrum.values)},"
            f"{';'.join(repr(w) for w in rec.spectrum.weights)}",
            flush=True,
        )
        if best is None or rec.gap_bits > best.gap_bits:
            best = rec
    print(f"# largest gap {best.gap_bits:.9f} bits at d* = {best.d_star:.6g}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
