"""Regenerate the golden worst-case sweep fixture, checking every row first.

Runs the full acceptance sweep through the CLI into a temporary directory:

    rdgap gap-sweep --dstar-grid 0.005:0.995:0.005 --kmax 5 --seed 0 --svg ... --out ...

then prints one record per grid point and replaces
tests/fixtures/gap_sweep_kmax5_seed0.{csv,csv.manifest.json,svg} only if
every row passes both checks:

- the new gap is at least the committed row's gap minus gapopt._GAP_SLACK
  (1e-15), so no row gets worse;
- the new spectrum's stationarity residual (gapopt.stationarity_residual)
  is at most gapopt.STATIONARY_TOL (1e-11), so every row is a solved
  stationary point rather than where one optimizer trajectory happened to
  stop.

Both gaps are evaluated with gapopt._gap_core on the row's levels and
weights, the closed-form water level and Newton T that gap_at also uses;
these are accurate to rounding, so a 1e-15 comparison is meaningful.  If any
row fails, nothing is written and the exit status is 1.  The sweep takes
under a minute on two cores.

Run from the repository root: python3 tools/regen_golden_sweep.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rdgap import gapopt  # noqa: E402
from rdgap._manifest import split_manifest_comment  # noqa: E402
from rdgap.spectra import Spectrum  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
STEM = "gap_sweep_kmax5_seed0"
NAMES = (f"{STEM}.csv", f"{STEM}.csv.manifest.json", f"{STEM}.svg")


def read_rows(text: str) -> dict[str, tuple[float, float, list[float], list[float]]]:
    """Rows keyed by the d_star text: (rate_rc, rate_wf, levels, weights)."""
    _, payload = split_manifest_comment(text)
    rows = {}
    for line in payload.splitlines()[1:]:
        f = line.split(",")
        rows[f[0]] = (
            float(f[1]),
            float(f[2]),
            [float(x) for x in f[4].split(";")],
            [float(x) for x in f[5].split(";")],
        )
    return rows


def field_move(new, old) -> float:
    """Largest change over the rate, level and weight fields; NaN when the
    level count changed."""
    if len(new[2]) != len(old[2]):
        return float("nan")
    pairs = [(new[0], old[0]), (new[1], old[1])]
    pairs += list(zip(new[2], old[2])) + list(zip(new[3], old[3]))
    return max(abs(a - b) for a, b in pairs)


def check(new_rows, old_rows) -> bool:
    print("d_star,k_old,k_new,gap_change,max_field_move,residual,ok")
    all_ok = True
    for key, new in new_rows.items():
        old = old_rows[key]
        d_star = float(key)
        gap_new = gapopt._gap_core(new[2], new[3], d_star)
        gap_old = gapopt._gap_core(old[2], old[3], d_star)
        residual = gapopt.stationarity_residual(Spectrum(tuple(new[2]), tuple(new[3])), d_star)
        ok = gap_new >= gap_old - gapopt._GAP_SLACK and residual <= gapopt.STATIONARY_TOL
        all_ok &= ok
        print(f"{key},{len(old[2])},{len(new[2])},{gap_new - gap_old:.3e},"
              f"{field_move(new, old):.3e},{residual:.3e},{'ok' if ok else 'FAIL'}")
    return all_ok


def main() -> int:
    old_rows = read_rows((FIXTURES / NAMES[0]).read_text())
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, "-m", "rdgap.cli", "gap-sweep",
             "--dstar-grid", "0.005:0.995:0.005", "--kmax", "5", "--seed", "0",
             "--svg", str(out / NAMES[2]), "--out", str(out / NAMES[0])],
            check=True, env=env,
        )
        new_rows = read_rows((out / NAMES[0]).read_text())
        if list(new_rows) != list(old_rows):
            print("the new sweep's grid differs from the committed fixture's")
            return 1
        if not check(new_rows, old_rows):
            print("some rows failed; the fixture is left as it is")
            return 1
        for name in NAMES:
            shutil.copyfile(out / name, FIXTURES / name)
    print(f"wrote {', '.join(NAMES)} to {FIXTURES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
