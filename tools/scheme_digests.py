"""Print the sha256 of the scheme's per-trial values over a fixed grid.

Report-only; the test suite does not depend on it.  Run from the repository
root with no arguments:

    python3 tools/scheme_digests.py > digests.txt

Each line is one config's id and the sha256 of `run_universal_scheme`'s
per_trial bytes, or `refused` with the error for a config the simulator
refuses; the last line is the sha256 of all lines before it.  Run it on two
commits, or at two BLAS thread counts (OPENBLAS_NUM_THREADS=1), and diff the
outputs: any differing line names a config whose bytes moved.

The grid crosses 15 dimensions n (2 to 64) with 24 book sizes M (1 to
65,536, including 4095, 4096, 4097, 8193 and 12854: sizes that are no
multiple of 8, and last spans of one codeword), each on three spectra
(flat, two levels, and three levels that small n cannot place), with and
without a tau quantizer step: 2,160 configs, 240 of them refused.  The
trial count (1 to 600) cycles across the (n, M) pairs.  It takes about 15 s
on 2 CPUs.
"""

import hashlib
import itertools
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rdgap import simulator as sim  # noqa: E402
from rdgap import spectra  # noqa: E402

DIMS = (2, 3, 4, 5, 8, 12, 14, 16, 17, 18, 24, 33, 40, 48, 64)
BOOKS = (1, 2, 3, 7, 16, 255, 256, 513, 1000, 2048, 3769, 3770, 4095, 4096, 4097,
         6144, 8191, 8192, 8193, 12287, 12854, 16384, 32769, 65536)
TRIALS = (1, 24, 100, 256, 257, 600)
SPECTRA = {
    "flat": spectra.flat(),
    "two": spectra.parse_spectrum("1.8:0.5,0.2:0.5"),
    "three": spectra.parse_spectrum("10:0.05,1:0.45,0.1:0.5"),
}


def configs():
    """(id, book size, SimConfig keyword arguments) over the fixed grid."""
    for (i, n), (j, m) in itertools.product(enumerate(DIMS), enumerate(BOOKS)):
        trials, seed = TRIALS[(i + j) % len(TRIALS)], i * len(BOOKS) + j
        for name, tau_delta in itertools.product(SPECTRA, (None, 0.05)):
            kw = dict(n=n, rate_bits=math.log2(m + 0.5) / n, spectrum=SPECTRA[name], trials=trials,
                      seed=seed, tau_delta=tau_delta)
            yield f"n={n} M={m} trials={trials} tau_delta={tau_delta} {name} seed={seed}", m, kw


def main() -> None:
    lines = []
    for cid, m, kw in configs():
        try:
            cfg = sim.SimConfig(**kw)
            if cfg.codebook_size != m:
                raise RuntimeError(f"{cid}: the rate gives {cfg.codebook_size} codewords")
            per_trial = sim.run_universal_scheme(cfg).per_trial
            line = f"{cid} {hashlib.sha256(per_trial.tobytes()).hexdigest()}"
        except ValueError as exc:
            line = f"{cid} refused: {exc}"
        lines.append(line)
        print(line, flush=True)
    print("combined", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
