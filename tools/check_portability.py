"""Run the Tier-1 suite under emulated CPUs and list the tests that fail.

numpy's vector math and OpenBLAS pick their kernels per process, so one
machine can stand in for others by environment variables alone, with no
change to the machine.  This runs the Tier-1 command once under each of:

- the default kernels;
- OPENBLAS_CORETYPE=Haswell;
- OPENBLAS_CORETYPE=Prescott;
- OPENBLAS_CORETYPE=Haswell with numpy limited to X86_V3
  (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").

For each setting it prints the pass/fail counts and the id of every test
that fails or errors.  It is a report, not part of Tier-1, and takes about
four Tier-1 runs.  It exits 1 when any test fails under any setting, else 0.
Run from the repository root:

    python3 tools/check_portability.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETTINGS = [
    ("default", {}),
    ("Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("Prescott", {"OPENBLAS_CORETYPE": "Prescott"}),
    ("Haswell+X86_V3", {"OPENBLAS_CORETYPE": "Haswell",
                        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}),
]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "-rfE"]


def run(extra: dict) -> tuple[str, list[str]]:
    """(pytest's last line, the ids of failed or errored tests) under extra."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [m.group(1) for line in lines if (m := re.match(r"(?:FAILED|ERROR) (\S+)", line))]
    if proc.returncode not in (0, 1) and not failed:
        failed = [f"<pytest exited {proc.returncode}>"]
    return (lines[-1] if lines else ""), failed


def main() -> int:
    any_failed = False
    for name, extra in SETTINGS:
        summary, failed = run(extra)
        print(f"{name}: {summary}", flush=True)
        for test_id in failed:
            print(f"  {test_id}", flush=True)
        any_failed |= bool(failed)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
