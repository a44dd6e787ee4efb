"""rdgap benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the root of an rdgap checkout:

    python3 perfbench/run.py --workload {sweep,curves,simulate,cli} \\
        --seed N --seconds S --trace {0,1}

Workloads (BENCHMARK.json says why each exists):

- sweep: gapopt.sweep(pair, 5, threads=2) over pairs of 8 seed-drawn points
  of the acceptance grid 0.005:0.995:0.005, one per eighth of the grid;
  unit: grid points.
- curves: the public inverse solvers on 16 seed-drawn random spectra with
  1-8 levels, 4 distortions and 4 rates each; unit: solver calls.
- simulate: passes of both committed pilot configs (even passes at their
  pinned seed 2026, odd ones at a seed-drawn seed) plus coupling and filter
  at n=64, 5000 trials, all at threads=2; unit: passes.
- cli: acceptance 9's subcommand cases plus `version` and a `wf --out` run
  writing CSV, manifest and SVG, each a subprocess with RDGAP_THREADS=2 run
  twice and compared byte for byte, for at least two rounds; unit: CLI runs.

Every operation checks its outputs; a failed check or an exception counts as
a failed operation.  Operations repeat, so each kind runs several times.

`--trace 0` runs the workload for S seconds untraced and reports the
end-to-end metrics: `throughput_per_s` (work per second over one operation
of each kind at its fastest repeat, see workloads.best_rate), `peak_rss_mb`
(largest peak RSS of this process or any child), and `setup_s` (median of
three fresh interpreters, each timed from start to where the first timed
call would begin: imports, inputs, fixtures).  The workload's own figures
(sweep_points_per_s, curve_solves_per_s, the four simulate rates,
cli_run_p50_s and cli_run_tail_s, fail_frac, sweep.golden_field_mismatch)
are printed as `metric <name> <value> <unit>` lines.

`--trace 1` runs each operation twice, traced and untraced in alternating
order, for S seconds, then the layer probe (probe.py) under the tracer, and
reports the per-layer metrics, the self time per layer and the tracing
overhead.  Spans are written to `.perfbench/results/` at the end, next to a
JSON record of every figure and the environment.  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
REQUIRED = (
    "src/rdgap/__init__.py",
    "tests/fixtures/gap_sweep_kmax5_seed0.csv",
    "tests/fixtures/pilot_success.json",
    "tests/fixtures/pilot_scheme_trend.json",
    "BENCHMARK.json",
)
SETUP_REPEATS = 3
LAYERS = ("spectra", "waterfill", "rdrc", "gapopt", "parallel", "simulator", "cli")
# per-call medians taken from span durations, in microseconds
SPAN_US = (
    "spectra.sample_random",
    "waterfill.t_for_distortion", "waterfill.rr_wf", "waterfill.dd_wf",
    "rdrc.t_rc_for_distortion", "rdrc.t_rc_for_rate", "rdrc.rr_rc", "rdrc.dd_rc",
    "gapopt.gap_at", "gapopt.grad_rates",
)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if k == "RDGAP_THREADS" or k.startswith(("OMP_", "OPENBLAS_"))
        },
        "workload_threads": 2,
    }
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "rdgap").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    env["src_sha256"] = src.hexdigest()  # identifies the code where there is no git
    git = ["git", "-C", str(ROOT)]
    genv = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, env=genv)
        dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, env=genv)
        env["git_commit"] = head.stdout.strip() if head.returncode == 0 else None
        env["git_dirty"] = bool(dirty.stdout.strip()) if head.returncode == 0 else None
    except FileNotFoundError:
        env["git_commit"] = env["git_dirty"] = None
    return env


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def time_setup(workload: str, seed: int) -> float:
    """Fresh interpreter start to the end of the workload's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up of {workload} failed")
    return seconds


def run_op(wl, i: int):
    from workloads import OpResult

    try:
        return wl.op(i)
    except Exception as exc:  # one failed operation; the run goes on
        return OpResult(0.0, 0, 1, [f"op {i}: {type(exc).__name__}: {exc}"])


def untraced_loop(wl, seconds: float) -> list:
    results, start = [], time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < wl.min_ops:
        results.append(run_op(wl, len(results)))
    return results


def traced_loop(wl, seconds: float, tracer) -> tuple[list, list]:
    """Each operation once traced and once not, alternating which goes first."""
    from tracing import instrument

    plain, traced, start = [], [], time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(traced)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                wl.tracer = tracer
                with instrument(tracer), tracer.span(f"bench.{wl.name}"):
                    traced.append(run_op(wl, i))
                wl.tracer = None
            else:
                plain.append(run_op(wl, i))
    return plain, traced


def layer_metrics(tracer, probe_metrics: dict, overhead: float) -> dict:
    m = dict(probe_metrics)
    for name in SPAN_US:
        m[f"{name}.us"] = statistics.median(tracer.durations(name)) * 1e6
    self_s = tracer.self_seconds()
    for layer in LAYERS:
        m[f"self.{layer}.s"] = self_s.get(layer, 0.0)
    m["trace.spans"] = len(tracer.spans)
    m["trace.overhead_frac"] = overhead
    return m


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an rdgap checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, args, workdir: Path) -> int:
    import probe
    import workloads
    from tracing import Tracer, instrument

    names = declared()
    env = environment()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace == 0:
        setups = [time_setup(wl.name, args.seed) for _ in range(SETUP_REPEATS)]
        results = untraced_loop(wl, args.seconds)
        summary = wl.summary(results)
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": summary["throughput_per_s"],
        }
        kind = "end_to_end"
        record["setup_samples_s"] = setups
    else:
        tracer = Tracer()
        plain, results = traced_loop(wl, args.seconds, tracer)
        summary = wl.summary(plain)
        overhead = sum(r.seconds for r in results) / sum(r.seconds for r in plain) - 1.0
        loop_self = tracer.self_seconds()
        with instrument(tracer):
            probe_m, probe_problems, probe_attempted = probe.run(tracer, args.seed, workdir)
        results = plain + results + [
            workloads.OpResult(0.0, 0, probe_attempted, probe_problems)
        ]
        metrics = layer_metrics(tracer, probe_m, overhead)
        kind = "per_layer"
        record["loop_self_s"] = loop_self
        record["traced_throughput_per_s"] = wl.summary(results[len(plain):-1])["throughput_per_s"]
        WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / "results" / f"{wl.name}-seed{args.seed}-spans.json")

    if set(metrics) != set(names[kind]):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(names[kind]))}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    named = dict(summary["named"])
    named["fail_frac"] = (failed / attempted, "frac")
    named["throughput_per_s"] = (summary["throughput_per_s"], "1/s")
    record.update(named={k: v for k, (v, _) in named.items()}, notes=summary.get("notes", {}),
                  metrics=metrics, attempted=attempted, failed=failed, problems=problems[:50],
                  op_seconds=workloads.quantiles([r.seconds for r in results if r.units]))

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for k, (v, unit) in named.items():
        print(f"metric {k} {v} {unit}")
    if args.trace:
        print(f"trace overhead {overhead:+.4f} (traced vs untraced rdgap time, same operations); "
              f"throughput_per_s traced {record['traced_throughput_per_s']} untraced {summary['throughput_per_s']}")
        for layer, s in sorted(tracer.self_seconds().items()):
            print(f"self {layer} {s:.6f} s (loop only: {loop_self.get(layer, 0.0):.6f} s)")
    for p in problems[:20]:
        print(f"problem {p}")
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": names[kind][k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
