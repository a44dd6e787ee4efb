"""Layer probe for the traced run: one fixed, seed-drawn call into every layer.

The same probe runs after every workload's traced loop, so each traced run
reports every per-layer metric.  It runs under the tracer; the per-call
figures of the curve solvers come from the span durations.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from tracing import Tracer

RNG_UNITS = 2000
SPAN_COST_CALLS = 20000


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rng_unit_seconds() -> float:
    """One simulator RNG unit: SeedSequence + Philox + Generator, per unit."""

    def batch():
        for i in range(RNG_UNITS // 5):
            np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=7, spawn_key=(3, i))))

    return _median_time(batch, 5) / (RNG_UNITS // 5)


def span_cost_seconds() -> float:
    """Added cost of one traced call, from a wrapped no-op on a private tracer."""

    def noop():
        return None

    traced = Tracer().wrap("probe.noop", noop)

    def run(fn):
        return lambda: [fn() for _ in range(SPAN_COST_CALLS)]

    return (_median_time(run(traced), 5) - _median_time(run(noop), 5)) / SPAN_COST_CALLS


def scheme_distance_cost(configs) -> tuple[int, int]:
    """Computed flop and bytes of the scheme's codeword distance blocks.

    Per chunk of c trials and block of b codewords of dimension n the search
    does a (c x n) @ (n x b) product (2cbn flop) and four elementwise passes
    over c x b (4cb flop), writing four c x b float64 temporaries and reading
    them back once (64cb bytes), and reads the block once (8bn bytes).
    Caches are ignored.
    """
    from rdgap import simulator as sim

    flop = nbytes = 0
    for cfg in configs:
        m, n = cfg.codebook_size, cfg.n
        chunks = -(-cfg.trials // sim._CHUNK)
        flop += cfg.trials * m * (2 * n + 4)
        nbytes += 64 * cfg.trials * m + chunks * 8 * m * n
    return flop, nbytes


def scipy_import_seconds(env: dict) -> float:
    """Self time of every scipy module in `python -X importtime -c 'import rdgap.cli'`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import rdgap.cli"],
        env=env, capture_output=True, text=True, check=True,
    )
    total = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
        if m and m.group(3).split(".")[0] == "scipy":
            total += int(m.group(1))
    return total * 1e-6


def cli_import_seconds(env: dict) -> float:
    code = "import time; t = time.perf_counter(); import rdgap.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def run(tracer: Tracer, seed: int, workdir) -> tuple[dict, list[str], int]:
    """Every per-layer metric that the probe itself produces, its problems,
    and the number of rdgap operations it attempted."""
    from rdgap import _parallel, gapopt, simulator, spectra

    m: dict[str, float] = {}
    problems: list[str] = []
    attempted = 0

    m["numpy.rng_unit.us"] = rng_unit_seconds() * 1e6
    m["trace.span_cost_us"] = span_cost_seconds() * 1e6

    # spectra and the curve solvers: one small curves pass
    for i in range(200):
        spectra.sample_random(2 + i % 7, seed + i)
    curves = workloads.Curves(seed)
    curve_seconds = 0.0
    for i in range(8):
        with tracer.span("bench.probe_curves"):
            r = curves.op(i)
        curve_seconds += r.seconds
        problems += r.problems
        attempted += r.attempted
    dd_wf = tracer.outermost("waterfill.dd_wf", under="bench.probe_curves")
    m["waterfill.dd_wf.share"] = sum(dd_wf) / curve_seconds

    # gapopt: one grid point at k_max = 1..5, then a 2-point sweep at 1 and 2 threads
    sweep = workloads.Sweep(seed)
    d1, d2 = sweep.batch(0)
    cumulative = [0.0]
    for k in range(1, 6):
        t0 = time.perf_counter()
        record = gapopt.maximize_gap(d1, k)
        cumulative.append(time.perf_counter() - t0)
        m[f"gapopt.maximize_gap.kmax{k}.s"] = cumulative[k] - cumulative[k - 1]
    m["gapopt.maximize_gap.s"] = cumulative[5]
    attempted += 5
    serial = sweep.run_sweep([d1, d2], 1)
    parallel = sweep.run_sweep([d1, d2], workloads.THREADS)
    problems += serial.problems + parallel.problems
    if serial.extra["records"] != parallel.extra["records"]:
        problems.append("sweep: records depend on the thread count")
    if record != serial.extra["records"][0]:
        problems.append("maximize_gap disagrees with sweep at the same point")
    attempted += serial.attempted + parallel.attempted
    m["parallel.speedup.sweep"] = serial.seconds / parallel.seconds
    m["gapopt.restarts"] = serial.extra["restarts"]
    m["gapopt.converged_frac"] = serial.extra["converged"] / serial.extra["restarts"]

    m["parallel.ordered_map.pool_start_ms"] = 1e3 * _median_time(
        lambda: _parallel.ordered_map(abs, [0, 1], workloads.THREADS), 5
    )

    # simulator: each mode at 1 and 2 threads on pass 0 (the pinned pilot seed)
    sim = workloads.Simulate(seed)
    sp = sim.passes[0]
    cb_cfg = sim.scheme_configs(sp.seed)[-1]
    m["simulator.build_codebook.ms"] = 1e3 * _median_time(lambda: simulator.build_codebook(cb_cfg), 3)
    rng_unit = m["numpy.rng_unit.us"] * 1e-6
    # start OpenBLAS's threads before timing: the first product pays for them
    simulator.run_universal_scheme(sim.scheme_configs(sp.seed)[0], threads=1)
    for mode in sim.MODES:
        t1, _, rng_units, p1, out1 = sim.run_mode(mode, sp, 1)
        t2, _, _, p2, out2 = sim.run_mode(mode, sp, workloads.THREADS)
        problems += p1 + p2
        if out1 != out2:
            problems.append(f"{mode}: output depends on the thread count")
        attempted += 2
        m[f"parallel.speedup.{mode}"] = t1 / t2
        m[f"simulator.{mode}.us_per_unit"] = 1e6 * t2 / rng_units
        m[f"simulator.{mode}.rng_units"] = rng_units
        m[f"simulator.{mode}.rng_share"] = rng_units * rng_unit / t1  # of the serial time
        if mode == "scheme":
            flop, nbytes = scheme_distance_cost(sim.scheme_configs(sp.seed))
            m["simulator.scheme.distance_flop"] = flop
            m["simulator.scheme.distance_bytes"] = nbytes
            m["simulator.scheme.gflops"] = flop / t2 / 1e9

    # cli: import cost, then one run of each subcommand
    cli = workloads.Cli(seed, workdir)
    m["cli.import_s"] = cli_import_seconds(cli.env)
    m["cli.import.scipy_s"] = scipy_import_seconds(cli.env)
    out_bytes = 0
    for sub, args in dict(cli.cases).items():  # the last case of each subcommand
        with tracer.span(f"cli.{sub}"):
            dt, res = cli.run_cli(args, workdir / f"probe-{sub}")
        m[f"cli.{sub}.s"] = dt
        attempted += 1
        if res["code"] != 0:
            problems.append(f"cli {sub}: exit code {res['code']}")
        out_bytes += sum(len(v) for k, v in res["outputs"].items() if k != "stdout")
    m["cli.out_bytes"] = out_bytes
    return m, problems, attempted
