"""Command-line entry point.

Subcommands: wf, rdrc, gap-sweep, simulate, version.  Data commands print
their CSV to stdout, or write it to --out with a `# manifest: <digest>`
comment line plus a sibling `<out>.manifest.json` recording the resolved
parameters, tool version, and output digests.  Reruns with equal parameters
are byte-identical.  `RDGAP_THREADS` caps parallelism (default: machine
parallelism).  Exit codes: 0 success, 1 numeric failure, 2 usage error.
gap-sweep and simulate import their layers, and so numpy, inside the command.

Every subcommand accepts `--config run.json`: a JSON object whose keys are
the long option names (dashes or underscores), `--mode` included.  Its values
become click's defaults, so they are converted and checked like the flags
they stand for, and explicitly passed flags take precedence over them.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

import click

from . import __version__, rdrc, spectra, waterfill
from ._manifest import (
    build_manifest,
    canonical_json,
    csv_with_manifest_comment,
    manifest_digest,
    sha256_hex,
)
from ._svg import line_plot
from .errors import SolverError


class _Main(click.Group):
    """Turns a SolverError from any subcommand into `error: ...` and exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except SolverError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main() -> None:
    """Waterfilling vs random-coding rate-distortion curves and their gap."""


def _load_config(ctx: click.Context, _param, path: str | None) -> None:
    """Eager --config callback: the file's JSON object becomes the command's
    default_map, so click converts, checks and ranks its values like flags;
    a JSON float or bool for an integer option is rejected, not converted."""
    if path is None:
        return
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path!r}: {exc}")
    if not isinstance(raw, dict):
        raise click.UsageError("config file must hold a JSON object")
    params = {p.name: p for p in ctx.command.params if p.expose_value}
    ctx.default_map = {}
    for key, value in raw.items():
        name = key.replace("-", "_")
        if name not in params:
            raise click.UsageError(f"unknown config key {key!r}")
        # click's INT would truncate a JSON float such as 8.9 to 8, and read true as 1.
        if isinstance(params[name].type, click.types.IntParamType) and isinstance(
                value, (float, bool)):
            raise click.BadParameter(f"{value!r} is not an integer", ctx, params[name])
        ctx.default_map[name] = value


_MAX_GRID_POINTS = 10**6


def _parse_grid(text: str, check=lambda point: None) -> list[float]:
    """The points start, start + step, ... <= stop of a 'start:stop:step'
    grid.  check(point) raises ValueError for a point outside the
    subcommand's range (by default any point is in range); the grid is
    increasing, so it sees only the first and the last point.  Both checks
    and the count, at most _MAX_GRID_POINTS points, are made on the Decimal
    bounds, before any point is built."""
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"grid must be 'start:stop:step', got {text!r}")
    try:
        start, stop, step = bounds = [Decimal(p) for p in parts]
        if not all(b.is_finite() for b in bounds):
            raise InvalidOperation
    except InvalidOperation:
        raise click.UsageError(f"grid must be numeric 'start:stop:step', got {text!r}")
    if step <= 0:
        raise click.UsageError("grid step must be positive")
    if stop < start:
        raise click.UsageError("grid stop must be >= start")
    try:
        n = (stop - start) // step  # the points after the first
    except InvalidOperation:  # more points than Decimal's 28 digits can count
        raise click.UsageError(f"grid step too small for its range, got {text!r}")
    try:
        check(float(start))
        check(float(start + n * step))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if n >= _MAX_GRID_POINTS:
        raise click.UsageError(f"grid has more than {_MAX_GRID_POINTS} points, got {text!r}")
    out = []
    v = start
    while v <= stop:
        out.append(float(v))
        v += step
    return out


def _check_distortion(d: float) -> None:
    if not 0.0 < d < 1.0:
        raise ValueError("distortion grid values must lie in (0, 1)")


def _check_rate(r: float) -> None:
    if r <= 0.0:
        raise ValueError("rate grid values must be positive")


def _check_svg_path(svg: str | None, out: str | None) -> None:
    """Refuse an SVG path that is the CSV's or its manifest's: _emit writes
    those last, over the plot."""
    if svg and out and Path(svg).resolve() in (
            Path(out).resolve(), Path(f"{out}.manifest.json").resolve()):
        raise click.UsageError(f"the SVG {svg!r} would be overwritten by --out {out!r}")


def _parse_spectrum_opt(text: str) -> spectra.Spectrum:
    try:
        return spectra.parse_spectrum(text)
    except (ValueError, OSError) as exc:
        raise click.UsageError(f"bad spectrum {text!r}: {exc}")


def _emit(
    subcommand: str,
    parameters: dict,
    header: str,
    rows: list[str],
    out: str | None,
    svg_path: str | None = None,
    svg_text: str | None = None,
) -> str:
    payload = "\n".join([header, *rows]) + "\n"
    outputs = {"csv": sha256_hex(payload.encode("utf-8"))}
    if svg_text is not None:
        outputs["svg"] = sha256_hex(svg_text.encode("utf-8"))
    manifest = build_manifest(subcommand, parameters, __version__, outputs)
    digest = manifest_digest(manifest)
    if svg_text is not None and svg_path:
        Path(svg_path).write_text(svg_text)
    if out:
        Path(out).write_text(csv_with_manifest_comment(payload, digest))
        Path(f"{out}.manifest.json").write_text(canonical_json(manifest) + "\n")
    else:
        click.echo(payload, nl=False)
    return digest


_CONFIG_OPT = click.option(
    "--config",
    type=click.Path(),
    is_eager=True,
    expose_value=False,
    callback=_load_config,
    help="JSON file of option values; explicit flags take precedence.",
)
_SPECTRUM_OPT = click.option("--spectrum", default="flat", show_default=True,
                             help="flat | semiflat:<f> | v:w,v:w,... | @file.csv")
_OUT_OPT = click.option("--out", type=click.Path(), default=None,
                        help="Write CSV here instead of stdout.")


@main.command("wf")
@_SPECTRUM_OPT
@click.option("--distortion-grid", default="0.05:0.95:0.05", show_default=True,
              help="Distortion grid start:stop:step, all in (0,1).")
@click.option("--compare", is_flag=True, default=False, show_default=True,
              help="Overlay the random-coding rate curve in the SVG.")
@click.option("--svg", type=click.Path(), default=None, help="Write a rate-vs-distortion SVG plot.")
@_OUT_OPT
@_CONFIG_OPT
def cmd_wf(spectrum: str, distortion_grid: str, compare: bool, svg: str | None,
           out: str | None) -> None:
    """Oracle waterfilling curve: CSV rows d_star,t,rate_bits."""
    _check_svg_path(svg, out)
    s = _parse_spectrum_opt(spectrum)
    grid = _parse_grid(distortion_grid, _check_distortion)
    ts = [waterfill.t_for_distortion(s, d) for d in grid]
    rates = [waterfill.r_wf(s, t) for t in ts]
    rows = [f"{d!r},{t!r},{r!r}" for d, t, r in zip(grid, ts, rates)]
    svg_text = None
    if svg:
        series = [("rate_wf", grid, rates)]
        if compare:
            series.append(("rate_rc", grid, [rdrc.rr_rc(s, d) for d in grid]))
        svg_text = line_plot(series, "rate vs distortion", "distortion", "rate (bits)")
    _emit("wf", {
        "spectrum": s.as_literal(), "distortion_grid": distortion_grid, "compare": compare,
    }, "d_star,t,rate_bits", rows, out, svg, svg_text)


@main.command("rdrc")
@_SPECTRUM_OPT
@click.option("--rate-grid", default="0.25:4:0.25", show_default=True,
              help="Rate grid start:stop:step in bits, all > 0.")
@click.option("--compare", is_flag=True, default=False, show_default=True,
              help="Overlay the waterfilling distortion curve in the SVG.")
@click.option("--svg", type=click.Path(), default=None, help="Write a distortion-vs-rate SVG plot.")
@_OUT_OPT
@_CONFIG_OPT
def cmd_rdrc(spectrum: str, rate_grid: str, compare: bool, svg: str | None,
             out: str | None) -> None:
    """Universal random-coding curve: CSV rows rate_bits,T,d_rc."""
    _check_svg_path(svg, out)
    s = _parse_spectrum_opt(spectrum)
    grid = _parse_grid(rate_grid, _check_rate)
    ts = [rdrc.t_rc_for_rate(s, r) for r in grid]
    ds = [rdrc.d_rc(s, T) for T in ts]
    rows = [f"{r!r},{T!r},{d!r}" for r, T, d in zip(grid, ts, ds)]
    svg_text = None
    if svg:
        series = [("d_rc", grid, ds)]
        if compare:
            series.append(("d_wf", grid, [waterfill.dd_wf(s, r) for r in grid]))
        svg_text = line_plot(series, "distortion vs rate", "rate (bits)", "distortion")
    _emit("rdrc", {
        "spectrum": s.as_literal(), "rate_grid": rate_grid, "compare": compare,
    }, "rate_bits,T,d_rc", rows, out, svg, svg_text)


@main.command("gap-sweep")
@click.option("--dstar-grid", default="0.005:0.995:0.005", show_default=True,
              help="Distortion grid start:stop:step within [1e-8, 0.999].")
@click.option("--kmax", default=5, show_default=True, type=int, metavar="K",
              help="Two-level search starts: 16*(K-1) per grid point; 1 reports the flat spectrum.")
@click.option("--seed", default=0, show_default=True, type=int,
              help="Written to the manifest; the search is deterministic and uses no seed.")
@click.option("--svg", type=click.Path(), default=None,
              help="Write a gap-vs-rate SVG plot (default: <out> with .svg suffix).")
@_OUT_OPT
@_CONFIG_OPT
def cmd_gap_sweep(dstar_grid: str, kmax: int, seed: int, svg: str | None,
                  out: str | None) -> None:
    """Maximize the rate gap over spectra on a distortion grid."""
    if svg is None and out:
        svg = str(Path(out).with_suffix(".svg"))
    _check_svg_path(svg, out)
    from . import gapopt
    grid = _parse_grid(dstar_grid, gapopt._check_dstar)
    try:
        result = gapopt.sweep(grid, kmax)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = gapopt.sweep_csv_rows(result)
    svg_text = None
    if svg:
        svg_text = line_plot(
            [("gap_bits", [r.rate_rc_bits for r in result.records],
              [r.gap_bits for r in result.records])],
            "universality gap vs rate", "rate_rc (bits)", "gap (bits)",
        )
    _emit("gap-sweep", {"dstar_grid": dstar_grid, "kmax": kmax, "seed": seed},
          gapopt.SWEEP_CSV_HEADER, rows, out, svg, svg_text)
    best = result.best
    click.echo(f"global max gap_bits = {best.gap_bits:.6f} at d_star = {best.d_star!r}")


_SIM_HEADER = (
    "mode,n,rate_bits,t,T,spectrum,trials,seed,tau_delta,tau_threshold,"
    "eta,w_batches,mean,se,analytic,p_hat,wilson_low,wilson_high,exponent,"
    "exponent_is_lower_bound"
)


def _sim_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@main.command("simulate")
@click.option("--mode", type=click.Choice(["scheme", "success", "coupling", "filter"]),
              required=True, help="Which Monte-Carlo run to perform.")
@click.option("--n", default=16, show_default=True, type=int, help="Dimension.")
@click.option("--rate", default=1.0, show_default=True, type=float,
              help="Rate in bits (scheme/success modes).")
@_SPECTRUM_OPT
@click.option("--trials", default=1000, show_default=True, type=int,
              help="Trials (codewords per source batch in success mode).")
@click.option("--seed", default=0, show_default=True, type=int, help="Master seed.")
@click.option("--t", default=None, type=float,
              help="Water level (coupling mode).")
@click.option("--T", "T", default=None, type=float,
              help="Inverse noise level (filter mode).")
@click.option("--tau-delta", default=None, type=float,
              help="Quantize the scaling to multiples of delta times the source sup-norm.")
@click.option("--tau-threshold", default=None, type=float,
              help="Force the scaling to 0 when the source sup-norm exceeds this.")
@click.option("--eta", default=0.0, show_default=True, type=float,
              help="Distortion slack for success mode.")
@click.option("--w-batches", default=64, show_default=True, type=int,
              help="Source batches in success mode.")
@_OUT_OPT
@_CONFIG_OPT
def cmd_simulate(mode: str, n: int, rate: float, spectrum: str, trials: int, seed: int,
                 t: float | None, T: float | None, tau_delta: float | None,
                 tau_threshold: float | None, eta: float, w_batches: int, out: str | None) -> None:
    """Monte-Carlo runs: scheme, success probability, or exact-expectation checks."""
    from . import simulator
    s = _parse_spectrum_opt(spectrum)
    coded = mode in ("scheme", "success")
    try:
        if coded:
            cfg = simulator.SimConfig(
                n=n, rate_bits=rate, spectrum=s, trials=trials, seed=seed,
                tau_delta=tau_delta, tau_threshold=tau_threshold, eta=eta, w_batches=w_batches,
            )
            report = (simulator.run_universal_scheme(cfg) if mode == "scheme"
                      else simulator.estimate_codeword_success(cfg))
        elif mode == "coupling":
            if t is None:
                raise click.UsageError("--t is required for mode coupling")
            report = simulator.simulate_wf_coupling(s, t, n, trials, seed)
        else:
            if T is None:
                raise click.UsageError("--T is required for mode filter")
            report = simulator.simulate_mmse_filter(s, T, n, trials, seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    echo = {
        "mode": mode, "n": n, "rate_bits": rate if coded else None,
        "t": t if mode == "coupling" else None, "T": T if mode == "filter" else None,
        "spectrum": s.as_literal(), "trials": trials, "seed": seed,
        "tau_delta": tau_delta if coded else None,
        "tau_threshold": tau_threshold if coded else None,
        "eta": eta if mode == "success" else None,
        "w_batches": w_batches if mode == "success" else None,
    }
    fields = {**vars(report), **echo}
    record = [_sim_field(fields[k]) for k in _SIM_HEADER.split(",")]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(record)
    _emit("simulate", {k: v for k, v in echo.items() if v is not None},
          _SIM_HEADER, [buf.getvalue().rstrip("\n")], out)


@main.command("version")
def cmd_version() -> None:
    """Print the tool version."""
    click.echo(f"rdgap {__version__}")


if __name__ == "__main__":
    main()
