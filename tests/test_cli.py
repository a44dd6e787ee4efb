import csv
import json
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from rdgap import __version__, gapopt
from rdgap._manifest import (
    canonical_json,
    manifest_digest,
    sha256_hex,
    split_manifest_comment,
)

HELP_DIR = Path(__file__).parent / "fixtures" / "help"
TWO_LEVEL_LITERAL = "1.8:0.5,0.2:0.5"
HEADER_SIMULATE = (
    "mode,n,rate_bits,t,T,spectrum,trials,seed,tau_delta,tau_threshold,"
    "eta,w_batches,mean,se,analytic,p_hat,wilson_low,wilson_high,exponent,"
    "exponent_is_lower_bound"
)


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env["COLUMNS"] = "80"
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rdgap.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def read_emitted(out_path: Path):
    """Return (digest, payload, manifest) for a CSV written with --out."""
    digest, payload = split_manifest_comment(out_path.read_text())
    manifest = json.loads(Path(f"{out_path}.manifest.json").read_text())
    return digest, payload, manifest


class TestHelpSnapshots:
    @pytest.mark.parametrize(
        "name,args",
        [
            ("main", ["--help"]),
            ("wf", ["wf", "--help"]),
            ("rdrc", ["rdrc", "--help"]),
            ("gap-sweep", ["gap-sweep", "--help"]),
            ("simulate", ["simulate", "--help"]),
            ("version", ["version", "--help"]),
        ],
    )
    def test_snapshot(self, name, args):
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert proc.stdout == (HELP_DIR / f"{name}.txt").read_text()


class TestVersion:
    def test_prints_version(self):
        proc = run_cli("version")
        assert proc.returncode == 0
        assert proc.stdout == f"rdgap {__version__}\n"


class TestRuntimeDependencies:
    def test_cli_import_does_not_load_scipy(self):
        # scipy is a tools extra only; the package must run without it.
        code = "import sys, rdgap.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_curve_subcommands_start_without_numpy(self, tmp_path):
        # wf, rdrc and version run on the scalar solvers; only gap-sweep and
        # simulate import numpy, inside their commands.
        code = textwrap.dedent(f"""
            import sys
            import rdgap
            print("import rdgap", "numpy" in sys.modules)
            import rdgap.cli
            print("import rdgap.cli", "numpy" in sys.modules)
            d = {str(tmp_path)!r}
            for args in (["wf", "--compare", "--svg", d + "/wf.svg", "--out", d + "/wf.csv"],
                         ["rdrc", "--compare", "--svg", d + "/rdrc.svg", "--out", d + "/rdrc.csv"],
                         ["version"]):
                rdgap.cli.main(args, standalone_mode=False)
                print(args[0], "numpy" in sys.modules)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "import rdgap False", "import rdgap.cli False", "wf False", "rdrc False",
            f"rdgap {__version__}", "version False",
        ]
        assert (tmp_path / "wf.svg").exists() and (tmp_path / "rdrc.csv").exists()


class TestWf:
    def test_default_grid_flat(self):
        proc = run_cli("wf")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "d_star,t,rate_bits"
        assert len(lines) == 1 + 19  # 0.05..0.95 step 0.05
        assert "0.25,0.25,1.0" in lines

    def test_semi_flat_single_point(self):
        proc = run_cli("wf", "--spectrum", "semiflat:0.5", "--distortion-grid", "0.5:0.5:1")
        assert proc.returncode == 0
        assert proc.stdout == "d_star,t,rate_bits\n0.5,1.0,0.25\n"

    def test_grid_bounds_rejected(self):
        proc = run_cli("wf", "--distortion-grid", "0:1:0.25")
        assert proc.returncode == 2
        assert "distortion grid" in proc.stderr

    @pytest.mark.parametrize(
        "grid", ["nonsense", "0.1:0.9", "0.1:0.9:-0.1", "0.9:0.1:0.1"]
    )
    def test_malformed_grid_rejected(self, grid):
        assert run_cli("wf", "--distortion-grid", grid).returncode == 2

    def test_bad_spectrum_rejected(self):
        proc = run_cli("wf", "--spectrum", "2:0.5,zebra:0.5")
        assert proc.returncode == 2
        assert "bad spectrum" in proc.stderr

    @pytest.mark.parametrize("command", [
        ["wf"], ["simulate", "--mode", "filter", "--T", "1", "--n", "4", "--trials", "8"],
    ], ids=["wf", "simulate"])
    @pytest.mark.parametrize("literal", ["nan:1", "inf:1"])
    def test_non_finite_spectrum_rejected(self, command, literal):
        proc = run_cli(*command, "--spectrum", literal)
        assert proc.returncode == 2
        assert "bad spectrum" in proc.stderr

    @pytest.mark.parametrize("command,grid", [
        ("wf", "--distortion-grid"), ("rdrc", "--rate-grid"), ("gap-sweep", "--dstar-grid"),
    ])
    @pytest.mark.parametrize("bounds", ["0.1:0.5:nan", "0.1:inf:0.1"])
    def test_non_finite_grid_rejected(self, command, grid, bounds):
        # Grid building would never end at an inf stop; the timeout turns a regression
        # into a failure instead of a hang.
        proc = run_cli(command, grid, bounds, timeout=60)
        assert proc.returncode == 2
        assert "grid must be numeric 'start:stop:step'" in proc.stderr

    @pytest.mark.parametrize("command,grid,bounds,message", [
        ("wf", "--distortion-grid", "0.5:100000:0.0001", "distortion grid values must lie in (0, 1)"),
        ("rdrc", "--rate-grid", "-1:100000:0.0001", "rate grid values must be positive"),
        ("gap-sweep", "--dstar-grid", "0.5:100000:0.0001", "d_star must lie in [1e-8, 0.999]"),
        ("wf", "--distortion-grid", "0.1:0.9:1e-40", "grid step too small for its range"),
        ("wf", "--distortion-grid", "0.05:0.95:1e-9", "grid has more than 1000000 points"),
        ("gap-sweep", "--dstar-grid", "1e-8:0.999:1e-9", "grid has more than 1000000 points"),
    ])
    def test_grid_rejected_before_it_is_built(self, command, grid, bounds, message):
        # About 1e9 points, or a step that Decimal's 28 digits lose: building
        # the grid first would take many minutes or never end.  In-range
        # grids are refused by their point count.
        proc = run_cli(command, grid, bounds, timeout=10)
        assert proc.returncode == 2
        assert message in proc.stderr

    def test_spectrum_from_file(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("# value,weight\n1.8,0.5\n0.2,0.5\n")
        direct = run_cli("wf", "--spectrum", TWO_LEVEL_LITERAL, "--distortion-grid", "0.2:0.4:0.1")
        via_file = run_cli("wf", "--spectrum", f"@{f}", "--distortion-grid", "0.2:0.4:0.1")
        assert via_file.returncode == 0
        assert via_file.stdout == direct.stdout

    @pytest.mark.parametrize("text", [
        "1.8,0.5\n0.2,O.5\n",  # letter O: only a first row may be a header
        "1.8,0.5\n1.5\n",  # one column
    ], ids=["letter", "one-column"])
    def test_malformed_spectrum_row_exits_two(self, tmp_path, text):
        f = tmp_path / "s.csv"
        f.write_text(text)
        proc = run_cli("wf", "--spectrum", f"@{f}", "--distortion-grid", "0.2:0.2:1")
        assert proc.returncode == 2
        assert "bad spectrum" in proc.stderr and "row 2" in proc.stderr
        assert proc.stdout == ""

    def test_stdout_bytes(self):
        # The whole stdout, every digit included, on a two-level spectrum.
        proc = run_cli("wf", "--spectrum", TWO_LEVEL_LITERAL, "--distortion-grid", "0.1:0.5:0.2")
        assert proc.returncode == 0
        assert proc.stdout == (
            "d_star,t,rate_bits\n"
            "0.1,0.1,1.292481250360578\n"
            "0.3,0.39999999999999997,0.5424812503605781\n"
            "0.5,0.8,0.2924812503605781\n"
        )

    def test_svg_written_and_well_formed(self, tmp_path):
        svg = tmp_path / "plot.svg"
        proc = run_cli("wf", "--compare", "--svg", str(svg))
        assert proc.returncode == 0
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        body = svg.read_text()
        assert body.count("<polyline") >= 2  # oracle curve + overlay
        assert "rate_wf" in body and "rate_rc" in body


class TestRdrc:
    def test_flat_single_point(self):
        proc = run_cli("rdrc", "--rate-grid", "1:1:1")
        assert proc.returncode == 0
        assert proc.stdout == "rate_bits,T,d_rc\n1.0,3.0,0.25\n"

    def test_default_grid_row_count(self):
        proc = run_cli("rdrc")
        lines = proc.stdout.splitlines()
        assert lines[0] == "rate_bits,T,d_rc"
        assert len(lines) == 1 + 16  # 0.25..4 step 0.25

    def test_unreachable_rate_exits_one(self):
        proc = run_cli("rdrc", "--rate-grid", "200:200:1")
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert proc.stdout == ""

    def test_nonpositive_rate_rejected(self):
        assert run_cli("rdrc", "--rate-grid", "0:1:0.5").returncode == 2

    def test_stdout_bytes(self):
        # The whole stdout, every digit included, on a three-level spectrum.
        proc = run_cli("rdrc", "--spectrum", "3:0.2,1:0.5,0.1:0.3", "--rate-grid", "0.5:2:0.5")
        assert proc.returncode == 0
        assert proc.stdout == (
            "rate_bits,T,d_rc\n"
            "0.5,1.240620722395306,0.35850134377101117\n"
            "1.0,4.305825420919064,0.15391823988316955\n"
            "1.5,11.099787796341843,0.07170375282364938\n"
            "2.0,25.28506448344706,0.03492236683690653\n"
        )


class TestManifest:
    def test_emitted_files_are_internally_consistent(self, tmp_path):
        out = tmp_path / "wf.csv"
        proc = run_cli("wf", "--out", str(out))
        assert proc.returncode == 0
        digest, payload, manifest = read_emitted(out)
        assert out.read_text().startswith(f"# manifest: {digest}\n")
        assert manifest["subcommand"] == "wf"
        assert manifest["version"] == __version__
        assert manifest["parameters"]["spectrum"] == "1.0:1.0"  # canonical literal
        assert manifest["outputs"]["csv"] == sha256_hex(payload.encode())
        assert manifest_digest(manifest) == digest
        assert Path(f"{out}.manifest.json").read_text() == canonical_json(manifest) + "\n"

    def test_svg_digest_recorded(self, tmp_path):
        out = tmp_path / "wf.csv"
        svg = tmp_path / "wf-plot.svg"
        assert run_cli("wf", "--svg", str(svg), "--out", str(out)).returncode == 0
        _, _, manifest = read_emitted(out)
        assert manifest["outputs"]["svg"] == sha256_hex(svg.read_bytes())

    @pytest.mark.parametrize("args,name", [
        (["wf", "--svg", "{out}"], "run.csv"),
        (["rdrc", "--svg", "{out}"], "run.csv"),
        (["gap-sweep", "--kmax", "1", "--svg", "{out}"], "run.csv"),
        (["gap-sweep", "--kmax", "1"], "run.svg"),  # the SVG defaults to <out> with .svg
        (["wf", "--svg", "{out}.manifest.json"], "run.csv"),
    ], ids=["wf", "rdrc", "gap-sweep", "gap-sweep-default-svg", "wf-manifest"])
    def test_svg_path_that_out_writes_exits_two(self, tmp_path, args, name):
        # The CSV or its manifest would overwrite the plot whose digest the
        # manifest records.
        out = tmp_path / name
        proc = run_cli(*(a.format(out=out) for a in args), "--out", str(out))
        assert proc.returncode == 2
        assert "would be overwritten by --out" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_stdout_mode_omits_comment(self):
        proc = run_cli("wf", "--distortion-grid", "0.5:0.5:1")
        assert not proc.stdout.startswith("#")


class TestDeterminism:
    def test_wf_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("wf", "--spectrum", TWO_LEVEL_LITERAL, "--out", str(a))
        run_cli("wf", "--spectrum", TWO_LEVEL_LITERAL, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert Path(f"{a}.manifest.json").read_bytes() == Path(f"{b}.manifest.json").read_bytes()

    def test_simulate_rerun_identical_across_thread_counts(self, tmp_path):
        args = ["simulate", "--mode", "scheme", "--n", "8", "--trials", "64", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b), env_extra={"RDGAP_THREADS": "2"})
        assert a.read_bytes() == b.read_bytes()

    def test_gap_sweep_rerun_identical_across_thread_counts(self, tmp_path):
        args = ["gap-sweep", "--dstar-grid", "0.2:0.4:0.1", "--kmax", "1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pa = run_cli(*args, "--out", str(a))
        pb = run_cli(*args, "--out", str(b), env_extra={"RDGAP_THREADS": "2"})
        assert pa.returncode == pb.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"spectrum": "semiflat:0.5", "distortion-grid": "0.25:0.75:0.25"}))
        proc = run_cli("wf", "--config", str(cfg))
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 + 3
        assert "0.5,1.0,0.25" in lines

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"spectrum": "semiflat:0.5", "distortion-grid": "0.5:0.5:1"}))
        proc = run_cli("wf", "--spectrum", "flat", "--config", str(cfg))
        assert proc.stdout == "d_star,t,rate_bits\n0.5,0.5,0.5\n"

    def test_unknown_key_rejected(self, tmp_path):
        # A key the subcommand does not take, such as a stale "rotation" or
        # "codebook_cap", is refused.
        cfg = tmp_path / "run.json"
        for command, key in ((["wf"], "spectrums"), (["simulate", "--mode", "scheme"], "rotation"),
                             (["simulate", "--mode", "scheme"], "codebook_cap")):
            cfg.write_text(json.dumps({key: "flat"}))
            proc = run_cli(*command, "--config", str(cfg))
            assert proc.returncode == 2
            assert f"unknown config key {key!r}" in proc.stderr and proc.stdout == ""

    def test_config_key_config_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"config": "other.json"}))
        proc = run_cli("wf", "--config", str(cfg))
        assert proc.returncode == 2
        assert "unknown config key 'config'" in proc.stderr

    @pytest.mark.parametrize("mode,key", [("coupling", "t"), ("filter", "T")])
    def test_config_supplies_t_and_T(self, tmp_path, mode, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 0.25, "n": 4, "trials": 8}))
        proc = run_cli("simulate", "--mode", mode, "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        row = next(csv.DictReader(proc.stdout.splitlines()))
        assert row[key] == "0.25"

    def test_unreadable_config_rejected(self, tmp_path):
        proc = run_cli("wf", "--config", str(tmp_path / "missing.json"))
        assert proc.returncode == 2

    def test_config_string_is_converted_like_the_flag(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"compare": "false", "distortion-grid": "0.5:0.5:1"}))
        out = tmp_path / "wf.csv"
        assert run_cli("wf", "--config", str(cfg), "--out", str(out)).returncode == 0
        assert read_emitted(out)[2]["parameters"]["compare"] is False

    @pytest.mark.parametrize("command,key", [
        (["gap-sweep"], "kmax"),
        (["simulate", "--mode", "scheme"], "n"),
    ], ids=["kmax", "n"])
    def test_bad_config_value_is_a_usage_error(self, tmp_path, command, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: "abc"}))
        proc = run_cli(*command, "--config", str(cfg))
        assert proc.returncode == 2
        assert f"Invalid value for '--{key}'" in proc.stderr

    @pytest.mark.parametrize("command,config,key", [
        (["simulate", "--mode", "filter", "--T", "1"], {"seed": 1.5, "n": 8.9}, "seed"),
        (["gap-sweep", "--dstar-grid", "0.3:0.3:1"], {"kmax": 2.7}, "kmax"),
        (["simulate", "--mode", "filter", "--T", "1"], {"n": True, "trials": 8}, "n"),
        (["gap-sweep", "--dstar-grid", "0.3:0.3:1"], {"kmax": False}, "kmax"),
    ], ids=["simulate", "gap-sweep", "simulate-bool", "gap-sweep-bool"])
    def test_float_for_integer_option_is_a_usage_error(self, tmp_path, command, config, key):
        # click's INT would truncate 1.5 to 1 and 2.7 to 2, and read true as 1.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        proc = run_cli(*command, "--config", str(cfg))
        assert proc.returncode == 2
        assert f"Invalid value for '--{key}'" in proc.stderr and proc.stdout == ""

    def test_config_float_string_matches_the_flag(self, tmp_path):
        # --mode, although required, may come from the config too.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mode": "scheme", "tau_delta": "0.1"}))
        args = ["simulate", "--n", "8", "--trials", "32"]
        proc = run_cli(*args, "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(*args, "--mode", "scheme", "--tau-delta", "0.1").stdout


class TestGapSweepCommand:
    def test_kmax_one_stdout(self):
        proc = run_cli("gap-sweep", "--dstar-grid", "0.25:0.35:0.05", "--kmax", "1")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "d_star,rate_rc_bits,rate_wf_bits,gap_bits,levels,weights"
        data = lines[1:-1]
        assert len(data) == 3
        assert all(row.split(",")[3] == "0.000000" for row in data)
        assert lines[-1].startswith("global max gap_bits = 0.000000 at d_star = ")

    def test_positive_gap_reported(self, tmp_path):
        out = tmp_path / "g.csv"
        proc = run_cli("gap-sweep", "--dstar-grid", "0.3:0.3:1", "--kmax", "2", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == "global max gap_bits = 0.093964 at d_star = 0.3\n"
        digest, payload, manifest = read_emitted(out)
        assert manifest["parameters"] == {"dstar_grid": "0.3:0.3:1", "kmax": 2, "seed": 0}
        assert payload.splitlines()[1].split(",")[3] == "0.093964"

    def test_seed_is_recorded_but_unused(self, tmp_path):
        # The search is deterministic: --seed only reaches the manifest.
        outs = [tmp_path / f"g{seed}.csv" for seed in (0, 7)]
        for seed, out in zip((0, 7), outs):
            args = ["--dstar-grid", "0.3:0.3:1", "--kmax", "2", "--seed", str(seed)]
            assert run_cli("gap-sweep", *args, "--out", str(out)).returncode == 0
        (_, payload0, _), (_, payload7, manifest7) = (read_emitted(out) for out in outs)
        assert payload0 == payload7
        assert manifest7["parameters"]["seed"] == 7

    def test_stdout_bytes(self):
        # The whole stdout, every CSV digit included, at two k_max = 2 points.
        proc = run_cli("gap-sweep", "--dstar-grid", "0.3:0.5:0.2", "--kmax", "2")
        assert proc.returncode == 0
        assert proc.stdout == (
            "d_star,rate_rc_bits,rate_wf_bits,gap_bits,levels,weights\n"
            "0.3,0.3458777060203822,0.25191356763871126,0.093964,"
            "5.344170214328409;0.27156300872170225,0.14360208897569732;0.8563979110243027\n"
            "0.5,0.23086002041376408,0.14993398976566635,0.080926,"
            "5.371049358555652;0.4625254166503555,0.10949820958620363;0.8905017904137964\n"
            "global max gap_bits = 0.093964 at d_star = 0.3\n"
        )

    def test_grid_outside_bounds_rejected(self):
        assert run_cli("gap-sweep", "--dstar-grid", "9.9e-9:0.5:0.1").returncode == 2
        assert run_cli("gap-sweep", "--kmax", "0").returncode == 2

    @pytest.mark.parametrize("d_star", ["9.9e-9", "0.9995", "1.0"])
    def test_outside_the_search_domain_exits_two(self, d_star):
        proc = run_cli("gap-sweep", "--dstar-grid", f"{d_star}:{d_star}:1", "--kmax", "2")
        assert proc.returncode == 2
        assert "d_star must lie in [1e-8, 0.999]" in proc.stderr

    @pytest.mark.parametrize("d_star", [1e-8, 1e-4, 0.999])
    def test_search_domain_ends_are_accepted(self, d_star):
        # The row of each end of the domain is the sweep's, which converged there.
        for kmax in (2, 5):
            proc = run_cli("gap-sweep", "--dstar-grid", f"{d_star!r}:{d_star!r}:1",
                           "--kmax", str(kmax))
            assert proc.returncode == 0
            res = gapopt.sweep([d_star], kmax, threads=1)
            assert res.diagnostics[0].converged == 1
            assert proc.stdout.splitlines()[1:-1] == gapopt.sweep_csv_rows(res)


class TestSimulateCommand:
    def _row(self, proc):
        lines = proc.stdout.splitlines()
        header = lines[0].split(",")
        row = next(csv.reader([lines[1]]))
        return dict(zip(header, row))

    def test_scheme_row_masks_unrelated_fields(self):
        proc = run_cli(
            "simulate", "--mode", "scheme", "--n", "8", "--trials", "32",
            "--spectrum", TWO_LEVEL_LITERAL,
        )
        assert proc.returncode == 0
        row = self._row(proc)
        assert row["mode"] == "scheme"
        assert row["rate_bits"] == "1.0"
        assert row["spectrum"] == TWO_LEVEL_LITERAL  # quoted comma survives csv round-trip
        assert row["t"] == row["T"] == row["eta"] == row["w_batches"] == ""
        assert row["p_hat"] == row["exponent"] == ""
        assert float(row["mean"]) > float(row["analytic"])

    def test_success_row_reports_interval_and_exponent(self):
        proc = run_cli(
            "simulate", "--mode", "success", "--n", "10", "--rate", "0.5",
            "--trials", "64", "--eta", "0.05", "--w-batches", "16",
        )
        row = self._row(proc)
        assert row["mode"] == "success"
        assert row["eta"] == "0.05" and row["w_batches"] == "16"
        assert row["exponent_is_lower_bound"] == "false"
        assert 0.0 < float(row["wilson_low"]) < float(row["p_hat"]) < float(row["wilson_high"])
        assert float(row["exponent"]) > 0.0

    @pytest.mark.parametrize("args,row", [
        (["--mode", "scheme", "--n", "8", "--trials", "32", "--spectrum", TWO_LEVEL_LITERAL],
         'scheme,8,1.0,,,"1.8:0.5,0.2:0.5",32,0,,,,,0.23154822874728936,'
         "0.020265920101201675,0.15811388300839202,,,,,false"),
        # trials echoes the option (64), not the report's 64 x 16 codeword draws
        (["--mode", "success", "--n", "10", "--rate", "0.5", "--trials", "64", "--eta", "0.05",
          "--w-batches", "16"],
         "success,10,0.5,,,1.0:1.0,64,0,,,0.05,16,0.0126953125,0.004559616222628419,"
         "0.5,0.0126953125,0.007434044913652255,0.021599089101911852,0.6299560281858908,false"),
        # p_hat = 1: the exponent -log2(1)/n reads 0.0, not -0.0
        (["--mode", "success", "--rate", "0", "--n", "4", "--trials", "8", "--w-batches", "2"],
         "success,4,0.0,,,1.0:1.0,8,0,,,0.0,2,1.0,0.0,0.0,1.0,0.8063923194655637,1.0,"
         "0.0,false"),
        (["--mode", "coupling", "--t", "0.25", "--n", "16", "--trials", "64"],
         "coupling,16,,0.25,,1.0:1.0,64,0,,,,,0.25844392984032855,0.010985343987089303,0.25,"
         ",,,,false"),
        # n = 20 gives the two levels 1 and 19 coordinates
        (["--mode", "filter", "--T", "1", "--n", "20", "--trials", "16",
          "--spectrum", "10.5:0.05,0.5:0.95"],
         'filter,20,,,1.0,"10.5:0.05,0.5:0.95",16,0,,,,,0.3475661637925903,0.020105708560315818,'
         "0.36231884057971014,,,,,false"),
    ], ids=["scheme", "success", "success-rate-zero", "coupling", "filter"])
    def test_row_bytes(self, args, row):
        proc = run_cli("simulate", *args)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [HEADER_SIMULATE, row]

    def test_level_n_cannot_place_exits_two(self):
        # At n = 4 the level 10.5 of weight 0.05 gets no coordinate.
        proc = run_cli("simulate", "--mode", "filter", "--T", "1", "--n", "4", "--trials", "16",
                       "--spectrum", "10.5:0.05,0.5:0.95")
        assert proc.returncode == 2
        assert "levels [0] receive zero dimensions at n=4" in proc.stderr
        assert proc.stdout == ""

    def test_coupling_requires_t(self):
        proc = run_cli("simulate", "--mode", "coupling")
        assert proc.returncode == 2
        assert "--t is required" in proc.stderr

    def test_filter_requires_T(self):
        proc = run_cli("simulate", "--mode", "filter")
        assert proc.returncode == 2
        assert "--T is required" in proc.stderr

    def test_infinite_T_exits_two(self):
        proc = run_cli("simulate", "--mode", "filter", "--spectrum", "1:1", "--T", "inf",
                       "--n", "4", "--trials", "8")
        assert proc.returncode == 2
        assert "T must be positive and finite" in proc.stderr

    @pytest.mark.parametrize("args", [
        ["--mode", "scheme", "--tau-delta", "inf"],
        ["--mode", "success", "--eta", "0.05", "--w-batches", "2", "--tau-delta", "inf"],
        ["--mode", "scheme", "--tau-delta", "1e-320"],
    ], ids=["scheme-inf", "success-inf", "scheme-reciprocal-overflows"])
    def test_tau_delta_without_finite_reciprocal_exits_two(self, args):
        proc = run_cli("simulate", "--n", "8", "--trials", "16", *args)
        assert proc.returncode == 2
        assert "tau_delta must be positive and finite" in proc.stderr
        assert proc.stdout == ""

    def test_coupling_row(self):
        proc = run_cli("simulate", "--mode", "coupling", "--t", "0.25", "--n", "16", "--trials", "64")
        row = self._row(proc)
        assert row["t"] == "0.25"
        assert row["rate_bits"] == row["T"] == ""
        assert row["analytic"] == "0.25"

    def test_mode_required(self):
        assert run_cli("simulate").returncode == 2

    def test_non_integer_thread_count_names_the_variable(self):
        # The one-point sweep would run without a pool: the count is still
        # resolved.  Scheme mode reads no worker count, so it runs.
        bad = {"RDGAP_THREADS": "abc"}
        for args in (["simulate", "--mode", "filter", "--T", "1", "--n", "4", "--trials", "8"],
                     ["gap-sweep", "--dstar-grid", "0.1:0.1:1", "--kmax", "1"]):
            proc = run_cli(*args, env_extra=bad)
            assert proc.returncode == 2, args
            assert "RDGAP_THREADS must be an integer, got 'abc'" in proc.stderr
        proc = run_cli("simulate", "--mode", "scheme", "--n", "4", "--trials", "8", env_extra=bad)
        assert proc.returncode == 0, proc.stderr

    def test_invalid_run_config_exits_two(self):
        # click quotes the unknown option differently across versions.
        for args, words in ((["--rate", "0"], ["scheme mode needs rate_bits > 0"]),
                            (["--rotation", "haar"], ["No such option", "--rotation"]),
                            (["--codebook-cap", "5"], ["No such option", "--codebook-cap"])):
            proc = run_cli("simulate", "--mode", "scheme", "--n", "8", *args)
            assert proc.returncode == 2
            assert all(w in proc.stderr for w in words) and proc.stdout == ""

    @pytest.mark.parametrize("args,n,message", [
        (["--mode", "scheme"], "2000", "n * rate_bits must be <= 26, got 2000.0"),
        (["--mode", "success", "--eta", "0.05"], "27", "n * rate_bits must be <= 26, got 27.0"),
        *((args, str(n), f"n must lie in [1, {2**39}], got {n}")
          for args in (["--mode", "scheme"], ["--mode", "coupling", "--t", "0.3"],
                       ["--mode", "filter", "--T", "1"])
          for n in (2**63, 10**400)),
    ], ids=["scheme-book", "success-book", "scheme-2**63", "scheme-10**400", "coupling-2**63",
            "coupling-10**400", "filter-2**63", "filter-10**400"])
    def test_n_out_of_range_exits_two(self, args, n, message):
        # A coded run refuses a book past n R = 26, and every mode an n past
        # 2^39, as usage errors, not tracebacks.
        proc = run_cli("simulate", *args, "--n", n, "--trials", "2")
        assert proc.returncode == 2
        assert message in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("mode,level", [("coupling", "--t"), ("filter", "--T")])
    def test_seed_outside_64_bits_exits_two(self, mode, level, seed):
        # The same seed domain as scheme and success, which SimConfig checks.
        proc = run_cli("simulate", "--mode", mode, level, "0.3", "--n", "4", "--trials", "8",
                       "--seed", seed)
        assert proc.returncode == 2
        assert "seed must be a 64-bit unsigned integer" in proc.stderr

    @pytest.mark.parametrize("args,message", [
        (["--mode", "success", "--rate", "nan", "--w-batches", "2"],
         "rate_bits must be nonnegative"),
        (["--mode", "scheme", "--rate", "inf"], "rate_bits must be nonnegative and finite"),
        (["--mode", "scheme", "--tau-threshold", "nan"],
         "tau_threshold must be nonnegative when given"),
        (["--mode", "success", "--eta", "inf", "--w-batches", "2"],
         "eta must be nonnegative and finite"),
    ], ids=["rate", "rate-inf", "tau-threshold", "eta-inf"])
    def test_nan_option_exits_two(self, args, message):
        proc = run_cli("simulate", *args, "--n", "4", "--trials", "8")
        assert proc.returncode == 2
        assert message in proc.stderr

    @pytest.mark.parametrize("mode,level", [("coupling", "--t"), ("filter", "--T")])
    def test_zero_trials_exits_two(self, mode, level):
        proc = run_cli("simulate", "--mode", mode, level, "0.3", "--trials", "0")
        assert proc.returncode == 2
        assert "trials must be positive" in proc.stderr
