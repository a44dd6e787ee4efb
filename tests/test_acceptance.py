"""Acceptance gate: every shipped guarantee, one PASS/FAIL line each.

Each test exercises one contract at its stated tolerance and prints
``ACCEPTANCE <n>: PASS|FAIL - <description>`` so a log scan shows the
whole gate at a glance.  Tolerances are frozen here; committed fixtures
(golden sweep CSV, pilot runs) pin the random pieces exactly.
"""

import contextlib
import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rdgap import gapopt, rdrc, simulator, spectra, waterfill
from rdgap.cli import _parse_grid
from rdgap.errors import KinkError
from rdgap._manifest import split_manifest_comment

FIXTURES = Path(__file__).parent / "fixtures"


@contextlib.contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {desc}")


def test_criterion_1_gaussian_closed_form():
    with criterion(1, "flat-spectrum curves match 2^(-2R) within 1e-10"):
        flat = spectra.flat()
        for rate in (0.25, 0.5, 1.0, 2.0, 4.0):
            target = 2.0 ** (-2.0 * rate)
            assert abs(waterfill.dd_wf(flat, rate) - target) < 1e-10
            assert abs(rdrc.dd_rc(flat, rate) - target) < 1e-10


def test_criterion_2_semi_flat_gap_vanishes():
    with criterion(2, "gap vanishes on semi-flat spectra (|gap| < 1e-9)"):
        for fraction in (0.1, 0.25, 0.5, 0.75, 1.0):
            s = spectra.semi_flat(fraction)
            for i in range(1, 20):
                d_star = 0.05 * i
                assert abs(gapopt.gap_at(s, d_star).gap_bits) < 1e-9


def test_criterion_3_worst_case_gap_sweep():
    with criterion(3, "full sweep: max gap positive, < 0.11 bits, at small "
                      "distortion, matching the golden fixture"):
        grid = _parse_grid("0.005:0.995:0.005")
        result = gapopt.sweep(grid, 5)

        assert all(d.restarts >= 64 for d in result.diagnostics)
        assert 0.0 < result.best.gap_bits < 0.11
        median = sorted(grid)[len(grid) // 2]
        assert result.best.d_star < median

        _, payload = split_manifest_comment(
            (FIXTURES / "gap_sweep_kmax5_seed0.csv").read_text()
        )
        golden = payload.splitlines()
        rows = gapopt.sweep_csv_rows(result)
        assert golden[0] == gapopt.SWEEP_CSV_HEADER
        assert len(golden) == 1 + len(rows) == 200
        for fresh_row, golden_row in zip(rows, golden[1:]):
            fresh, gold = fresh_row.split(","), golden_row.split(",")
            assert fresh[0] == gold[0]  # d_star written via repr
            for a, b in zip(fresh[1:4], gold[1:4]):
                assert abs(float(a) - float(b)) < 1e-9
            for field in (4, 5):  # level values / weights, ';'-separated
                fa = [float(x) for x in fresh[field].split(";")]
                fb = [float(x) for x in gold[field].split(";")]
                assert len(fa) == len(fb)
                assert all(abs(x - y) < 1e-9 for x, y in zip(fa, fb))


def test_criterion_4_gap_nonnegative_on_random_spectra():
    with criterion(4, "gap >= -1e-9 on 1000 random spectra x 10 distortions"):
        d_grid = [0.05 + 0.1 * i for i in range(10)]
        for seed in range(1000):
            s = spectra.sample_random(1 + seed % 8, seed)
            for d_star in d_grid:
                assert gapopt.gap_at(s, d_star).gap_bits >= -1e-9


def test_criterion_5_gradients_and_sensitivity():
    with criterion(5, "gradients match central differences (rel 1e-5, 200 "
                      "instances); eigen-sensitivity within [0, 2+1e-6]"):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
        checked = 0
        seed = 0
        while checked < 200:
            seed += 1
            s = spectra.sample_random(2 + seed % 6, seed)
            d_star = float(rng.uniform(0.05, 0.95))
            t = waterfill.t_for_distortion(s, d_star)
            if min(abs(v - t) for v in s.values) < 1e-3 * t:
                continue
            try:
                g_wf, g_rc = gapopt.grad_rates(s, d_star)
            except KinkError:
                continue
            u = rng.standard_normal(s.k)
            u = u - float(np.dot(s.weights, u))
            u = u / float(np.max(np.abs(u)))
            dot_wf = float(np.dot(g_wf, u))
            dot_rc = float(np.dot(g_rc, u))
            if min(abs(dot_wf), abs(dot_rc)) < 1e-2:
                continue

            def rates(h):
                try:
                    sp = spectra.Spectrum(
                        tuple(v + h * du for v, du in zip(s.values, u)), s.weights
                    )
                    sm = spectra.Spectrum(
                        tuple(v - h * du for v, du in zip(s.values, u)), s.weights
                    )
                except ValueError:
                    return None
                rp, rm = gapopt.gap_at(sp, d_star), gapopt.gap_at(sm, d_star)
                return (
                    (rp.rate_wf_bits - rm.rate_wf_bits) / (2.0 * h),
                    (rp.rate_rc_bits - rm.rate_rc_bits) / (2.0 * h),
                )

            a, b = rates(1e-4), rates(5e-5)
            if a is None or b is None:
                continue
            fd_wf = (4.0 * b[0] - a[0]) / 3.0
            fd_rc = (4.0 * b[1] - a[1]) / 3.0
            assert abs(fd_wf - dot_wf) < 1e-5 * abs(dot_wf)
            assert abs(fd_rc - dot_rc) < 1e-5 * abs(dot_rc)
            checked += 1

        for seed in range(50):
            s = spectra.sample_random(2 + seed % 5, seed)
            for rate in (0.2, 1.0, 3.0):
                for j in range(s.k):
                    sens = rdrc.dd_rc_eigen_sensitivity(s, rate, j)
                    assert 0.0 <= sens <= 2.0 + 1e-6


def test_criterion_6_exact_expectation_simulations():
    with criterion(6, "coupling and MMSE filter within 4 SE on 20 pairs each "
                      "(n=64, 5000 trials)"):
        start = time.monotonic()
        n, trials = 64, 5000
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(640)))
        d_targets = (0.1, 0.25, 0.5, 0.75, 0.9)
        for pair in range(20):
            # eigenvalues drawn per pair; from_eigenvalues keeps weights as
            # exact multiples of 1/n so the spectrum expands to n losslessly
            lams = np.exp(rng.normal(0.0, 1.0, size=n))
            s = spectra.from_eigenvalues(lams)
            d_star = d_targets[pair % len(d_targets)]

            t = waterfill.t_for_distortion(s, d_star)
            rep = simulator.simulate_wf_coupling(s, t, n, trials, seed=pair)
            assert abs(rep.mean - rep.analytic) < 4.0 * rep.se
            assert abs(rep.analytic - d_star) < 1e-9

            T = rdrc.t_rc_for_distortion(s, d_star)
            rep = simulator.simulate_mmse_filter(s, T, n, trials, seed=1000 + pair)
            assert abs(rep.mean - rep.analytic) < 4.0 * rep.se
            assert abs(rep.analytic - d_star) < 1e-9
        assert time.monotonic() - start < 30.0


def test_criterion_7_success_exponent():
    with criterion(7, "success exponent within 0.15 of the rate on >= 1e6 "
                      "draws, pinned to the committed pilot"):
        pilot = json.loads((FIXTURES / "pilot_success.json").read_text())
        cfg = simulator.SimConfig(
            n=pilot["n"],
            rate_bits=pilot["rate_bits"],
            spectrum=spectra.flat(),
            trials=pilot["trials"],
            seed=pilot["seed"],
            eta=pilot["eta"],
            w_batches=pilot["w_batches"],
        )
        assert cfg.trials * cfg.w_batches >= 10**6
        rep = simulator.estimate_codeword_success(cfg)
        assert rep.trials == pilot["total_draws"]
        assert rep.p_hat == pilot["p_hat"]
        assert rep.exponent == pilot["exponent"]
        assert not rep.exponent_is_lower_bound
        assert abs(rep.exponent - pilot["rate_bits"]) <= 0.15
        # the quadrature value the pilot was audited against
        assert abs(pilot["exact_exponent"] - pilot["rate_bits"]) <= 0.15
        assert pilot["wilson_low"] <= pilot["exact_p"] <= pilot["wilson_high"]


def test_criterion_8_scheme_excess_shrinks_with_n():
    with criterion(8, "scheme distortion exceeds the analytic curve and the "
                      "excess decreases in n (8, 12, 16)"):
        pilot = json.loads((FIXTURES / "pilot_scheme_trend.json").read_text())
        assert pilot["trials"] >= 500
        excesses = []
        for point in pilot["points"]:
            cfg = simulator.SimConfig(
                n=point["n"],
                rate_bits=pilot["rate_bits"],
                spectrum=spectra.flat(),
                trials=pilot["trials"],
                seed=pilot["seed"],
            )
            rep = simulator.run_universal_scheme(cfg)
            assert rep.mean == point["mean"]
            assert rep.se == point["se"]
            assert rep.analytic == 0.25
            assert rep.mean > rep.analytic
            excesses.append(rep.mean - rep.analytic)
        assert [p["n"] for p in pilot["points"]] == [8, 12, 16]
        assert excesses[0] > excesses[1] > excesses[2]


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI subcommand reruns byte-identical, including "
                      "under forced parallelism"):
        cases = [
            ("wf", ["wf", "--spectrum", "1.8:0.5,0.2:0.5"]),
            ("rdrc", ["rdrc", "--compare", "--svg", "SVGPATH"]),
            ("gap-sweep", ["gap-sweep", "--dstar-grid", "0.1:0.3:0.1", "--kmax", "2"]),
            ("simulate-scheme", ["simulate", "--mode", "scheme", "--n", "8", "--trials", "128"]),
            ("simulate-success", ["simulate", "--mode", "success", "--n", "10",
                                  "--rate", "0.5", "--trials", "64", "--eta", "0.05",
                                  "--w-batches", "32"]),
            ("simulate-coupling", ["simulate", "--mode", "coupling", "--t", "0.25"]),
            ("simulate-filter", ["simulate", "--mode", "filter", "--T", "3.0"]),
        ]
        for name, args in cases:
            digests, bodies = [], []
            for variant, threads in (("a", None), ("b", None), ("c", "2")):
                out = tmp_path / f"{name}-{variant}.csv"
                run_args = [
                    a if a != "SVGPATH" else str(tmp_path / f"{name}-{variant}.svg")
                    for a in args
                ]
                env = dict(os.environ)
                if threads:
                    env["RDGAP_THREADS"] = threads
                proc = subprocess.run(
                    [sys.executable, "-m", "rdgap.cli", *run_args, "--out", str(out)],
                    capture_output=True, text=True, env=env,
                )
                assert proc.returncode == 0, proc.stderr
                digest, payload = split_manifest_comment(out.read_text())
                digests.append(digest)
                bodies.append(payload)
            assert digests[0] == digests[1] == digests[2]
            assert bodies[0] == bodies[1] == bodies[2]

        version_runs = {
            subprocess.run(
                [sys.executable, "-m", "rdgap.cli", "version"],
                capture_output=True, text=True,
            ).stdout
            for _ in range(2)
        }
        assert len(version_runs) == 1
