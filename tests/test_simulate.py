import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from rdgap import _parallel, rdrc, simulator, spectra, waterfill
from rdgap.errors import SolverError
from rdgap.simulator import STREAM_TRIAL, SimConfig

FLAT = spectra.flat()
TWO_LEVEL = spectra.parse_spectrum("1.8:0.5,0.2:0.5")


def _numpy_rng(seed, stream, unit):
    """The substream of the randomness contract, built by numpy itself."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, unit))
    return np.random.Generator(np.random.Philox(ss))


def _cfg(**kw):
    base = dict(n=8, rate_bits=1.0, spectrum=FLAT, trials=64, seed=3)
    base.update(kw)
    return SimConfig(**base)


def _no_pool(method=None):
    raise AssertionError("started a process pool")


def _no_draw(*_args):
    raise AssertionError("drew from a substream")


class TestUnitRngs:
    @pytest.mark.parametrize("start", [0, 2**32 - 40], ids=["first", "last"])
    @pytest.mark.parametrize("stream", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 2026, 2**32 + 5, 2**64 - 1])
    def test_matches_numpy_seed_sequence(self, seed, stream, start):
        keys = simulator._unit_keys(seed, stream, start, 40)
        for i, rng in enumerate(simulator._unit_rngs(seed, stream, start, 40)):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, start + i))
            assert np.array_equal(keys[i], ss.generate_state(2, np.uint64))
            expected = _numpy_rng(seed, stream, start + i).standard_normal(5)
            assert np.array_equal(rng.standard_normal(5), expected)

    @pytest.mark.parametrize(
        "seed,start,count,message",
        [
            (-1, 0, 1, "seed must be a 64-bit unsigned integer"),
            (2**64, 0, 1, "seed must be a 64-bit unsigned integer"),
            (0, -1, 1, "unit indices"),
            (0, 2**32 - 1, 2, "unit indices"),
        ],
    )
    def test_domain(self, seed, start, count, message):
        with pytest.raises(ValueError, match=message):
            next(simulator._unit_rngs(seed, STREAM_TRIAL, start, count))


class TestSimConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n": 0},
            {"rate_bits": -0.5},
            {"rate_bits": math.nan},
            {"rate_bits": math.inf},  # codebook_size would overflow
            {"trials": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"tau_delta": 0.0},
            {"tau_delta": -1.0},
            {"tau_delta": math.inf},  # the quantizer's inf * floor(0.5) is nan
            {"tau_delta": math.nan},
            {"tau_delta": 1e-320},  # 1 / tau_delta overflows
            {"tau_threshold": -0.1},
            {"tau_threshold": math.nan},
            {"codebook_cap": 0},
            {"eta": -0.01},
            {"eta": math.nan},
            {"eta": math.inf},  # a success run would report p_hat 1.0 and exponent 0.0
            {"w_batches": 0},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            _cfg(**kw)

    def test_codebook_size(self):
        assert _cfg(n=4, rate_bits=1.5).codebook_size == 64
        assert _cfg(n=3, rate_bits=0.0).codebook_size == 1
        assert _cfg(n=3, rate_bits=0.5).codebook_size == 2  # floor(2^1.5)

    def test_codebook_size_past_float_range(self):
        # 2.0 ** (n R) overflows past n R = 1024; the size is still exact for
        # whole bits and equal to the float formula below that.
        assert _cfg(n=2000, rate_bits=1.0).codebook_size == 2**2000
        assert _cfg(n=1025, rate_bits=1.0).codebook_size == 2**1025
        for n, rate in ((1023, 1.0), (2047, 0.5), (10, 0.75), (200, 1.3)):
            assert _cfg(n=n, rate_bits=rate).codebook_size == math.floor(2.0 ** (n * rate))
        with pytest.raises(ValueError, match="exceeds codebook_cap"):
            simulator.build_codebook(_cfg(n=2000, rate_bits=1.0))

    def test_tau_threshold_zero_allowed(self):
        assert _cfg(tau_threshold=0.0).tau_threshold == 0.0


class TestIntegerArguments:
    """Counts and seeds are read by operator.index: a float or a bool raises
    ValueError instead of being truncated, and a numpy integer passes."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: next(simulator._unit_rngs(1.5, STREAM_TRIAL, 0, 1)), id="unit-seed"),
        pytest.param(lambda: next(simulator._unit_rngs(0, STREAM_TRIAL, 0.5, 1)), id="unit-start"),
        *(pytest.param(lambda name=name: _cfg(**{name: 8.5}), id=f"config-{name}")
          for name in ("n", "trials", "seed", "codebook_cap", "w_batches")),
        *(pytest.param(lambda name=name: _cfg(**{name: True}), id=f"config-{name}-bool")
          for name in ("n", "trials", "seed", "codebook_cap", "w_batches")),
        pytest.param(lambda: _cfg(seed=False), id="config-seed-false"),
        pytest.param(lambda: simulator.simulate_mmse_filter(FLAT, 1.0, 4, 300.5, 0, 1),
                     id="trials"),
        pytest.param(lambda: simulator.simulate_mmse_filter(FLAT, 1.0, 4, 8, 1.5, 1), id="seed"),
        pytest.param(lambda: simulator.simulate_mmse_filter(FLAT, 1.0, 4, 8, -0.5, 1),
                     id="negative-seed"),
        pytest.param(lambda: simulator.simulate_wf_coupling(FLAT, 0.5, 4.5, 8, 0, 1), id="n"),
        pytest.param(lambda: simulator.simulate_wf_coupling(FLAT, 0.5, 4, True, 0, 1),
                     id="trials-bool"),
    ])
    def test_float_rejected(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_numpy_integers_pass(self):
        cfg = _cfg(n=np.int64(8), trials=np.int32(64), seed=np.uint64(3))
        assert cfg == _cfg() and type(cfg.seed) is int


class TestBuildCodebook:
    def test_shape_and_determinism(self):
        cfg = _cfg(n=5, rate_bits=1.0)
        cb = simulator.build_codebook(cfg)
        assert cb.shape == (32, 5)
        assert not cb.flags.writeable
        assert np.array_equal(cb, simulator.build_codebook(cfg))

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            simulator.build_codebook(_cfg(n=30, rate_bits=1.0))
        # equality with the cap is allowed
        cb = simulator.build_codebook(_cfg(n=10, rate_bits=1.0, codebook_cap=1024))
        assert cb.shape == (1024, 10)

    def test_cap_checked_first_without_overflow(self, monkeypatch):
        # 2^2000 codewords overflow a float; the cap is compared in the log
        # domain, before the run's state is built or anything is drawn.
        def no_state(config):
            raise AssertionError("state built before the cap check")

        monkeypatch.setattr(simulator, "_scaling_state", no_state)
        monkeypatch.setattr(simulator, "_unit_rngs", _no_draw)
        cfg = _cfg(n=2000, rate_bits=1.0, trials=2)
        with pytest.raises(ValueError, match="exceeds codebook_cap"):
            simulator.run_universal_scheme(cfg)


class TestUniversalScheme:
    def test_rate_zero_rejected(self):
        with pytest.raises(ValueError):
            simulator.run_universal_scheme(_cfg(rate_bits=0.0))

    @pytest.mark.parametrize("T, den", [(1.0, 1e-30), (math.nan, 1.0)])
    def test_tau_out_of_range_raises(self, T, den):
        # A raised error, not an assert, so the check survives python -O.
        state = {"n": 4, "seed": 0, "lam": np.ones(4), "T": T,
                 "alam2": np.ones(4), "den": den, "threshold": None, "delta": None}
        with pytest.raises(SolverError):
            simulator._scheme_trials((state, 0, 3))

    def test_mean_exceeds_analytic_at_small_n(self):
        rep = simulator.run_universal_scheme(_cfg(n=8, trials=512, seed=11))
        assert rep.mode == "scheme"
        assert rep.analytic == 0.25
        assert rep.mean > rep.analytic
        assert 0.0 < rep.se < 0.05
        assert rep.trials == 512

    def test_matches_committed_trend_point(self, pilot_scheme_trend):
        entry = next(e for e in pilot_scheme_trend["points"] if e["n"] == 8)
        rep = simulator.run_universal_scheme(
            _cfg(
                n=8,
                trials=pilot_scheme_trend["trials"],
                seed=pilot_scheme_trend["seed"],
            )
        )
        assert rep.mean == entry["mean"]
        assert rep.se == entry["se"]

    def test_threshold_zero_disables_quantizer(self):
        # tau_threshold = 0 zeroes the scaling for every realization, so the
        # reconstruction is 0 whichever codeword wins, and the re-scored
        # value is the weighted energy of the source itself.
        cfg = _cfg(n=6, trials=16, tau_threshold=0.0, seed=21)
        rep = simulator.run_universal_scheme(cfg)
        lam = spectra.expand_to_n(cfg.spectrum, cfg.n)
        w = np.stack(
            [_numpy_rng(cfg.seed, STREAM_TRIAL, i).standard_normal(cfg.n) for i in range(cfg.trials)]
        )
        assert np.array_equal(rep.per_trial, np.sum(w * w * lam, axis=1) / cfg.n)

    @pytest.mark.parametrize(
        "n,rate,size",
        [
            (13, 1.05, 12854),
            (14, 1.0, 16384),
            (12, math.log2(4097.5) / 12, 4097),
            (12, math.log2(4095.5) / 12, 4095),
            (40, math.log2(6144.5) / 40, 6144),
        ],
        ids=["partial", "full", "one-codeword-last", "odd", "n40"],
    )
    def test_distance_blocks_match_one_line_formula(self, n, rate, size):
        # Each trial reports the error of the codeword that minimizes
        # tau^2 g - 2 tau (wl . c) over the whole book (lowest index on
        # ties), re-scored as sum lam (w - tau c)^2 / n, bit for bit,
        # whatever spans and tiles the run scored in; <= 256 trials are one
        # chunk.
        for trials in (24, 100, 256):
            cfg = _cfg(n=n, rate_bits=rate, trials=trials, seed=43, tau_delta=0.05)
            assert cfg.codebook_size == size
            rep = simulator.run_universal_scheme(cfg)
            st = simulator._scaling_state(cfg)
            lam = st["lam"]
            w = np.stack([_numpy_rng(cfg.seed, STREAM_TRIAL, i).standard_normal(n) for i in range(trials)])
            tau = simulator._scaling(st, w)[:, None]
            cb = simulator.build_codebook(cfg)
            score = tau**2 * ((cb * cb) @ lam) - 2.0 * tau * ((w * lam) @ cb.T)
            d = w - tau * cb[np.argmin(score, axis=1)]
            assert np.array_equal(rep.per_trial, np.sum(d * d * lam, axis=1) / n), trials

    @pytest.mark.parametrize("size", [1, 256, 4095, 4096, 4097, 8193, 12854])
    def test_spans_are_the_codebook_rows(self, size):
        # numpy fills normals in sequence, so the first n columns of spans
        # drawn in turn from the codebook stream are build_codebook's rows in
        # order; each span is copied before the next overwrites its buffer.
        cfg = _cfg(n=3, rate_bits=math.log2(size + 0.5) / 3, seed=17)
        assert cfg.codebook_size == size
        spans = simulator._codebook_spans(simulator._codebook_stream(cfg), size, np.ones(3))
        assert np.array_equal(np.concatenate([span[:, :3].copy() for span in spans]), simulator.build_codebook(cfg))

    def test_per_trial_does_not_depend_on_blas_threads(self):
        # The GEMM decides only the winners, whose re-scored errors are the
        # values, so the bytes are the same at one and two BLAS threads.  The
        # four configs are among tools/scheme_digests.py's whose bytes moved
        # with the thread count when a GEMM's scores were the values (books
        # of 255, 4,095 and 12,287 codewords).  OPENBLAS_NUM_THREADS acts
        # when a process loads BLAS, so each count runs in its own
        # interpreter.
        code = textwrap.dedent("""
            import hashlib, math
            from rdgap import simulator, spectra
            two = spectra.parse_spectrum("1.8:0.5,0.2:0.5")
            for n, m, trials, spectrum, seed in (
                    (12, 255, 257, spectra.flat(), 125),
                    (16, 12287, 100, spectra.flat(), 187),
                    (64, 4095, 100, spectra.flat(), 348),
                    (33, 255, 257, two, 269)):
                cfg = simulator.SimConfig(n=n, rate_bits=math.log2(m + 0.5) / n, spectrum=spectrum,
                                          trials=trials, seed=seed)
                assert cfg.codebook_size == m
                per_trial = simulator.run_universal_scheme(cfg).per_trial
                print(hashlib.sha256(per_trial.tobytes()).hexdigest())
        """)
        src = str(pathlib.Path(simulator.__file__).parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout.split())
        assert len(runs[0]) == 4
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("spectrum", [FLAT], ids=["identity"])
    def test_working_set_does_not_grow_with_the_book(self, spectrum):
        # n = 16 and 18 at rate 1 are books of 8 and 36 MiB, 65,536 and
        # 262,144 codewords, which the run never holds; n = 12 at rate 0.99
        # is one span of 3,769 codewords.  One bound with no term in M
        # covers all three: one tile buffer of 1 MiB, one 4096-row span of
        # n + 1 columns at n = 18 with its raw draw of n, the trial state of
        # 256 x (3 n + 3) floats, and 256 KiB of slack.  An untraced run
        # first loads the modules the scheme imports lazily.  The source is
        # the flat spectrum, the identity covariance.
        widest, trials = 18, 256
        span = 8 * simulator._CODEWORD_BLOCK  # bytes per column of a span
        bound = 8 * simulator._TILE + span * (2 * widest + 1) + 8 * trials * (3 * widest + 3) + 2**18
        simulator.run_universal_scheme(_cfg(n=4, trials=1, spectrum=spectrum))
        for n, rate in ((16, 1.0), (18, 1.0), (12, 0.99)):
            cfg = _cfg(n=n, rate_bits=rate, spectrum=spectrum, trials=trials, seed=5)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                simulator.run_universal_scheme(cfg)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= bound, (n, peak, bound)

    def test_huge_tau_delta_rounds_scaling_to_zero(self):
        # The scaling never exceeds the sup-norm, so a rounding unit of
        # 4 * ||w||_inf sends every tau to zero: identical to threshold 0.
        a = simulator.run_universal_scheme(_cfg(trials=32, tau_delta=4.0))
        b = simulator.run_universal_scheme(_cfg(trials=32, tau_threshold=0.0))
        assert np.array_equal(a.per_trial, b.per_trial)

    def test_thread_count_invariance(self, monkeypatch):
        # Scheme units run in the calling process at any thread count, so the
        # threads=3 run must start no pool; 300 trials are two units.
        cfg = _cfg(n=8, trials=300, seed=13)
        one = simulator.run_universal_scheme(cfg, threads=1)
        monkeypatch.setattr(_parallel.multiprocessing, "get_context", _no_pool)
        three = simulator.run_universal_scheme(cfg, threads=3)
        assert np.array_equal(one.per_trial, three.per_trial)
        assert one.mean == three.mean and one.se == three.se

    @pytest.mark.parametrize("block", [8192, 1000])
    def test_codeword_block_invariance(self, monkeypatch, block):
        # n = 12 at rate 1 is a 4,096-codeword book: one block at the default
        # 4096 and at 8192, four full blocks and a partial one of 96 at 1000.
        cfg = _cfg(n=12, spectrum=TWO_LEVEL, trials=300, seed=7, tau_delta=0.05)
        assert cfg.codebook_size == 4096
        reference = simulator.run_universal_scheme(cfg)
        monkeypatch.setattr(simulator, "_CODEWORD_BLOCK", block)
        blocked = simulator.run_universal_scheme(cfg)
        assert blocked.per_trial.tobytes() == reference.per_trial.tobytes()

    def test_two_level_converges_to_analytic(self):
        cfg = _cfg(n=16, rate_bits=1.0, spectrum=TWO_LEVEL, trials=1200, seed=29)
        rep = simulator.run_universal_scheme(cfg)
        assert rep.analytic == rdrc.dd_rc(TWO_LEVEL, 1.0)
        # Finite codebooks overshoot; at M = 2^16 the overhead stays small.
        assert rep.analytic < rep.mean < rep.analytic + 0.1

    @pytest.mark.parametrize("run", [
        pytest.param(lambda s: simulator.run_universal_scheme(_cfg(n=4, spectrum=s)), id="scheme"),
        pytest.param(lambda s: simulator.estimate_codeword_success(
            _cfg(n=4, spectrum=s, eta=0.05)), id="success"),
        pytest.param(lambda s: simulator.simulate_wf_coupling(s, 0.3, 4, 8, 0, 1), id="coupling"),
        pytest.param(lambda s: simulator.simulate_mmse_filter(s, 1.0, 4, 8, 0, 1), id="filter"),
    ])
    def test_dropped_level_refused(self, monkeypatch, run):
        # At n = 4 the level 10.5 of weight 0.05 gets no coordinate: every
        # mode refuses it before any codebook or trial is drawn.
        monkeypatch.setattr(simulator, "_unit_rngs", _no_draw)
        with pytest.raises(ValueError, match=r"levels \[0\] receive zero dimensions at n=4"):
            run(spectra.parse_spectrum("10.5:0.05,0.5:0.95"))


class TestCodewordSuccess:
    def test_needs_eta(self):
        with pytest.raises(ValueError):
            simulator.estimate_codeword_success(_cfg(rate_bits=0.5, eta=0.0))

    def test_tau_out_of_range_raises(self):
        # A raised error, not an assert, so the check survives python -O.
        state = {"n": 4, "seed": 0, "trials": 2, "eta": 0.1, "T": 1.0,
                 "dlam": np.ones(4), "alam2": np.ones(4), "den": 1e-30, "threshold": None,
                 "delta": None}
        with pytest.raises(SolverError):
            simulator._success_batch((state, 0, 1))

    def test_sampling_budget_guard(self):
        with pytest.raises(ValueError):
            simulator.estimate_codeword_success(_cfg(n=30, rate_bits=1.0, eta=0.05))

    def test_rate_zero_always_succeeds(self):
        rep = simulator.estimate_codeword_success(_cfg(n=6, rate_bits=0.0, trials=32, w_batches=4))
        assert rep.p_hat == 1.0
        assert rep.exponent == 0.0
        assert math.copysign(1.0, rep.exponent) == 1.0  # 0.0, not -0.0
        assert not rep.exponent_is_lower_bound
        assert rep.trials == 32 * 4

    def test_frozen_reference_run(self):
        cfg = _cfg(n=10, rate_bits=0.5, trials=128, seed=7, eta=0.05, w_batches=64)
        rep = simulator.estimate_codeword_success(cfg)
        assert rep.p_hat == 0.0108642578125  # 89 successes / 8192 draws
        assert rep.exponent == 0.6524266569033602
        assert rep.wilson_low < rep.p_hat < rep.wilson_high
        assert rep.analytic == 0.5

    def test_eta_monotonicity_at_fixed_seed(self):
        # Same seed reproduces the same sources and codewords, and the target
        # ball only grows with eta, so the success count cannot drop.
        ps = [
            simulator.estimate_codeword_success(
                _cfg(n=10, rate_bits=0.5, trials=64, seed=5, eta=eta, w_batches=32)
            ).p_hat
            for eta in (0.01, 0.05, 0.2, 1.0)
        ]
        assert all(a <= b for a, b in zip(ps, ps[1:]))
        assert ps[-1] > ps[0]

    def test_zero_successes_reports_lower_bound(self):
        cfg = _cfg(n=26, rate_bits=1.0, trials=8, seed=1, eta=1e-09, w_batches=4)
        rep = simulator.estimate_codeword_success(cfg)
        assert rep.p_hat == 0.0
        assert rep.wilson_low == 0.0
        assert rep.exponent_is_lower_bound
        # exponent derived from the one-sided upper bound, not from log(0)
        assert rep.exponent == -math.log2(rep.wilson_high) / 26

    def test_wilson_closed_form(self):
        z = 1.959963984540054
        low, high = simulator._wilson(5, 100)
        center = (5 + z * z / 2) / (100 + z * z)
        half = z * math.sqrt(5 * 95 / 100 + z * z / 4) / (100 + z * z)
        assert low == pytest.approx(center - half, rel=1e-12)
        assert high == pytest.approx(center + half, rel=1e-12)

    def test_thread_count_invariance(self):
        # 48 batches: one full work unit and a partial one
        cfg = _cfg(n=10, rate_bits=0.5, trials=64, seed=19, eta=0.05, w_batches=48)
        a = simulator.estimate_codeword_success(cfg, threads=1)
        b = simulator.estimate_codeword_success(cfg, threads=2)
        assert (a.p_hat, a.exponent, a.wilson_low, a.wilson_high) == (
            b.p_hat,
            b.exponent,
            b.wilson_low,
            b.wilson_high,
        )


class TestWfCoupling:
    def test_flat_quarter(self):
        rep = simulator.simulate_wf_coupling(FLAT, 0.25, n=64, trials=2000, seed=23)
        assert rep.mode == "coupling"
        assert rep.analytic == 0.25
        assert abs(rep.mean - 0.25) < 4.0 * rep.se

    def test_saturated_level(self):
        rep = simulator.simulate_wf_coupling(FLAT, 2.0, n=64, trials=2000, seed=24)
        assert rep.analytic == 1.0
        assert abs(rep.mean - 1.0) < 4.0 * rep.se

    def test_two_level(self):
        rep = simulator.simulate_wf_coupling(TWO_LEVEL, 0.5, n=64, trials=2000, seed=25)
        assert rep.analytic == pytest.approx(0.35, abs=1e-15)
        assert abs(rep.mean - rep.analytic) < 4.0 * rep.se

    def test_per_trial_reproducible_from_seed(self):
        rep = simulator.simulate_wf_coupling(FLAT, 0.25, n=6, trials=5, seed=31)
        # Each trial draws the channel noise z first, then the signal part;
        # mirror w - y including its floating-point rounding.
        z, ynoise = np.empty((5, 6)), np.empty((5, 6))
        for i in range(5):
            r = _numpy_rng(31, STREAM_TRIAL, i)
            z[i] = r.standard_normal(6)
            ynoise[i] = r.standard_normal(6)
        lam = spectra.expand_to_n(FLAT, 6)
        y = math.sqrt(0.75) * ynoise
        err = (y + 0.5 * z) - y
        assert np.array_equal(rep.per_trial, (err * err) @ lam / 6)

    def test_domain(self):
        with pytest.raises(ValueError):
            simulator.simulate_wf_coupling(FLAT, 0.0, n=4, trials=8, seed=0)
        with pytest.raises(ValueError, match="trials must be positive"):
            simulator.simulate_wf_coupling(FLAT, 0.3, n=4, trials=0, seed=0)

    def test_thread_count_invariance(self):
        a = simulator.simulate_wf_coupling(TWO_LEVEL, 0.3, 16, 600, 2, threads=1)
        b = simulator.simulate_wf_coupling(TWO_LEVEL, 0.3, 16, 600, 2, threads=2)
        assert np.array_equal(a.per_trial, b.per_trial)


class TestMmseFilter:
    def test_flat(self):
        rep = simulator.simulate_mmse_filter(FLAT, 3.0, n=64, trials=2000, seed=37)
        assert rep.mode == "filter"
        assert rep.analytic == 0.25
        assert abs(rep.mean - 0.25) < 4.0 * rep.se

    def test_semi_flat_zero_level_contributes_nothing(self):
        s = spectra.semi_flat(0.5)
        rep = simulator.simulate_mmse_filter(s, 1e6, n=2, trials=400, seed=38)
        assert rep.analytic < 1e-5
        assert rep.mean < 1e-5

    def test_two_level(self):
        rep = simulator.simulate_mmse_filter(TWO_LEVEL, 1.5, n=64, trials=2000, seed=39)
        assert rep.analytic == rdrc.d_rc(TWO_LEVEL, 1.5)
        assert abs(rep.mean - rep.analytic) < 4.0 * rep.se

    def test_domain(self):
        with pytest.raises(ValueError):
            simulator.simulate_mmse_filter(FLAT, 0.0, n=4, trials=8, seed=0)
        with pytest.raises(ValueError, match="trials must be positive"):
            simulator.simulate_mmse_filter(FLAT, 0.3, n=4, trials=0, seed=0)

    def test_thread_count_invariance(self):
        a = simulator.simulate_mmse_filter(FLAT, 2.0, 16, 600, 4, threads=1)
        b = simulator.simulate_mmse_filter(FLAT, 2.0, 16, 600, 4, threads=2)
        assert np.array_equal(a.per_trial, b.per_trial)


class TestAnalyticOfTheRealizedLevels:
    """n = 30 places 10.5:0.05,0.5:0.95 on counts (2, 28), not (1.5, 28.5), so
    each mode's analytic is its curve on the levels at weights 2/30, 28/30."""

    S = spectra.parse_spectrum("10.5:0.05,0.5:0.95")
    W = [2 / 30, 28 / 30]

    def test_filter_mean_meets_it(self):
        rep = simulator.simulate_mmse_filter(self.S, 1.0, n=30, trials=20_000, seed=0)
        assert rep.analytic == rdrc._d_rc(self.S.values, self.W, 1.0)
        # d_rc(S, 1) = 0.36232 lies 14 SE below this mean, 0.37280.
        assert abs(rep.mean - rep.analytic) < 4.0 * rep.se

    def test_coupling(self):
        rep = simulator.simulate_wf_coupling(self.S, 0.7, n=30, trials=8, seed=0)
        assert rep.analytic == waterfill._d_wf(self.S.values, self.W, 0.7)

    def test_scheme(self):
        rep = simulator.run_universal_scheme(_cfg(n=30, rate_bits=0.3, spectrum=self.S, trials=8))
        T = rdrc._t_for_rate(self.S.values, self.W, 0.3)
        assert rep.analytic == rdrc._d_rc(self.S.values, self.W, T)


    def test_whole_quotas_give_the_public_curves(self):
        # At n = 16 both spectra put n w coordinates on each level exactly,
        # so the realized levels are the spectrum's own.
        for s in (FLAT, TWO_LEVEL):
            assert simulator._realized(s, 16) == (s.values, list(s.weights))
            rep = simulator.simulate_wf_coupling(s, 0.7, n=16, trials=8, seed=1)
            assert rep.analytic == waterfill.d_wf(s, 0.7)
            rep = simulator.simulate_mmse_filter(s, 1.0, n=16, trials=8, seed=1)
            assert rep.analytic == rdrc.d_rc(s, 1.0)
            rep = simulator.run_universal_scheme(_cfg(n=16, rate_bits=0.3, spectrum=s, trials=8))
            assert rep.analytic == rdrc.dd_rc(s, 0.3)


class TestOnePointPerCodedRun:
    """A coded run solves its point (T, d_rc(T)) once, on the realized levels
    (_scaling_state): the scaling rule's T and den, the success target's
    dlam and the scheme's analytic all read it."""

    def test_state_and_analytic_read_the_realized_point(self):
        checked = 0
        for k in range(1, 6):
            for seed in range(40):
                s = spectra.sample_random(k, seed)
                for n in (8, 16, 30):
                    for rate in (0.3, 1.0):
                        try:
                            cfg = _cfg(n=n, rate_bits=rate, spectrum=s, trials=1)
                        except ValueError:
                            continue  # a level n cannot place
                        v, w = simulator._realized(s, n)
                        T = rdrc._t_for_rate(v, w, rate)
                        d = rdrc._d_rc(v, w, T)
                        st = simulator._scaling_state(cfg)
                        assert st["T"] == T, cfg
                        assert st["den"] == n * d, cfg
                        assert np.array_equal(st["dlam"], st["lam"] / (1.0 + st["lam"] * T))
                        assert st["d"] == d, cfg
                        if n * rate <= 12:  # books of up to 4,096 codewords keep it quick
                            assert simulator.run_universal_scheme(cfg).analytic == d, cfg
                        checked += 1
        assert checked == 924

    def test_flat_rate_half_is_exact(self):
        # 0.5 log2(1 + T) = 0.5 at T = 1 on the one flat level; the n
        # eigenvalues of mass 1/n each summed the rate to 1e-13 off it.
        assert simulator._scaling_state(_cfg(n=10, rate_bits=0.5))["T"] == 1.0
