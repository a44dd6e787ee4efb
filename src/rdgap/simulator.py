"""Monte-Carlo validation of the quantization scheme and its couplings.

Randomness contract (repository constant): every draw comes from numpy's
Philox 4x64-10 counter-based generator, with one substream per unit of work:
unit i of stream s draws exactly what
Generator(Philox(SeedSequence(entropy=seed, spawn_key=(s, i)))) draws, for
seeds in [0, 2^64) and units below 2^32.  Units are trials for the
scheme/coupling/filter runs and source batches for success-probability runs;
the codebook is unit 0 of its own stream.  Stream 2 is retired and reserved:
it held the haar rotation, which left the joint law of a standard normal
source and book unchanged.  Parallel execution distributes whole units and
reduces in unit order, so results never depend on the worker count.

A Philox substream is only its 128-bit key (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), so `_unit_rngs` derives the keys of
a whole run of units in one vectorized pass: numpy's SeedSequence pool for
spawn_key=(s,), then the unit index mixed in as the last entropy word and
generate_state(2, uint64)'s output hash, and re-keys one reused Philox per
unit.  tests/test_simulate.py checks the keys and first draws against
numpy's own SeedSequence.

Every mode realizes its spectrum at n by spectra.expand_to_n, which refuses
a level that n cannot place, and reports as `analytic` the curve's value on
those n eigenvalues (_realized).  A coded run solves its point (T, d_rc(T))
at the rate once, on those levels (_scaling_state); the scaling rule
(_scaling), the success target and the scheme's `analytic` all read it.

Every mode runs through one unit runner, `_map_units`: each work item is
`(state, start, count)`, where `state` is the run's read-only dict of
precomputed arrays, so kernels read no module-level state.  A work unit is
_CHUNK trials, or _SOURCE_BATCHES source batches for success runs, each
batch still its own substream.  The success, coupling and filter modes
spread their units over RDGAP_THREADS processes, since those units are
bound by Python and the RNG: `_parallel.ordered_map` maps one strided share
of the units in the calling process and the others in child processes,
each of which gets its items, small state dicts included, by fork (or
pickled, under spawn).  Scheme units run in the calling process, since
their codeword GEMM already runs on BLAS's threads: on a 2-CPU machine, 2
pool workers x 2 BLAS threads ran about 2x slower than serial.  Machines
with more CPUs were not measured.

No scheme run holds its codebook.  It builds every chunk's trial state
first, then draws the book from the codebook stream in spans of
_CODEWORD_BLOCK rows, the last one shorter, appends each span's gram column
and scores every chunk against it before the next span is drawn
(`_codebook_spans`, `_score_span`).  One GEMM per row tile of about _TILE
scores ranks the codewords, and only each trial's winner is re-scored for
the reported value, by elementwise products and np.sum, so that value takes
no bits from the GEMM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rdrc, waterfill
from ._parallel import ordered_map
from .errors import SolverError
from .spectra import Spectrum, _apportion, _integer, expand_to_n

STREAM_CODEBOOK = 1
STREAM_TRIAL = 3
STREAM_WBATCH = 4

# Work units are fixed so they never depend on the thread count.
_CHUNK = 256  # trials per work unit
_SOURCE_BATCHES = 32  # source batches per success work unit
# Codewords per span: the scheme draws and scores the book in spans of this
# many rows, the last one shorter, so the book's share of a run's memory is
# one span whatever M is.  On 2 CPUs 4096 was as fast as 8192, and 2048 and
# below were slower.
_CODEWORD_BLOCK = 4096
# Scores per tile: a chunk is scored against a span in row tiles of
# _TILE // rows trials, so the one reused float64 tile buffer is 1 MiB and
# fits a 2 MB L2.
_TILE = 2**17
_MAX_BOOK_BITS = 26  # both coded modes' books: SimConfig.codebook_size refuses n R past it

_Z_TWO_SIDED = 1.959963984540054  # 97.5% normal quantile
_Z_ONE_SIDED = 1.6448536269514722  # 95% normal quantile


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MULT_A = 0x931E8875
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
# A seed below 2^64 pads to the 4 pool words, whose mixing takes 16 hash
# constants; the stream word takes 4 more, so the unit word starts at the 21st.
_HASH_UNIT = 0x43B0D7E5 * pow(_MULT_A, 20, 2**32) % 2**32
_M32 = 0xFFFFFFFF


def _unit_keys(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """(count, 2) uint64 Philox keys; row i is
    SeedSequence(entropy=seed, spawn_key=(stream, start + i)).generate_state(2, np.uint64).
    The 32-bit words are held in uint64 lanes and masked after each product."""
    pool = np.random.SeedSequence(entropy=seed, spawn_key=(stream,)).pool
    unit = np.arange(start, start + count, dtype=np.uint64)
    words = np.empty((count, 4), dtype=np.uint64)
    h = _HASH_UNIT
    for j in range(4):  # mix_entropy: the unit word into each pool word
        v = unit ^ h
        h = (h * _MULT_A) & _M32
        v = (v * h) & _M32
        v ^= v >> 16
        v = (_MIX_MULT_L * int(pool[j]) - _MIX_MULT_R * v) & _M32
        words[:, j] = v ^ (v >> 16)
    h = _INIT_B
    for j in range(4):  # generate_state's output hash
        v = words[:, j] ^ h
        h = (h * _MULT_B) & _M32
        v = (v * h) & _M32
        words[:, j] = v ^ (v >> 16)
    return words[:, 0::2] | (words[:, 1::2] << 32)


def _unit_rngs(seed: int, stream: int, start: int, count: int):
    """Yield, for the units start .. start + count - 1 of `stream`, a Generator
    whose draws equal Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(stream, unit)))).  It is one Philox re-keyed per unit, so each
    unit's draws must be taken before the next unit is requested."""
    seed, start = _integer(seed, "seed"), _integer(start, "start")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if start < 0 or start + count > 2**32:
        raise ValueError("unit indices must lie in [0, 2^32)")
    bitgen = np.random.Philox(0)
    state = bitgen.state  # counter 0, empty buffer: a fresh generator's state
    rng = np.random.Generator(bitgen)
    for key in _unit_keys(seed, stream, start, count):
        state["state"]["key"] = key
        bitgen.state = state
        yield rng


@dataclass(frozen=True)
class SimConfig:
    """Full deterministic description of a Monte-Carlo run."""

    n: int
    rate_bits: float
    spectrum: Spectrum
    trials: int
    seed: int
    tau_delta: float | None = None
    tau_threshold: float | None = None
    eta: float = 0.0
    w_batches: int = 64

    def __post_init__(self) -> None:
        for name in ("n", "trials", "seed", "w_batches"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= self.rate_bits < math.inf:
            raise ValueError("rate_bits must be nonnegative and finite")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        _check_scaling(self.tau_threshold, self.tau_delta)
        if not 0.0 <= self.eta < math.inf:
            raise ValueError("eta must be nonnegative and finite")
        if self.w_batches < 1:
            raise ValueError("w_batches must be positive")
        expand_to_n(self.spectrum, self.n)  # a level n cannot place: refused before any draw

    @property
    def codebook_size(self) -> int:
        """floor(2^(n R)), at least 1; ValueError past n R = _MAX_BOOK_BITS."""
        bits = self.n * self.rate_bits
        if bits > _MAX_BOOK_BITS:
            raise ValueError(f"n * rate_bits must be <= {_MAX_BOOK_BITS}, got {bits!r}")
        return max(1, math.floor(2.0**bits))


@dataclass(frozen=True)
class SimReport:
    """Measured statistics with uncertainty; reproducible from the config.
    analytic is the curve on the levels the run simulates (_realized); for
    the scheme, the d of the point its scaling reads (_scaling_state).  The
    trial modes also carry per_trial, which == leaves out (an array has no
    single truth value)."""

    mode: str
    mean: float
    se: float
    analytic: float
    trials: int
    p_hat: float | None = None
    wilson_low: float | None = None
    wilson_high: float | None = None
    exponent: float | None = None
    exponent_is_lower_bound: bool = False
    per_trial: np.ndarray | None = field(default=None, compare=False)


def _codebook_stream(config: SimConfig) -> np.random.Generator:
    """The codebook stream's generator: unit 0 of STREAM_CODEBOOK."""
    return next(_unit_rngs(config.seed, STREAM_CODEBOOK, 0, 1))


def build_codebook(config: SimConfig) -> np.ndarray:
    """The (M, n) read-only array of the M = config.codebook_size iid standard
    normal codewords of the codebook stream, all held; the scheme draws the
    same rows span by span (`_codebook_spans`)."""
    m = config.codebook_size
    vectors = _codebook_stream(config).standard_normal((m, config.n))
    vectors.setflags(write=False)
    return vectors


def _trial_normals(seed: int, start: int, count: int, cols: int, draws: int = 1) -> list[np.ndarray]:
    """Stack per-trial substream draws: `draws` vectors of length `cols` each."""
    out = [np.empty((count, cols)) for _ in range(draws)]
    for i, rng in enumerate(_unit_rngs(seed, STREAM_TRIAL, start, count)):
        for rows in out:
            rng.standard_normal(out=rows[i])
    return out


def _wilson(successes: int, total: int) -> tuple[float, float]:
    if successes == 0:
        z = _Z_ONE_SIDED
        return 0.0, z * z / (total + z * z)
    z = _Z_TWO_SIDED
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# --- unit runner -------------------------------------------------------------


def _map_units(kernel, state: dict, total: int, size: int, threads: int | None) -> list:
    """kernel((state, start, count)) over [0, total) cut into fixed units of
    `size`, results in unit order; the units never depend on `threads`."""
    units = [(state, i, min(size, total - i)) for i in range(0, total, size)]
    return ordered_map(kernel, units, threads)


def _run_trials(mode, kernel, state, trials, threads, analytic):
    """Run a per-trial kernel in fixed _CHUNK-trial units; report mean, SE and
    the per-trial values."""
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be positive")
    per_trial = np.concatenate(_map_units(kernel, state, trials, _CHUNK, threads))
    return _trial_report(mode, per_trial, analytic)


def _se(values: np.ndarray) -> float:
    """The standard error of the mean of independent values, 0.0 for one."""
    return float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0


def _trial_report(mode: str, per_trial: np.ndarray, analytic: float) -> SimReport:
    return SimReport(mode=mode, mean=float(np.mean(per_trial)), se=_se(per_trial),
                     analytic=analytic, trials=per_trial.size, per_trial=per_trial)


def _realized(s: Spectrum, n: int) -> tuple[tuple[float, ...], list[float]]:
    """The levels of s, each weighted by the share of the n coordinates that
    expand_to_n gives it: the spectrum a run at n simulates."""
    return s.values, [c / n for c in _apportion(s, n)]


def _scaling_state(config: SimConfig) -> dict:
    """State the scheme and success kernels share, with the run's one point
    on the random-coding curve: T solved for the rate on the realized levels
    (0 at rate 0) and d = d_rc(T) on them, the scheme's analytic.  On the n
    eigenvalues, dlam = lam / (1 + lam T) gives the success target and the
    scaling rule's terms alam2 = dlam^2 and den = n d (_scaling)."""
    n, lam = config.n, expand_to_n(config.spectrum, config.n)
    v, w = _realized(config.spectrum, n)
    T = rdrc._t_for_rate(v, w, config.rate_bits) if config.rate_bits > 0.0 else 0.0
    d = rdrc._d_rc(v, w, T)
    dlam = lam / (1.0 + lam * T)
    return {
        "n": n,
        "seed": config.seed,
        "lam": lam,
        "T": T,
        "d": d,
        "dlam": dlam,
        "alam2": dlam * dlam,
        "den": n * d,
        "threshold": config.tau_threshold,
        "delta": config.tau_delta,
    }


def _check_scaling(threshold, delta) -> None:
    """Domain of the scaling rule's threshold and quantizer step, checked by
    SimConfig: the quantizer rounds tau / (delta ||w||_inf), at most
    (1 + 1e-12) / delta."""
    if delta is not None and not (0.0 < delta < math.inf and (1.0 + 1e-12) / delta < math.inf):
        raise ValueError("tau_delta must be positive and finite, with finite 1/tau_delta")
    if threshold is not None and not threshold >= 0.0:
        raise ValueError("tau_threshold must be nonnegative when given")


def _scaling(st: dict, w: np.ndarray) -> np.ndarray:
    """The scheme's scaling rule for realizations w (one per row, or one
    vector) in the eigenbasis, on the terms T, alam2 and den of st:
    tau = sqrt(T (w^2 . alam2) / den), 0 where ||w||_inf exceeds st's
    threshold, then rounded to the nearest multiple of delta ||w||_inf
    (half up) when st's delta is given.  The sum over a row is
    np.add.reduce's, not BLAS's, so a row gets the same bits alone or
    stacked on any BLAS kernel.  The simulator's w are standard normal
    draws, whose squares stay in float range.  Raises SolverError if
    tau leaves [0, ||w||_inf] before rounding, which the rule never does."""
    norms = np.abs(w).max(axis=-1)
    tau = np.sqrt(st["T"] * np.add.reduce(w * w * st["alam2"], axis=-1) / st["den"])
    if st["threshold"] is not None:
        tau = np.where(norms > st["threshold"], 0.0, tau)
    if not ((tau >= 0.0).all() and (tau <= norms * (1.0 + 1e-12) + 1e-300).all()):
        raise SolverError("scaling tau outside [0, ||w||_inf]")
    if st["delta"] is not None:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            unit = st["delta"] * norms
            steps = np.floor(tau / unit + 0.5)  # 0 where unit overflows
            tau = np.where((unit > 0.0) & (steps > 0.0), unit * steps, 0.0)
    return tau


# --- universal quantization scheme -----------------------------------------


def _codebook_spans(rng: np.random.Generator, m: int, lam: np.ndarray):
    """Yield the book's rows drawn from `rng` in spans of _CODEWORD_BLOCK
    rows, the last one shorter, each returned as one (rows, n + 1) array
    [c, (c * c) @ lam].  numpy fills normals in sequence, so the first n
    columns are build_codebook's rows in order.  Every span reuses one
    buffer, and so does its raw draw, which numpy needs contiguous: a span
    must be used before the next is requested."""
    n = lam.size
    raw = np.empty((min(_CODEWORD_BLOCK, m), n))
    buf = np.empty((raw.shape[0], n + 1))
    for r0 in range(0, m, _CODEWORD_BLOCK):
        rows = min(_CODEWORD_BLOCK, m - r0)
        draw, span = raw[:rows], buf[:rows]
        rng.standard_normal(out=draw)
        span[:, :n] = draw
        span[:, n] = np.square(draw, out=draw) @ lam
        yield span


def _scheme_trials(args: tuple[dict, int, int]) -> tuple[np.ndarray, ...]:
    """A chunk's trial state: w, the scaling tau as a column, the
    coefficient rows [-2 w * lam, tau], the running best score (inf until
    the first span is scored) and the winners' codeword rows."""
    st, start, count = args
    n = st["n"]
    (w,) = _trial_normals(st["seed"], start, count, n)
    tau = _scaling(st, w)
    coef = np.column_stack((-2.0 * w * st["lam"], tau))
    return w, tau[:, None], coef, np.full(count, np.inf), np.empty((count, n))


def _score_span(chunks: list, span: np.ndarray, buf: np.ndarray) -> None:
    """Score every chunk against the span, tau g - 2 (w * lam) . c for each
    codeword c, in row tiles of _TILE // rows trials held in the leading
    part of `buf`; a trial's winner is replaced only where the tile's best
    score is strictly lower, so ties keep the lowest index."""
    rows, n = span.shape[0], span.shape[1] - 1
    step = _TILE // rows
    for _, _, coef, best, winner in chunks:
        for r0 in range(0, best.size, step):
            tile = slice(r0, min(r0 + step, best.size))
            scores = buf[: (tile.stop - r0) * rows].reshape(-1, rows)
            np.matmul(coef[tile], span.T, out=scores)
            idx = np.argmin(scores, axis=1)
            low = scores[np.arange(idx.size), idx]
            better = low < best[tile]
            best[tile][better] = low[better]
            winner[tile][better] = span[idx[better], :n]


def run_universal_scheme(config: SimConfig, threads: int | None = None) -> SimReport:
    """Run the random-codebook quantizer end to end.

    Per trial: draw W ~ N(0, I_n), compute the scaling tau in the eigenbasis
    (optionally thresholded then quantized), pick the codeword minimizing the
    covariance-weighted error (lowest index on ties), and record the
    per-dimension distortion.  The analytic reference is d of the run's one
    point (_scaling_state): the random-coding distortion on the realized
    levels at the T that also scales tau.

    The _CHUNK-trial units run in the calling process whatever `threads`
    says, and no pool is started: each unit's codeword GEMM already runs on
    BLAS's own threads.  On a 2-CPU machine a 2-worker pool on top of them
    ran about 2x slower than serial; more CPUs were not measured.
    `threads` is kept so every mode takes the same arguments; the units,
    and so the bytes, never depended on it.

    The error sum lam (w - tau c)^2 is sum lam w^2 + tau (tau g - 2 (w *
    lam) . c) with g = (c * c) @ lam, so for tau > 0 the winner minimizes
    tau g - 2 (w * lam) . c: one GEMM of the rows [-2 w * lam, tau] against
    a span's columns [c, g].  Only the winner's error is reported,
    re-scored by elementwise products and np.sum; a tau = 0 row needs no
    case of its own, as it re-scores to sum lam w^2 whatever wins.  The
    GEMM still picks the winner, so a near tie can pick another under
    another BLAS kernel or thread count.

    No run holds the book: every chunk's trial state is built first, then
    each span of the book is drawn, given its gram column (`_codebook_spans`)
    and scored against every chunk.  Working memory is one span of up to
    4096 x (n + 1) floats and its raw draw, one tile buffer of _TILE floats
    (1 MiB) and the trial state, trials * (3 n + 3) floats, which outweighs
    the rest above about 5,000 trials at n = 16; M sets only the run time.
    """
    if not config.rate_bits > 0.0:
        raise ValueError("scheme mode needs rate_bits > 0")
    m = config.codebook_size
    st = _scaling_state(config)
    chunks = _map_units(_scheme_trials, st, config.trials, _CHUNK, 1)
    buf = np.empty(_TILE)
    for span in _codebook_spans(_codebook_stream(config), m, st["lam"]):
        _score_span(chunks, span, buf)
    per_trial = []
    for w, tau, _, _, winner in chunks:
        d = w - tau * winner
        per_trial.append(np.sum(d * d * st["lam"], axis=1) / config.n)
    return _trial_report("scheme", np.concatenate(per_trial), st["d"])


# --- single-codeword success probability ------------------------------------


def _success_batch(args: tuple[dict, int, int]) -> list[int]:
    """Successes in each of the source batches [start, start + count)."""
    st, start, count = args
    if st["T"] == 0.0:
        # Degenerate boundary: tau = 0 makes the distance equal the target
        # minus eta exactly, so every draw succeeds; skip the float compare.
        return [st["trials"]] * count
    successes = []
    for rng in _unit_rngs(st["seed"], STREAM_WBATCH, start, count):
        w = rng.standard_normal(st["n"])
        target = float((w * w) @ st["dlam"]) / st["n"] + st["eta"]
        tau = float(_scaling(st, w))
        c = rng.standard_normal((st["trials"], st["n"]))
        diff = w[None, :] - tau * c
        d = (diff * diff) @ st["lam"] / st["n"]
        successes.append(int(np.count_nonzero(d <= target)))
    return successes


def estimate_codeword_success(config: SimConfig, threads: int | None = None) -> SimReport:
    """Estimate the probability that one random codeword lands inside the
    per-realization distortion ball, over w_batches sources x trials codewords.

    Reports the pooled success fraction, its Wilson 95% interval, and the
    empirical exponent -(1/n) log2 p.  rate_bits = 0 is the degenerate
    boundary (tau = 0, success certain).

    The codewords of one batch share its source, so se is the standard error
    of the mean of the w_batches per-batch fractions (0.0 for one); the
    Wilson interval stays the pooled-binomial one, which the pilot pins.
    """
    if config.rate_bits > 0.0 and not config.eta > 0.0:
        raise ValueError("success mode needs eta > 0")
    config.codebook_size  # refuses n R past _MAX_BOOK_BITS before any state or draw
    st = _scaling_state(config)
    st.update(trials=config.trials, eta=config.eta)
    counts = np.hstack(_map_units(_success_batch, st, config.w_batches, _SOURCE_BATCHES, threads))
    total = config.trials * config.w_batches
    successes = int(counts.sum())
    p_hat = successes / total
    low, high = _wilson(successes, total)
    if successes > 0:
        exponent = 0.0 - math.log2(p_hat) / config.n  # p_hat = 1 gives 0.0, not -0.0
        lower_only = False
    else:
        exponent = -math.log2(high) / config.n
        lower_only = True
    return SimReport(
        mode="success",
        mean=p_hat,
        se=_se(counts / config.trials),
        analytic=config.rate_bits,
        trials=total,
        p_hat=p_hat,
        wilson_low=low,
        wilson_high=high,
        exponent=exponent,
        exponent_is_lower_bound=lower_only,
    )


# --- exact-expectation constructions ----------------------------------------


def _coupling_chunk(args: tuple[dict, int, int]) -> np.ndarray:
    st, start, count = args
    z, ynoise = _trial_normals(st["seed"], start, count, st["n"], draws=2)
    y = st["sig_y"] * ynoise
    w = y + st["sqrt_d"] * z
    err = w - y
    return (err * err) @ st["weighted"] / st["n"]


def simulate_wf_coupling(
    s: Spectrum, t: float, n: int, trials: int, seed: int, threads: int | None = None
) -> SimReport:
    """Simulate the test-channel coupling W_i = Y_i + sqrt(D_i) Z_i and measure
    the covariance-weighted error against Y; its expectation is d_wf of _realized."""
    if not t > 0.0:
        raise ValueError("water level t must be positive")
    lam = expand_to_n(s, n)
    d = np.minimum(np.divide(t, lam, out=np.full(n, np.inf), where=lam > 0.0), 1.0)
    st = {
        "n": n,
        "seed": seed,
        "sqrt_d": np.sqrt(d),
        "sig_y": np.sqrt(1.0 - d),
        "weighted": lam,
    }
    analytic = waterfill._d_wf(*_realized(s, n), t)
    return _run_trials("coupling", _coupling_chunk, st, trials, threads, analytic)


def _filter_chunk(args: tuple[dict, int, int]) -> np.ndarray:
    st, start, count = args
    gx, gz = _trial_normals(st["seed"], start, count, st["n"], draws=2)
    x = st["sqrt_lam"] * gx
    z = st["noise_scale"] * gz
    e = (st["f"] - 1.0) * x + st["f"] * z
    return np.sum(e * e, axis=1) / st["n"]


def simulate_mmse_filter(
    s: Spectrum, T: float, n: int, trials: int, seed: int, threads: int | None = None
) -> SimReport:
    """Add white noise at level 1/T and MMSE-estimate back; the mean squared
    error per dimension has expectation exactly d_rc(T) of _realized."""
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    lam = expand_to_n(s, n)
    st = {
        "n": n,
        "seed": seed,
        "sqrt_lam": np.sqrt(lam),
        "noise_scale": 1.0 / math.sqrt(T),
        "f": lam * T / (1.0 + lam * T),
    }
    analytic = rdrc._d_rc(*_realized(s, n), T)
    return _run_trials("filter", _filter_chunk, st, trials, threads, analytic)
