"""Monte-Carlo validation of the quantization scheme and its couplings.

Randomness contract (repository constant): every draw comes from numpy's
Philox 4x64-10 counter-based generator, with one substream per unit of work:
unit i of stream s draws exactly what
Generator(Philox(SeedSequence(entropy=seed, spawn_key=(s, i)))) draws, for
seeds in [0, 2^64) and units below 2^32.  Units are trials for the
scheme/coupling/filter runs and source batches for success-probability runs;
codebook and rotation are unit 0 of their own streams.  Parallel execution
distributes whole units and reduces in unit order, so results never depend
on the worker count.

A Philox substream is only its 128-bit key (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), so `_unit_rngs` derives the keys of
a whole run of units in one vectorized pass: numpy's SeedSequence pool for
spawn_key=(s,), then the unit index mixed in as the last entropy word and
generate_state(2, uint64)'s output hash, and re-keys one reused Philox per
unit.  tests/test_simulate.py checks the keys and first draws against
numpy's own SeedSequence.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rdrc, waterfill
from ._parallel import ordered_map
from .spectra import Spectrum, expand_to_n

STREAM_CODEBOOK = 1
STREAM_ROTATION = 2
STREAM_TRIAL = 3
STREAM_WBATCH = 4

# Work units are fixed so they never depend on the thread count.
_CHUNK = 256  # trials per work unit
_SOURCE_BATCHES = 32  # source batches per success work unit
# Codewords per distance block.  The scheme search reuses two _CHUNK x block
# float64 buffers, 8 MB each, in the calling process; on 2 CPUs 4096 was as
# fast as 8192 with half the memory, and 2048 and below were slower.
_CODEWORD_BLOCK = 4096

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
    seed, start = int(seed), int(start)
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
    rotation: str = "identity"
    tau_delta: float | None = None
    tau_threshold: float | None = None
    codebook_cap: int = 2**22
    eta: float = 0.0
    w_batches: int = 64

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not self.rate_bits >= 0.0:
            raise ValueError("rate_bits must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.rotation not in ("identity", "haar"):
            raise ValueError("rotation must be 'identity' or 'haar'")
        # The quantizer rounds tau / (delta ||w||_inf), which is at most (1 + 1e-12) / delta.
        if self.tau_delta is not None and not (
                0.0 < self.tau_delta < math.inf and (1.0 + 1e-12) / self.tau_delta < math.inf):
            raise ValueError("tau_delta must be positive and finite, with finite 1/tau_delta")
        if self.tau_threshold is not None and not self.tau_threshold >= 0.0:
            raise ValueError("tau_threshold must be nonnegative when given")
        if self.codebook_cap < 1:
            raise ValueError("codebook_cap must be positive")
        if not self.eta >= 0.0:
            raise ValueError("eta must be nonnegative")
        if self.w_batches < 1:
            raise ValueError("w_batches must be positive")

    @property
    def codebook_size(self) -> int:
        """floor(2^(n R)), at least 1, with no float power past 2^1023."""
        bits = self.n * self.rate_bits
        shift = max(0, math.floor(bits) - 1023)
        return max(1, math.floor(2.0 ** (bits - shift)) << shift)


@dataclass(frozen=True)
class SimReport:
    """Measured statistics with uncertainty; reproducible from the config.
    The trial modes also carry per_trial, which == leaves out (an array has
    no single truth value)."""

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
    warnings: tuple[str, ...] = ()
    per_trial: np.ndarray | None = field(default=None, compare=False)


def haar_orthogonal(n: int, seed: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR with positive diagonal of R)."""
    if n < 1:
        raise ValueError("n must be positive")
    g = next(_unit_rngs(seed, STREAM_ROTATION, 0, 1)).standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    return q * d


def build_codebook(config: SimConfig) -> np.ndarray:
    """The (M, n) read-only array of M iid standard normal codewords, drawn
    from the codebook stream; the cap is compared in the log domain, where
    2^(n R) cannot overflow."""
    bits = config.n * config.rate_bits
    if bits >= math.log2(config.codebook_cap + 1):
        raise ValueError(f"codebook of size 2^{bits:g} exceeds codebook_cap {config.codebook_cap}")
    rng = next(_unit_rngs(config.seed, STREAM_CODEBOOK, 0, 1))
    vectors = rng.standard_normal((config.codebook_size, config.n))
    vectors.setflags(write=False)
    return vectors


def _realized_lambdas(s: Spectrum, n: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Concrete eigenvalues for dimension n, with drop warnings and rescale."""
    lams, dropped = expand_to_n(s, n)
    warnings = ()
    if dropped:
        amount = ", ".join(
            f"value {s.values[j]!r} (weight {s.weights[j]!r})" for j in dropped
        )
        warnings = (
            f"apportionment to n={n} left zero dimensions for: {amount}; "
            "dropped and remaining eigenvalues rescaled to unit mean",
        )
        lams = lams / lams.mean()
    return lams, warnings


def _trial_normals(seed: int, start: int, count: int, cols: int, draws: int = 1) -> list[np.ndarray]:
    """Stack per-trial substream draws: `draws` vectors of length `cols` each."""
    out = [np.empty((count, cols)) for _ in range(draws)]
    for i, rng in enumerate(_unit_rngs(seed, STREAM_TRIAL, start, count)):
        for rows in out:
            rng.standard_normal(out=rows[i])
    return out


def _mean_se(per_trial: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(per_trial))
    se = float(np.std(per_trial, ddof=1) / math.sqrt(per_trial.size)) if per_trial.size > 1 else 0.0
    return mean, se


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


def _run_trials(mode, kernel, state, trials, threads, analytic, warnings):
    """Run a per-trial kernel in fixed _CHUNK-trial units; report mean, SE and
    the per-trial values."""
    if trials < 1:
        raise ValueError("trials must be positive")
    per_trial = np.concatenate(_map_units(kernel, state, trials, _CHUNK, threads))
    mean, se = _mean_se(per_trial)
    return SimReport(
        mode=mode,
        mean=mean,
        se=se,
        analytic=analytic,
        trials=trials,
        warnings=warnings,
        per_trial=per_trial,
    )


def _scaling_state(config: SimConfig) -> tuple[dict, tuple[str, ...]]:
    """State the scheme and success kernels share: eigenvalues, rotation,
    the noise level T at the configured rate (0 at rate 0) and the terms
    alam2 and den of the scaling rule (rdrc._scaling)."""
    lam, warnings = _realized_lambdas(config.spectrum, config.n)
    u = None if config.rotation == "identity" else haar_orthogonal(config.n, config.seed)
    T = (
        rdrc._t_for_rate(lam.tolist(), [1.0 / config.n] * config.n, config.rate_bits)
        if config.rate_bits > 0.0
        else 0.0
    )
    state = {
        "n": config.n,
        "seed": config.seed,
        "lam": lam,
        "u": u,
        "T": T,
        "alam2": lam**2 / (1.0 + lam * T) ** 2,
        "den": float(np.sum(lam / (1.0 + lam * T))),
        "threshold": config.tau_threshold,
        "delta": config.tau_delta,
    }
    return state, warnings


# --- universal quantization scheme -----------------------------------------


def _scheme_chunk(args: tuple[dict, int, int]) -> np.ndarray:
    st, start, count = args
    n = st["n"]
    lam = st["lam"]
    (w,) = _trial_normals(st["seed"], start, count, n)
    wt = w @ st["u"] if st["u"] is not None else w
    tau = rdrc._scaling(st["T"], st["alam2"], st["den"], wt, st["threshold"], st["delta"])
    a0 = (wt * wt) @ lam
    wl = wt * lam
    cb = st["codebook_rot"]
    g = st["codebook_gram"]
    m = cb.shape[0]
    # score = tau^2 g - 2 tau (wl . c), operation for operation, in two
    # buffers; the last, partial block uses their leading count x size part.
    two_tau, tau2 = 2.0 * tau[:, None], tau[:, None] ** 2
    xbuf, ybuf = np.empty((2, count * min(m, _CODEWORD_BLOCK)))
    block_best, best = np.empty(count), np.full(count, np.inf)
    for b0 in range(0, m, _CODEWORD_BLOCK):
        blk = slice(b0, min(b0 + _CODEWORD_BLOCK, m))
        size = blk.stop - b0
        x = xbuf[: count * size].reshape(count, size)
        y = ybuf[: count * size].reshape(count, size)
        np.matmul(wl, cb[blk].T, out=x)
        np.multiply(two_tau, x, out=x)
        np.multiply(tau2, g[blk], out=y)
        np.subtract(y, x, out=y)
        np.min(y, axis=1, out=block_best)
        np.minimum(best, block_best, out=best)
    return (a0 + best) / n


def run_universal_scheme(config: SimConfig, threads: int | None = None) -> SimReport:
    """Run the random-codebook quantizer end to end.

    Per trial: draw W ~ N(0, I_n), compute the scaling tau in the eigenbasis
    (optionally thresholded then quantized), pick the codeword minimizing the
    covariance-weighted error (lowest index on ties), and record the
    per-dimension distortion.  The analytic reference is dd_rc at the
    configured rate.

    The _CHUNK-trial units run in the calling process whatever `threads`
    says, and no pool is started: each unit's codeword GEMM already runs on
    BLAS's own threads.  On a 2-CPU machine a 2-worker pool on top of them
    ran about 2x slower than serial; more CPUs were not measured.
    `threads` is kept so every mode takes the same arguments; the units,
    and so the bytes, never depended on it.
    """
    if not config.rate_bits > 0.0:
        raise ValueError("scheme mode needs rate_bits > 0")
    codebook = build_codebook(config)  # its cap check comes before the n x n rotation
    st, warnings = _scaling_state(config)
    c_rot = codebook @ st["u"] if st["u"] is not None else codebook
    st["codebook_rot"] = c_rot
    st["codebook_gram"] = (c_rot * c_rot) @ st["lam"]
    analytic = rdrc.dd_rc(config.spectrum, config.rate_bits)
    return _run_trials("scheme", _scheme_chunk, st, config.trials, 1, analytic, warnings)


# --- single-codeword success probability ------------------------------------


def _success_batch(args: tuple[dict, int, int]) -> int:
    """Successes over the source batches [start, start + count)."""
    st, start, count = args
    if st["T"] == 0.0:
        # Degenerate boundary: tau = 0 makes the distance equal the target
        # minus eta exactly, so every draw succeeds; skip the float compare.
        return st["trials"] * count
    successes = 0
    for rng in _unit_rngs(st["seed"], STREAM_WBATCH, start, count):
        w = rng.standard_normal(st["n"])
        wt = w @ st["u"] if st["u"] is not None else w
        target = float((wt * wt) @ st["dlam"]) / st["n"] + st["eta"]
        tau = float(rdrc._scaling(st["T"], st["alam2"], st["den"], wt, st["threshold"], st["delta"]))
        c = rng.standard_normal((st["trials"], st["n"]))
        ct = c @ st["u"] if st["u"] is not None else c
        diff = wt[None, :] - tau * ct
        d = (diff * diff) @ st["lam"] / st["n"]
        successes += int(np.count_nonzero(d <= target))
    return successes


def estimate_codeword_success(config: SimConfig, threads: int | None = None) -> SimReport:
    """Estimate the probability that one random codeword lands inside the
    per-realization distortion ball, over w_batches sources x trials codewords.

    Reports the pooled success fraction, its Wilson 95% interval, and the
    empirical exponent -(1/n) log2 p.  rate_bits = 0 is the degenerate
    boundary (tau = 0, success certain).
    """
    if config.rate_bits > 0.0 and not config.eta > 0.0:
        raise ValueError("success mode needs eta > 0")
    if config.n * config.rate_bits > 26.0:
        raise ValueError("n * rate_bits must be <= 26 for direct sampling")
    st, warnings = _scaling_state(config)
    st.update(trials=config.trials, eta=config.eta, dlam=st["lam"] / (1.0 + st["lam"] * st["T"]))
    counts = _map_units(_success_batch, st, config.w_batches, _SOURCE_BATCHES, threads)
    total = config.trials * config.w_batches
    successes = int(sum(counts))
    p_hat = successes / total
    low, high = _wilson(successes, total)
    if successes > 0:
        exponent = 0.0 - math.log2(p_hat) / config.n  # p_hat = 1 gives 0.0, not -0.0
        lower_only = False
    else:
        exponent = -math.log2(high) / config.n
        lower_only = True
    se = math.sqrt(p_hat * (1.0 - p_hat) / total)
    return SimReport(
        mode="success",
        mean=p_hat,
        se=se,
        analytic=config.rate_bits,
        trials=total,
        p_hat=p_hat,
        wilson_low=low,
        wilson_high=high,
        exponent=exponent,
        exponent_is_lower_bound=lower_only,
        warnings=warnings,
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
    the covariance-weighted error against Y; its expectation is exactly d_wf."""
    if not t > 0.0:
        raise ValueError("water level t must be positive")
    lam, warnings = _realized_lambdas(s, n)
    d = np.minimum(np.divide(t, lam, out=np.full(n, np.inf), where=lam > 0.0), 1.0)
    st = {
        "n": n,
        "seed": seed,
        "sqrt_d": np.sqrt(d),
        "sig_y": np.sqrt(1.0 - d),
        "weighted": lam,
    }
    return _run_trials(
        "coupling", _coupling_chunk, st, trials, threads, waterfill.d_wf(s, t), warnings
    )


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
    error per dimension has expectation exactly d_rc(s, T)."""
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    lam, warnings = _realized_lambdas(s, n)
    st = {
        "n": n,
        "seed": seed,
        "sqrt_lam": np.sqrt(lam),
        "noise_scale": 1.0 / math.sqrt(T),
        "f": lam * T / (1.0 + lam * T),
    }
    return _run_trials("filter", _filter_chunk, st, trials, threads, rdrc.d_rc(s, T), warnings)
