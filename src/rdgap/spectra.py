"""Eigenvalue spectra normalized to unit mean.

A Spectrum stores the distinct eigenvalue levels of a covariance matrix
together with the fraction of dimensions at each level.  The mean eigenvalue
is pinned to 1 (one unit of variance per dimension), which makes every
downstream curve formula dimension-free: a single Spectrum describes the
same source at any dimension n.  The gap search merges close levels by
_collapse.  A parsed literal that already satisfies Spectrum's checks is
kept as written, so as_literal round-trips.  n coordinates
realize a spectrum by one rule, expand_to_n, which refuses a level they
cannot place.  Only sample_random (for its Philox draws) and expand_to_n
use numpy, which they import inside the function.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from pathlib import Path

WEIGHT_SUM_TOL = 1e-12
UNIT_MEAN_TOL = 1e-12

# Substream id used by sample_random; see README "Reproducibility" for the full map.
_STREAM_SPECTRA = 0


def _integer(value, name: str) -> int:
    """value as an int, by operator.index, so numpy integers pass and floats
    and bools do not; anything else raises ValueError naming the argument."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalue levels (strictly decreasing) with mass fractions.

    weights are positive, sum to 1, and the weighted mean of values is 1.
    Zero eigenvalues are a regular level (rank deficiency is a first-class
    case).  Instances are immutable and safe to share across threads.
    """

    values: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        if not values or len(values) != len(weights):
            raise ValueError("values and weights must be nonempty and equally long")
        if any(v < 0.0 for v in values):
            raise ValueError("eigenvalues must be nonnegative")
        if any(values[i] <= values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("values must be strictly decreasing (no duplicates)")
        if values[0] <= 0.0:
            raise ValueError("at least one eigenvalue must be positive")
        if any(not 0.0 < w <= 1.0 for w in weights):
            raise ValueError("weights must lie in (0, 1]")
        if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
        mean = sum(w * v for w, v in zip(weights, values))
        if not abs(mean - 1.0) <= UNIT_MEAN_TOL:  # also rejects a nan or inf value
            raise ValueError(f"weighted mean must be 1, got {mean!r}")

    @property
    def k(self) -> int:
        """Number of distinct levels."""
        return len(self.values)

    @property
    def max_value(self) -> float:
        return self.values[0]

    def as_literal(self) -> str:
        """Render in the CLI literal form ``v1:w1,v2:w2,...``."""
        return ",".join(f"{v!r}:{w!r}" for v, w in zip(self.values, self.weights))


def flat() -> Spectrum:
    """The flat (identity-covariance) spectrum."""
    return Spectrum((1.0,), (1.0,))


def from_eigenvalues(raw) -> Spectrum:
    """Canonicalize a raw eigenvalue list as parse_spectrum does: merge exact
    duplicates into weighted levels, sort decreasing, scale to unit mean."""
    pairs = [(float(v), 1.0) for v in raw]
    if not pairs:
        raise ValueError("eigenvalue list is empty")
    return _from_pairs(pairs)


def semi_flat(active_fraction: float) -> Spectrum:
    """One positive level on a fraction of the dimensions, zeros elsewhere.

    Degenerates to the flat spectrum at active_fraction = 1.
    """
    f = float(active_fraction)
    if not 0.0 < f <= 1.0:
        raise ValueError("active_fraction must lie in (0, 1]")
    if f == 1.0:
        return flat()
    return Spectrum((1.0 / f, 0.0), (f, 1.0 - f))


def _collapse(values, weights, floor: float, rel: float):
    """Drop levels of weight at most floor and merge levels within rel of
    each other; returns decreasing, unit-mean lists.  With floor = rel = 0
    only weightless levels go and only equal levels merge, which keeps the
    gap."""
    merged: list[list[float]] = []
    for v, w in sorted(zip(values, weights), key=lambda p: -p[0]):
        if w <= floor:
            continue
        if merged and merged[-1][0] - v <= rel * merged[-1][0]:
            pv, pw = merged[-1]
            merged[-1] = [(pv * pw + v * w) / (pw + w), pw + w]
        else:
            merged.append([v, w])
    return _normalized([p[0] for p in merged], [p[1] for p in merged])


def sample_random(k: int, seed: int) -> Spectrum:
    """A deterministic random Spectrum with at most k distinct levels.

    Levels are log-uniform over e^[-3, 3] (math.exp) and weights are
    Dirichlet(1), brought to unit mean by _normalized.  Rejects
    near-degenerate draws so the result always passes the full invariant
    set.
    """
    import numpy as np
    k, seed = _integer(k, "k"), _integer(seed, "seed")
    if not 1 <= k <= 16:
        raise ValueError("k must lie in 1..16")
    if k == 1:
        return flat()
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(_STREAM_SPECTRA,)))
    )
    for _ in range(64):
        values = [math.exp(x) for x in rng.uniform(-3.0, 3.0, size=k).tolist()]
        weights = rng.dirichlet(np.ones(k)).tolist()
        if min(weights) < 1e-6:
            continue
        pairs = sorted(zip(values, weights), reverse=True)
        values, weights = _normalized([p[0] for p in pairs], [p[1] for p in pairs])
        if min(a - b for a, b in zip(values, values[1:])) <= 1e-9 * values[0]:
            continue
        return Spectrum(values, weights)
    raise RuntimeError("could not sample a non-degenerate spectrum")


def expand_to_n(s: Spectrum, n: int) -> np.ndarray:
    """The n eigenvalues, sorted decreasing, with which n coordinates realize
    s: level j on _apportion(s, n)[j] of them.  Raises ValueError if a level
    gets none; the values are not rescaled.
    """
    import numpy as np
    counts = _apportion(s, n)
    dropped = [j for j, c in enumerate(counts) if c == 0]
    if dropped:
        raise ValueError(f"levels {dropped} receive zero dimensions at n={n}; use a larger n")
    return np.repeat(np.asarray(s.values, dtype=float), counts)


def _apportion(s: Spectrum, n: int) -> list[int]:
    """Coordinates per level out of n <= 2^39 by largest-remainder
    apportionment; a level may get none."""
    n = _integer(n, "n")
    # The weights sum to at most 1 + WEIGHT_SUM_TOL, so up to n = 2^39 the quotas
    # sum to at most n(1 + 1e-12)(1 + 2^-53) < n + 1 and their floors to at most n.
    if not 1 <= n <= 2**39:
        raise ValueError(f"n must lie in [1, {2**39}], got {n}")
    quotas = [w * n for w in s.weights]
    counts = [int(q) for q in quotas]
    short = n - sum(counts)
    # Hand leftover dimensions to the largest fractional remainders,
    # ties to the larger eigenvalue (lower index) for determinism.
    order = sorted(range(s.k), key=lambda j: (-(quotas[j] - counts[j]), j))
    for j in order[:short]:
        counts[j] += 1
    return counts


def parse_spectrum(text: str) -> Spectrum:
    """Parse the CLI spectrum literal.

    Accepted forms: ``flat``, ``semiflat:<fraction>``, ``v1:w1,v2:w2,...``,
    or ``@file.csv`` with columns value,weight.  Weights are normalized to
    sum 1 and values rescaled to unit mean, so unnormalized masses are fine;
    pairs that already pass Spectrum's checks keep their floats.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty spectrum literal")
    if text == "flat":
        return flat()
    if text.startswith("semiflat:"):
        return semi_flat(float(text.split(":", 1)[1]))
    if text.startswith("@"):
        pairs = _read_spectrum_csv(Path(text[1:]))
    else:
        pairs = []
        for item in text.split(","):
            parts = item.split(":")
            if len(parts) != 2:
                raise ValueError(f"bad spectrum item {item!r}, expected value:weight")
            pairs.append((float(parts[0]), float(parts[1])))
    return _from_pairs(pairs)


def _read_spectrum_csv(path: Path) -> list[tuple[float, float]]:
    """The value,weight rows of a CSV file.  Rows starting with '#' are
    comments; the first other row may be a header, if it holds no digit.
    Any other row that is not two floats raises ValueError."""
    pairs = []
    rows = 0
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), 1):
            if not row or row[0].strip().startswith("#"):
                continue
            rows += 1
            try:
                v, w = map(float, row)
            except ValueError:
                if rows == 1 and not any(c.isdigit() for c in "".join(row)):
                    continue  # header row
                raise ValueError(f"row {line} is not value,weight: {','.join(row)!r}") from None
            pairs.append((v, w))
    if not pairs:
        raise ValueError(f"no value,weight rows in {path}")
    return pairs


def _from_pairs(pairs: list[tuple[float, float]]) -> Spectrum:
    for v, w in pairs:
        if v < 0.0:
            raise ValueError("eigenvalues must be nonnegative")
        if w <= 0.0:
            raise ValueError("weights must be positive")
    merged: dict[float, float] = {}
    for v, w in pairs:
        merged[v] = merged.get(v, 0.0) + w
    values = sorted(merged, reverse=True)
    weights = [merged[v] for v in values]
    try:
        return Spectrum(values, weights)  # already normalized: keep its floats
    except ValueError:
        return Spectrum(*_normalized(values, weights))


def _normalized(values, weights):
    """(values, weights) at unit mean: weights scaled to sum 1, then values
    divided by their weighted mean, which must be positive."""
    total = sum(weights)
    weights = [w / total for w in weights]
    mean = sum(v * w for v, w in zip(values, weights))
    if mean <= 0.0:
        raise ValueError("all eigenvalues are zero")
    return [v / mean for v in values], weights
