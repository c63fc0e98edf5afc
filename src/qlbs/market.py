"""Stock path simulation and the state variables used by the hedging solvers.

Paths follow a geometric Brownian motion simulated under the physical
measure with an exact log-normal step, which keeps every price strictly
positive. Three state representations are supported: the raw price, the
log price, and a drift-adjusted log price whose increments are a pure
martingale.
"""
from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class StateKind(Enum):
    """Which transformation of the simulated price feeds the solvers.

    LOG_RETURN is the per-step change of the log price (zero at time 0),
    a nearly memoryless state; LOG_PRICE is the cumulative log price.
    """

    PRICE = "price"
    LOG_PRICE = "log-price"
    LOG_RETURN = "log-return"
    DRIFT_ADJUSTED = "drift-adjusted"

    @classmethod
    def parse(cls, name: str) -> "StateKind":
        for kind in cls:
            if kind.value == name or kind.name.lower() == name.lower():
                return kind
        raise ValueError(f"unknown state kind {name!r}")


# The trio the benchmark studies sweep over.
BENCHMARK_STATE_KINDS = (StateKind.DRIFT_ADJUSTED, StateKind.PRICE,
                         StateKind.LOG_RETURN)


@dataclass(frozen=True)
class MarketParams:
    """GBM dynamics and contract discretization.

    Rates are annualized: ``mu`` and ``r`` per year, ``sigma`` per
    sqrt-year, ``maturity`` in years.
    """

    s0: float
    mu: float
    sigma: float
    r: float
    maturity: float
    n_steps: int
    n_paths: int
    seed: int = 0

    def __post_init__(self):
        for name in ("s0", "mu", "sigma", "r", "maturity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.s0 <= 0:
            raise ValueError("s0 must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.maturity <= 0:
            raise ValueError("maturity must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def dt(self) -> float:
        return self.maturity / self.n_steps


def _freeze(array: np.ndarray) -> np.ndarray:
    """``array`` as a read-only float64 array, copied unless nothing can
    write through it: a float64 array that is read-only down to the array
    owning its memory, as this module's producers hand over, is kept."""
    owner = array
    while (isinstance(owner, np.ndarray) and not owner.flags.writeable
           and owner.base is not None):
        owner = owner.base
    if (isinstance(owner, np.ndarray) and not owner.flags.writeable
            and array.dtype == np.float64):
        return array
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PathSet:
    """Simulated (or loaded) price paths, one row per path.

    ``prices`` has shape (n_paths, n_steps + 1); column 0 is the common
    spot price.
    """

    prices: np.ndarray
    dt: float
    params: MarketParams

    def __post_init__(self):
        prices = _freeze(self.prices)
        object.__setattr__(self, "prices", prices)
        if prices.ndim != 2 or prices.shape[1] < 2:
            raise ValueError("prices must be a 2-D matrix with at least one step")
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0):
            raise ValueError("prices must be finite and strictly positive")
        if not np.allclose(prices[:, 0], prices[0, 0]):
            raise ValueError("all paths must start from the same spot")
        if not np.isclose(prices[0, 0], self.params.s0):
            raise ValueError("paths must start at the declared spot price")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def n_paths(self) -> int:
        return self.prices.shape[0]

    @property
    def n_steps(self) -> int:
        return self.prices.shape[1] - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class StateSeries:
    """Per-path state values, same layout as PathSet.prices."""

    values: np.ndarray
    kind: StateKind

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))


@dataclass(frozen=True)
class Increments:
    """Forward price increments net of risk-free growth.

    ``delta_s[k, t] = S[k, t+1] - exp(r*dt) * S[k, t]`` and
    ``delta_s_hat`` is the same matrix demeaned within each time column.
    """

    delta_s: np.ndarray
    delta_s_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta_s", _freeze(self.delta_s))
        object.__setattr__(self, "delta_s_hat", _freeze(self.delta_s_hat))


# numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``) and the
# PCG64 multiplier (``pcg64.h``).
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# The multiplier's limbs, and its low limb's 32-bit halves, as uint64.
_U32, _LOW32 = np.uint64(32), np.uint64(_MASK32)
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & (1 << 64) - 1)
_MULT_LO0, _MULT_LO1 = _MULT_LO & _LOW32, _MULT_LO >> _U32

# numpy's ziggurat normal (``random_standard_normal``, ``distributions.c``)
# reads a word r as strip ``r & 0xff``, sign bit 8 and a 52-bit magnitude
# from bit 9.
_STRIPS = 256
_MAGNITUDE_BITS = 52


def _add128(a_hi, a_lo, b_hi, b_lo):
    """``a + b`` mod 2^128 on (high, low) uint64 limbs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 state advance, ``state * M + inc`` mod 2^128, on uint64 limbs.

    The high half of ``lo * M_lo`` is put together from 32-bit halves.
    """
    lo0, lo1 = lo & _LOW32, lo >> _U32
    p00, p01, p10 = lo0 * _MULT_LO0, lo0 * _MULT_LO1, lo1 * _MULT_LO0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    high = lo1 * _MULT_LO1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return _add128(high + hi * _MULT_LO + lo * _MULT_HI, lo * _MULT_LO, inc_hi, inc_lo)


def _xsl_rr(hi, lo):
    """PCG64's output word for an advanced state: ``hi ^ lo`` rotated right by ``hi >> 58``."""
    rot = hi >> np.uint64(58)
    word = hi ^ lo
    return word >> rot | word << ((np.uint64(64) - rot) & np.uint64(63))


def _spawned_pcg64_states(seed: int, n: int) -> tuple[np.ndarray, ...]:
    """PCG64 states of ``SeedSequence(seed).spawn(n)``'s children.

    Returns uint64 arrays (state high, state low, inc high, inc low), the
    k-th entries being child k's. Child k's entropy is the seed's 32-bit
    words, zero-padded to the pool size, followed by the spawn-key word k.
    The hash runs over all children at once in uint32 arithmetic and
    ``pcg64_set_seed`` on 64-bit limbs, both wrapping as in numpy's C code.
    """
    seed, words = int(seed), []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(4, np.uint64): eight uint32 words, paired little-endian.
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (out[2 * i] | out[2 * i + 1] << _U32 for i in range(4))

    # pcg64_set_seed: inc = initseq << 1 | 1, then two steps from state 0
    # with initstate added in between.
    one = np.uint64(1)
    inc_hi, inc_lo = i_hi << one | i_lo >> np.uint64(63), i_lo << one | one
    state = _pcg64_step(*_add128(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo)
    return (*state, inc_hi, inc_lo)


def _pcg64_dict(state: int, inc: int) -> dict:
    """The ``PCG64.state`` value that sets a 128-bit state and increment."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@functools.cache
def _ziggurat_fast_path() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat strip widths and fast-path bounds, read from numpy.

    ``Generator.standard_normal`` returns ±m·width[strip] from a single
    word when its magnitude m is below bound[strip]; any other word takes
    more words. Both tables are read by drawing from chosen words: with
    inc 1, the state ``(word - 1) / M`` steps to ``word``, whose high half
    is 0, so the next output is ``word``. A strip's width is its draw at
    magnitude 1, and its bound the first magnitude whose negative draw is
    not -m·width or moves the state more than one step. The ziggurat puts
    strip i's bound near 2^52 · width[i - 1] / width[i] (strip 0's next to
    strip 255), so the search tries there first and bisects what is left.
    A strip that never passes keeps bound 0 (strip 1 among them), and so
    does every strip if numpy draws normals some other way.
    """
    bit_generator = np.random.PCG64()
    generator = np.random.Generator(bit_generator)
    inverse = pow(_PCG64_MULT, -1, 1 << 128)

    def one_word_draw(word):
        bit_generator.state = _pcg64_dict((word - 1) * inverse & _MASK128, 1)
        value = generator.standard_normal()
        return value, bit_generator.state["state"]["state"] == word

    widths = [one_word_draw(1 << 9 | strip)[0] for strip in range(_STRIPS)]

    def settles(strip, magnitude):
        # Sign bit and the three unused top bits set.
        value, one_step = one_word_draw(7 << 61 | magnitude << 9 | 1 << 8 | strip)
        return one_step and value == -(magnitude * widths[strip])

    top = 1 << _MAGNITUDE_BITS
    bounds = np.zeros(_STRIPS, dtype=np.uint64)
    for strip, width in enumerate(widths):
        ratio = widths[strip - 1] / width if width > 0 else math.inf
        guess = int(ratio * top) if ratio < 1 else top
        lo, hi = -1, top  # magnitudes up to lo settle, from hi on they do not
        for magnitude in (guess - 1, guess, guess + 1):
            if lo < magnitude < hi:
                lo, hi = (magnitude, hi) if settles(strip, magnitude) else (lo, magnitude)
        while hi - lo > 1:
            magnitude = (lo + hi) // 2
            lo, hi = (magnitude, hi) if settles(strip, magnitude) else (lo, magnitude)
        bounds[strip] = hi
    widths = np.array(widths)
    for table in (widths, bounds):  # shared by every later call
        table.setflags(write=False)
    return widths, bounds


def simulate_gbm(params: MarketParams) -> PathSet:
    """Simulate GBM paths with the exact log-normal step.

    log S advances by (mu - sigma^2/2) dt + sigma sqrt(dt) eps per step.
    Path k draws its shocks from its own substream, the PCG64 seeded by
    child k of ``SeedSequence(seed).spawn(n_paths)``, so serial and
    path-parallel generation produce the same matrix for a given seed and
    the first k paths do not depend on ``n_paths``.

    Every stream runs at once in uint64 array arithmetic, one time step
    at a time: the PCG64 advance and output, then numpy's ziggurat fast
    path with the tables :func:`_ziggurat_fast_path` reads from numpy on
    the first call. About 1.5% of draws miss the fast path (about 30% of
    paths at 24 steps, 54% at 52); each such path is drawn again, whole,
    by a Generator set to its stream, so every path is bit-identical to
    ``Generator(PCG64(child)).standard_normal(n_steps)``.
    """
    n_paths, n_steps = params.n_paths, params.n_steps
    dt = params.dt
    widths, bounds = _ziggurat_fast_path()
    seeds = _spawned_pcg64_states(params.seed, n_paths)
    hi, lo, inc_hi, inc_lo = seeds
    log_paths = np.empty((n_paths, n_steps + 1))
    log_paths[:, 0] = 0.0
    missed = np.zeros(n_paths, dtype=bool)
    for t in range(1, n_steps + 1):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        word = _xsl_rr(hi, lo)
        strip = (word & np.uint64(_STRIPS - 1)).astype(np.intp)
        magnitude = word >> np.uint64(9) & np.uint64((1 << _MAGNITUDE_BITS) - 1)
        missed |= magnitude >= bounds[strip]
        shock = magnitude * widths[strip]
        np.negative(shock, out=shock, where=(word & np.uint64(1 << 8)) != 0)
        log_paths[:, t] = shock

    rows = np.flatnonzero(missed)
    bit_generator = np.random.PCG64()
    generator = np.random.Generator(bit_generator)
    for k, s_hi, s_lo, i_hi, i_lo in zip(rows.tolist(),
                                         *(limb[rows].tolist() for limb in seeds)):
        bit_generator.state = _pcg64_dict(s_hi << 64 | s_lo, i_hi << 64 | i_lo)
        generator.standard_normal(out=log_paths[k, 1:])

    shocks = log_paths[:, 1:]
    shocks *= params.sigma * math.sqrt(dt)
    shocks += (params.mu - 0.5 * params.sigma**2) * dt
    np.cumsum(shocks, axis=1, out=shocks)
    prices = np.exp(log_paths, out=log_paths)
    prices *= params.s0
    prices.setflags(write=False)
    return PathSet(prices=prices, dt=dt, params=params)


def compute_states(paths: PathSet, kind: StateKind) -> StateSeries:
    """Derive the chosen state variable from a path set.

    PRICE returns the prices unchanged, LOG_PRICE their logarithm, and
    DRIFT_ADJUSTED subtracts (mu - sigma^2/2) t from the log price so the
    per-step increments have zero mean.
    """
    if kind is StateKind.PRICE:
        values = paths.prices
    elif kind is StateKind.LOG_PRICE:
        values = np.log(paths.prices)
    elif kind is StateKind.LOG_RETURN:
        log_prices = np.log(paths.prices)
        values = np.zeros_like(log_prices)
        np.subtract(log_prices[:, 1:], log_prices[:, :-1], out=values[:, 1:])
    elif kind is StateKind.DRIFT_ADJUSTED:
        p = paths.params
        trend = (p.mu - 0.5 * p.sigma**2) * paths.times
        values = np.log(paths.prices)
        values -= trend
    else:
        raise ValueError(f"unsupported state kind {kind!r}")
    values.setflags(write=False)
    return StateSeries(values=values, kind=kind)


def _delta_s(paths: PathSet, r: float) -> np.ndarray:
    """The read-only (K, T) ``delta_s`` of :class:`Increments`."""
    growth = math.exp(r * paths.dt)
    delta_s = paths.prices[:, 1:] - growth * paths.prices[:, :-1]
    delta_s.setflags(write=False)
    return delta_s


def price_increments(paths: PathSet, r: float) -> Increments:
    """Compute delta_s and its cross-sectionally demeaned counterpart."""
    delta_s = _delta_s(paths, r)
    delta_s_hat = delta_s - delta_s.mean(axis=0, keepdims=True)
    delta_s_hat.setflags(write=False)
    return Increments(delta_s=delta_s, delta_s_hat=delta_s_hat)


def save_paths(paths: PathSet, dest) -> None:
    """Write a path set as CSV: header row of observation times, one path per row."""
    with open(dest, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(map(repr, paths.times.tolist()))
        writer.writerows(map(repr, row) for row in paths.prices.tolist())


def table_to_pathset(prices: Sequence[Sequence[float]], dt: float,
                     params: MarketParams | None = None) -> PathSet:
    """Wrap an in-memory table of prices as a PathSet (fixture helper)."""
    prices = np.asarray(prices, dtype=float)
    if params is None:
        params = MarketParams(
            s0=float(prices[0, 0]),
            mu=0.0,
            sigma=0.0,
            r=0.0,
            maturity=dt * (prices.shape[1] - 1),
            n_steps=prices.shape[1] - 1,
            n_paths=prices.shape[0],
            seed=0,
        )
    return PathSet(prices=prices, dt=dt, params=params)
