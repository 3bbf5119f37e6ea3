"""Walsh spectra and nonlinearity.

The spectrum entry at index w is sum over all points x of
(-1)**(f(x) + w.x), computed by an in-place butterfly on an int32
buffer, exact because |W| <= 2**n <= 2**30; no floating point anywhere.
The first three passes come from a table of byte spectra, the passes
with h < 2**14 run group by group in cache, and the rest stream over the
whole array.  Nonlinearity comes out of the spectrum as
2**(n-1) - max|W|/2, and an independent brute-force path measures the
minimum distance over all affine tables directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .truthtable import TruthTable

_BRUTE_FORCE_MAX_VARS = 16


def _variable_pattern(j: int, size: int) -> int:
    """Packed table of the single-variable function x -> bit j of x."""
    block = 1 << j
    unit = ((1 << block) - 1) << block
    return unit * (((1 << size) - 1) // ((1 << (2 * block)) - 1))


def _byte_spectra(points: int) -> np.ndarray:
    """Row b: the int32 spectrum of the lowest `points` bits of byte value b."""
    bit = np.arange(points)
    signs = np.where((np.arange(256)[:, None] >> bit) & 1, -1, 1)
    hadamard = np.where(np.bitwise_count(bit[:, None] & bit) & 1, -1, 1)
    return (signs @ hadamard).astype(np.int32)


# Indexed by min(n, 3): a table under one byte holds 1, 2 or 4 points, a
# longer one is whole bytes of 8 points each.
_BYTE_SPECTRA = tuple(_byte_spectra(1 << n) for n in range(4))
# Passes with h below _LOW_PASS_LIMIT run one group of _GROUP_POINTS at a
# time; a group (512 KiB of int32) stays in a 2 MiB per-core L2 cache.
_LOW_PASS_LIMIT = 1 << 14
_GROUP_POINTS = 1 << 17


def _butterfly(block: np.ndarray, h: int, stop: int) -> None:
    """Hadamard butterfly passes h, 2h, ... below stop, in place, no scratch.

    Before pass h every entry is a sum over h points, so each intermediate
    below, 2*bot included, is at most 2h <= 2**n in magnitude."""
    while h < stop:
        view = block.reshape(-1, 2, h)
        top, bot = view[:, 0, :], view[:, 1, :]
        top += bot
        bot *= -2  # top is now a + b, so bot becomes a + b - 2b = a - b
        bot += top
        h <<= 1


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """All 2**n spectrum values, index w in the same point order as tables."""

    n: int
    values: np.ndarray

    @cached_property
    def _peak(self) -> tuple[int, int]:
        """max|W| and the smallest index attaining it, from one |W| pass."""
        # argmax on the writable |W| buffer: on the read-only values it copies
        magnitudes = np.abs(self.values)
        at = int(magnitudes.argmax())
        return int(magnitudes[at]), at

    def max_abs(self) -> int:
        return self._peak[0]

    def max_abs_index(self) -> int:
        """Smallest index attaining max|W|."""
        return self._peak[1]

    def parseval_sum(self) -> int:
        """Sum of squared values; equals 2**(2n) for any genuine spectrum."""
        # int64: the sum is 2**(2n), past int32 from n = 16 on
        return int(np.einsum("i,i->", self.values, self.values, dtype=np.int64))

    def nonlinearity(self) -> int:
        if self.n == 0:
            raise ValueError("nonlinearity needs at least one variable")
        return (1 << (self.n - 1)) - self.max_abs() // 2


def walsh_transform(t: TruthTable) -> WalshSpectrum:
    raw = np.frombuffer(t.bits.to_bytes((t.size + 7) // 8, "little"), dtype=np.uint8)
    values = _BYTE_SPECTRA[min(t.n, 3)][raw].reshape(-1)  # passes h = 1, 2, 4 done
    low = min(_LOW_PASS_LIMIT, t.size)
    for start in range(0, t.size, _GROUP_POINTS):
        _butterfly(values[start : start + _GROUP_POINTS], 8, low)
    _butterfly(values, low, t.size)
    values.setflags(write=False)
    return WalshSpectrum(t.n, values)


def nonlinearity(t: TruthTable) -> int:
    """Minimum distance to the affine functions, via the spectrum."""
    return walsh_transform(t).nonlinearity()


def brute_force_nonlinearity(t: TruthTable) -> int:
    """Minimum distance over all 2**(n+1) affine tables, measured directly.

    Walks the linear masks in Gray-code order so each step is one packed
    XOR against a single-variable pattern plus a popcount.
    """
    if not 1 <= t.n <= _BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute force supports 1..{_BRUTE_FORCE_MAX_VARS} variables, got {t.n}")
    size = t.size
    patterns = [_variable_pattern(j, size) for j in range(t.n)]
    linear = 0
    d = t.bits.bit_count()
    best = min(d, size - d)
    for gray in range(1, size):
        linear ^= patterns[(gray & -gray).bit_length() - 1]
        d = (t.bits ^ linear).bit_count()
        best = min(best, d, size - d)
    return best


@dataclass(frozen=True)
class AffineSpec:
    """a(x) = constant + mask.x mod 2; mask bits align with index bits."""

    mask: int
    constant: int

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("mask must be nonnegative")
        if self.constant not in (0, 1):
            raise ValueError("constant must be 0 or 1")


def affine_table(spec: AffineSpec, n: int) -> TruthTable:
    """Truth table of the affine function; table bit i = c + parity(mask & i)."""
    if spec.mask >> n:
        raise ValueError(f"mask {spec.mask:#x} has bits beyond {n} variables")
    size = 1 << n
    bits = 0
    m = spec.mask
    while m:
        low = m & -m
        bits ^= _variable_pattern(low.bit_length() - 1, size)
        m ^= low
    if spec.constant:
        bits ^= (1 << size) - 1
    return TruthTable(n, bits)


@dataclass(frozen=True)
class WeightNonlinearityCheck:
    """Outcome of the small-weight test: weight <= 2**(n-2) forces wt = N."""

    weight: int
    nonlinearity: int
    threshold: int
    applicable: bool
    holds: bool | None

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "not-applicable"
        return "pass" if self.holds else "fail"


def check_weight_equals_nonlinearity(t: TruthTable) -> WeightNonlinearityCheck:
    """Check wt = N whenever the weight is at most a quarter of the table."""
    if t.n < 2:
        raise ValueError("small-weight check needs at least two variables")
    return _small_weight_check(t, nonlinearity(t))


def _small_weight_check(t: TruthTable, nl: int) -> WeightNonlinearityCheck:
    """The small-weight check on a table whose nonlinearity is already known."""
    w = t.weight()
    threshold = 1 << (t.n - 2)
    if w > threshold:
        return WeightNonlinearityCheck(w, nl, threshold, applicable=False, holds=None)
    return WeightNonlinearityCheck(w, nl, threshold, applicable=True, holds=nl == w)
