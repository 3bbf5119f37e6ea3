"""Walsh spectra and nonlinearity.

The spectrum entry at index w is sum over all points x of
(-1)**(f(x) + w.x), computed by the in-place butterfly on an exact
int64 buffer; no floating point anywhere.  Nonlinearity comes out of
the spectrum as 2**(n-1) - max|W|/2, and an independent brute-force
path measures the minimum distance over all affine tables directly.
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


def _hadamard_inplace(values: np.ndarray) -> None:
    """Unnormalized Hadamard butterfly: n passes over pairs h apart."""
    size = values.size
    if size == 1:
        return
    scratch = np.empty(size // 2, dtype=values.dtype)
    h = 1
    while h < size:
        view = values.reshape(-1, 2, h)
        top, bot = view[:, 0, :], view[:, 1, :]
        diff = scratch.reshape(top.shape)
        np.subtract(top, bot, out=diff)
        np.add(top, bot, out=top)
        bot[:] = diff
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
        return int(self.values @ self.values)

    def nonlinearity(self) -> int:
        if self.n == 0:
            raise ValueError("nonlinearity needs at least one variable")
        return (1 << (self.n - 1)) - self.max_abs() // 2


def walsh_transform(t: TruthTable) -> WalshSpectrum:
    values = t.to_array().astype(np.int64)
    values *= -2  # in place, entry i becomes (-1)**f(v_i) without a second buffer
    values += 1
    _hadamard_inplace(values)
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
