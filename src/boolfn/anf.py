"""Algebraic normal form via the binary Moebius transform.

Coefficient index m encodes the monomial that multiplies the variables
whose index bits are set in m (same bit convention as truth tables, so
bit p stands for x_{n-p}).  The transform is an XOR butterfly done
directly on the packed bits, and it is its own inverse, so an affine
table is built as the transform of its degree-1 ANF.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .truthtable import TruthTable, check_table, check_vars, unpack_bits


def _low_mask(block: int, size: int) -> int:
    """The low `block` bits of every 2*block-bit group of a size-bit table,
    built by doubling (dividing an all-ones integer is far slower)."""
    mask = (1 << block) - 1
    width = 2 * block
    while width < size:
        mask |= mask << width
        width <<= 1
    return mask


def _mobius(bits: int, n: int) -> int:
    """Packed XOR butterfly; self-inverse subset-sum over GF(2)."""
    size = 1 << n
    block = 1
    while block < size:
        bits ^= (bits & _low_mask(block, size)) << block
        block <<= 1
    return bits


@lru_cache(maxsize=None)
def _name_tables(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Monomial names of the high and low parts of the index bits, as
    read-only object arrays of str, and the low part's width: the name of m
    is high[m >> low_bits] + low[m & mask].  The low part takes up to 12
    bits, so every n <= 12 has the one prefix "", and neither table passes
    2**15 names at n = 30."""
    low_bits = max(n // 2, min(n, 12))

    def table(first: int, stop: int) -> np.ndarray:
        names = [""]
        for p in range(first, stop):  # bit p is x_{n-p}, which is written first
            names += [f"x{n - p}{rest}" for rest in names]
        shared = np.array(names, dtype=object)
        shared.flags.writeable = False
        return shared

    return table(low_bits, n), table(0, low_bits), low_bits


@dataclass(frozen=True)
class AnfTable:
    """Packed Moebius coefficients; bit m is the coefficient of monomial m."""

    n: int
    coeffs: int

    def __post_init__(self) -> None:
        check_table(self.n, self.coeffs)

    def to_truthtable(self) -> TruthTable:
        """The table of the function: the Moebius transform of the coefficients."""
        return TruthTable(self.n, _mobius(self.coeffs, self.n))

    @cached_property
    def _terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Set coefficient indices, ascending, and their popcounts: the
        monomial sizes, which degree() and render() share."""
        idx = np.flatnonzero(unpack_bits(self.coeffs, 1 << self.n))
        return idx, np.bitwise_count(idx)

    def monomials(self) -> list[int]:
        """Set coefficient indices, ascending."""
        return self._terms[0].tolist()

    def degree(self) -> int:
        """Largest monomial size; 0 for the constants."""
        sizes = self._terms[1]
        return int(sizes.max()) if sizes.size else 0

    def monomial_string(self, m: int) -> str:
        if not 0 <= m < 1 << self.n:
            raise ValueError(f"monomial index {m} outside 0..{(1 << self.n) - 1}")
        if m == 0:
            return "1"
        high, low, low_bits = _name_tables(self.n)
        return high[m >> low_bits] + low[m & (len(low) - 1)]

    def render(self) -> str:
        """Sum of monomials, highest degree first, 'x1x2'-style variables.

        Within one degree the variable tuples ascend lexicographically, which
        is descending m because x1 sits in the top index bit."""
        idx, sizes = self._terms
        if not idx.size:
            return "0"
        # (degree, m) packed into one key; keys are distinct, so reversing the
        # ascending sort gives the descending order
        keys = np.sort(np.left_shift(sizes, self.n, dtype=idx.dtype) | idx)[::-1]
        high, low, low_bits = _name_tables(self.n)
        names = low.take(keys & (len(low) - 1)).tolist()  # the shared str objects
        # a run is a stretch of terms with one high part of m, so one name prefix
        tops = keys & ((1 << self.n) - len(low))
        cuts = [i + 1 for i in (tops[1:] != tops[:-1]).nonzero()[0].tolist()]
        runs = []
        for start, stop in zip([0] + cuts, cuts + [len(names)]):
            prefix = high[tops.item(start) >> low_bits]
            runs.append(prefix + (" + " + prefix).join(names[start:stop]))
        # the constant monomial has degree 0, so it is last, named ""
        text = " + ".join(runs)
        return text + "1" if self.coeffs & 1 else text


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
    """Truth table of the affine function; table bit i = c + parity(mask & i).

    It is the Moebius transform of its ANF, which has the constant at
    coefficient 0 and mask bit p, the variable x_{n-p}, at coefficient 2**p."""
    check_vars(n)  # before any table-sized integer is built
    if spec.mask >> n:
        raise ValueError(f"mask {spec.mask:#x} has bits beyond {n} variables")
    coeffs = spec.constant | sum(1 << (1 << p) for p in range(n) if spec.mask >> p & 1)
    return AnfTable(n, coeffs).to_truthtable()


def to_anf(t: TruthTable) -> AnfTable:
    """The ANF coefficients of t: the Moebius transform of its table."""
    return AnfTable(t.n, _mobius(t.bits, t.n))

