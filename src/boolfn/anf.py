"""Algebraic normal form via the binary Moebius transform.

Coefficient index m encodes the monomial that multiplies the variables
whose index bits are set in m (same bit convention as truth tables, so
bit p stands for x_{n-p}).  The transform is an XOR butterfly done
directly on the packed bits, and it is its own inverse, so an affine
table is built as the transform of its degree-1 ANF.

The ANF text lists the terms by degree, descending, then by m, descending.
A term's name is a prefix for the high part of m plus a name for its low
part, the low max(n // 2, min(n, 12)) bits.  degree() and render() read the
coefficients through a per-n grid: one row per high part, one column per
low part, the columns put into popcount blocks with the low parts
descending within each block.  A run, the terms of one degree and one high
part, is then one block of one row, its terms in output order, and the
grid lists the runs in output order with their prefixes.  One read finds
the set cells, ascending, and each run's stretch of them by binary search:
no sort and no popcount per term.

The grid is the one per-n cache of names: each run's prefix and each
column's low name.  A row holds a power of two of cells, so a term's low
name is read by its column, the low bits of its cell.  monomial_string()
spells a name from the bits of m alone and reads nothing from the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .truthtable import TruthTable, check_table, check_vars, pack_bits, unpack_bits


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


def _names(n: int, first: int, stop: int) -> list[str]:
    """The names of the values of index bits first..stop-1, in value order;
    bit p is x_{n-p}, which is written first."""
    names = [""]
    for p in range(first, stop):
        names += [f"x{n - p}{rest}" for rest in names]
    return names


class _Grid(NamedTuple):
    """The per-n layout that degree() and render() read the coefficients
    through; see the module docstring."""

    columns: np.ndarray  # the low part in each grid column
    names: np.ndarray  # the name of each grid column's low part
    edges: np.ndarray  # (2, runs): each run's first cell and the one past its last
    degrees: np.ndarray  # each run's degree, never increasing
    prefixes: np.ndarray  # each run's name prefix: its high part's name, "1" for the constant


@lru_cache(maxsize=None)
def _grid(n: int) -> _Grid:
    """The grid layout on n variables, with its runs in output order."""
    low_bits = max(n // 2, min(n, 12))
    high, low = _names(n, low_bits, n), _names(n, 0, low_bits)
    rows, cols = len(high), len(low)
    weights = np.bitwise_count(np.arange(cols))
    # a stable sort of the reversed popcounts keeps each block's low parts descending
    columns = (cols - 1) - np.argsort(weights[::-1], kind="stable")
    block = np.searchsorted(weights[columns], np.arange(low_bits + 2))  # block q: columns block[q]:block[q + 1]
    # run (d, h) is block d - popcount(h) of row h, for d from n and h from
    # rows - 1 down to 0, wherever that block exists
    degrees, highs = np.arange(n, -1, -1), np.arange(rows - 1, -1, -1)
    low_weight = degrees[:, None] - np.bitwise_count(highs)
    d_at, h_at = ((low_weight >= 0) & (low_weight <= low_bits)).nonzero()
    low_weight, row = low_weight[d_at, h_at], highs[h_at]
    prefixes = np.array(high, dtype=object).take(row)
    # the last run is the constant monomial alone, whose low name is "", so
    # its prefix is its whole name
    prefixes[-1] = "1"
    grid = _Grid(
        columns=columns,
        names=np.array(low, dtype=object).take(columns),
        edges=row * cols + block[np.stack([low_weight, low_weight + 1])],
        degrees=degrees[d_at].astype(np.uint8),
        prefixes=prefixes,
    )
    for shared in grid:
        shared.flags.writeable = False
    return grid


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
    def _runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one read of the coefficients that degree() and render() share:
        the grid columns of the set ones, in the order of their cells; the
        runs that hold any, in output order; and each such run's (first,
        past-last) positions in the cells, as a (2, runs) array."""
        grid = _grid(self.n)
        size = 1 << self.n
        bits = unpack_bits(pack_bits(self.coeffs, size), size).view(bool).reshape(-1, len(grid.columns))
        cells = np.flatnonzero(bits.take(grid.columns, axis=1))
        bounds = cells.searchsorted(grid.edges)
        live = (bounds[0] < bounds[1]).nonzero()[0]
        # a row's length is a power of two, so a cell's column is its low bits
        cells &= len(grid.columns) - 1
        return cells, live, bounds[:, live]

    def monomials(self) -> list[int]:
        """Set coefficient indices, ascending."""
        size = 1 << self.n
        return np.flatnonzero(unpack_bits(pack_bits(self.coeffs, size), size)).tolist()

    def degree(self) -> int:
        """Largest monomial size; 0 for the constants.  The runs are in
        output order, so it is the degree of the first run with a term."""
        live = self._runs[1]
        return int(_grid(self.n).degrees[live[0]]) if live.size else 0

    def monomial_string(self, m: int) -> str:
        """The name of monomial m: x_{n-p} for each set bit p, highest p
        first, and "1" for m = 0."""
        if not 0 <= m < 1 << self.n:
            raise ValueError(f"monomial index {m} outside 0..{(1 << self.n) - 1}")
        return "".join(f"x{self.n - p}" for p in reversed(range(m.bit_length())) if m >> p & 1) or "1"

    def render(self) -> str:
        """Sum of monomials, highest degree first, 'x1x2'-style variables.

        Within one degree the variable tuples ascend lexicographically, which
        is descending m because x1 sits in the top index bit.  The text is
        one join per run that holds a term, prefix + (" + " + prefix).join
        of its low names, with no sort: the grid puts the runs in this order
        and each run's cells in descending m."""
        columns, live, bounds = self._runs
        if not columns.size:
            return "0"
        grid = _grid(self.n)
        names = grid.names.take(columns).tolist()  # the grid's shared str objects
        runs = [
            prefix + (" + " + prefix).join(names[start:stop])
            for prefix, start, stop in zip(grid.prefixes.take(live).tolist(), *bounds.tolist())
        ]
        return " + ".join(runs)


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

