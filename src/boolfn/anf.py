"""Algebraic normal form via the binary Moebius transform.

Coefficient index m encodes the monomial that multiplies the variables
whose index bits are set in m (same bit convention as truth tables, so
bit p stands for x_{n-p}).  An AnfTable holds its coefficients as packed
bytes laid out as a table's, and a.coeffs is the same as one int.  The
transform is an XOR butterfly on the packed bytes, from a table's bytes to
its ANF's and back: the passes inside each byte are one translate through a
256-entry table, and each pass above the byte XORs words of up to 8 bytes.
It is its own inverse, so an affine table is built as the transform of its
degree-1 ANF.

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

The text is built a run at a time: render_pieces() lists, for each run,
the separator, the prefix and the run's low names joined.  render() is
the join of that list, and the CLI writes the pieces as they are, so it
holds no copy of the whole text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .truthtable import TruthTable, check_table, check_vars, pack_bits, unpack_bits


def _byte_mobius(n: int) -> bytes:
    """Entry b: byte b after the Moebius passes inside a table of min(n, 3)
    variables; those passes leave the bits past the table as they are."""
    b = np.arange(256, dtype=np.uint8)
    for shift, low in ((1, 0x55), (2, 0x33), (4, 0x0F))[:n]:
        b ^= (b & low) << shift
    return b.tobytes()


# Indexed by min(n, 3), as a table under one byte has 1, 2 or 4 points.
_BYTE_MOBIUS = tuple(_byte_mobius(n) for n in range(4))


def _mobius(packed: bytes, n: int) -> bytes:
    """The Moebius transform of a table's packed bytes, its own inverse: the
    passes inside each byte as one translate, then each pass above the byte
    XORs the first h bytes of every 2h into the second, both seen as words
    of min(h, 8) bytes."""
    words = np.frombuffer(bytearray(packed.translate(_BYTE_MOBIUS[min(n, 3)])), dtype=np.uint8)
    for p in range(n - 3):  # h = 2**p bytes, in words of 2**min(p, 3) bytes
        pairs = words.view(f"u{1 << min(p, 3)}").reshape(-1, 2, 1 << max(p - 3, 0))
        pairs[:, 1] ^= pairs[:, 0]
    return words.tobytes()


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


@dataclass(frozen=True, init=False)
class AnfTable:
    """Moebius coefficients as packed bytes, laid out as a table's: bit m is
    the coefficient of monomial m.  AnfTable(n, coeffs) takes them as an
    int, bit m the coefficient of m, validated by check_table."""

    n: int
    packed: bytes

    def __init__(self, n: int, coeffs: int) -> None:
        check_table(n, coeffs)
        # written directly, past the frozen dataclass's __setattr__; coeffs is
        # kept, so self.coeffs costs nothing
        self.__dict__.update(n=n, packed=pack_bits(coeffs, 1 << n), coeffs=coeffs)

    @cached_property
    def coeffs(self) -> int:
        """The coefficients as one nonnegative int, bit m the coefficient of
        monomial m, built from the packed bytes on first use."""
        return int.from_bytes(self.packed, "little")

    def to_truthtable(self) -> TruthTable:
        """The table of the function: the Moebius transform of the coefficients."""
        return TruthTable.from_packed(self.n, _mobius(self.packed, self.n))

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one read of the coefficients that degree() and render() share:
        the grid columns of the set ones, in the order of their cells; the
        runs that hold any, in output order; and each such run's (first,
        past-last) positions in the cells, as a (2, runs) array."""
        grid = _grid(self.n)
        bits = unpack_bits(self.packed, 1 << self.n).view(bool).reshape(-1, len(grid.columns))
        cells = np.flatnonzero(bits.take(grid.columns, axis=1))
        bounds = cells.searchsorted(grid.edges)
        live = (bounds[0] < bounds[1]).nonzero()[0]
        # a row's length is a power of two, so a cell's column is its low bits
        cells &= len(grid.columns) - 1
        return cells, live, bounds[:, live]

    def monomials(self) -> list[int]:
        """Set coefficient indices, ascending."""
        return np.flatnonzero(unpack_bits(self.packed, 1 << self.n)).tolist()

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

    def render_pieces(self) -> list[str]:
        """render()'s text as a list of pieces, in order: for each run that
        holds a term, the separator " + " (none before the first run), the
        run's prefix and (" + " + prefix).join of its low names; ["0"] for
        the zero function.  Every piece is built before the list is
        returned, so a caller can write them one by one with no joined copy
        of the text."""
        columns, live, bounds = self._runs
        if not columns.size:
            return ["0"]
        grid = _grid(self.n)
        names = grid.names.take(columns).tolist()  # the grid's shared str objects
        pieces = []
        for prefix, start, stop in zip(grid.prefixes.take(live).tolist(), *bounds.tolist()):
            pieces += (" + ", prefix, (" + " + prefix).join(names[start:stop]))
        del pieces[0]
        return pieces

    def render(self) -> str:
        """Sum of monomials, highest degree first, 'x1x2'-style variables.

        Within one degree the variable tuples ascend lexicographically, which
        is descending m because x1 sits in the top index bit.  The text is
        the join of render_pieces(), with no sort: the grid puts the runs in
        this order and each run's cells in descending m."""
        return "".join(self.render_pieces())


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
    # the transform of a valid table is valid on the same n: no second check
    a = object.__new__(AnfTable)
    a.__dict__.update(n=t.n, packed=_mobius(t.packed, t.n))
    return a

