"""Packed truth-table representation for Boolean functions.

A function f on n variables is stored as the 2**n values f(v_0), ...,
f(v_{2**n - 1}) where v_i is the i-th input vector in lexicographic
order: v_0 is all zeros, v_1 = (0, ..., 0, 1), and so on as a binary
counter.  Index bit p (counted from the least significant end) carries
variable x_{n-p}: x_n ticks fastest, x_1 sits in the top bit.

Tables are packed into a single arbitrary-precision integer with table
entry i at bit position i, so weight and distance are popcounts and the
structural operations (complement, reversal, concatenation) are plain
integer arithmetic.

A table has 0..max_vars() variables (30 unless BOOLFN_MAX_N lowers it).
Each rule on packed tables lives in one function here:
- check_vars() checks that range.  Every builder (random_table,
  affine_table, threshold, the majority pieces) calls it before it
  allocates anything table-sized, so a count past the cap is a
  ValueError, never a 2**n-bit allocation.
- check_table() checks a packed value against its variable count; both
  packed types, TruthTable and anf.AnfTable, validate through it.
- check_same_vars() refuses two operands on different variable counts.
- pack_bits() turns a packed int into its little-endian bytes, and
  unpack_bits() turns it into a 0/1 array through them; every other
  byte-level view of a table starts from pack_bits().
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

_DEFAULT_MAX_VARS = 30
_MAX_VARS_ENV = "BOOLFN_MAX_N"

# per-byte bit reversal table for the hex codec
_BYTE_REVERSE = bytes(int(format(i, "08b")[::-1], 2) for i in range(256))
# (shift, mask) of the three steps that reverse each byte of a 64-bit word:
# swap its nibbles, then the bit pairs in each nibble, then the bits in each
# pair; a byte's mask, repeated in all eight bytes, selects the low parts
_BIT_SWAPS = [(np.uint64(s), np.uint64(m * 0x0101010101010101)) for s, m in ((4, 0x0F), (2, 0x33), (1, 0x55))]
_NON_BINARY = re.compile(r"[^01]")
_NON_HEX = re.compile(r"[^0-9a-fA-F]")


def max_vars() -> int:
    """Largest allowed variable count: 30, or BOOLFN_MAX_N (an integer in 0..30)."""
    raw = os.environ.get(_MAX_VARS_ENV)  # read on every call, so a changed setting counts
    if raw is None:
        return _DEFAULT_MAX_VARS
    if not raw.strip().isdecimal() or int(raw) > _DEFAULT_MAX_VARS:
        raise ValueError(f"{_MAX_VARS_ENV} must be an integer in 0..{_DEFAULT_MAX_VARS}, got {raw!r}")
    return int(raw)


def check_vars(n: int, low: int = 0) -> int:
    """n, if it is a variable count in low..max_vars(); else ValueError."""
    cap = max_vars()
    if not low <= n <= cap:
        raise ValueError(f"variable count {n} outside {low}..{cap}")
    return n


def check_table(n: int, bits: int) -> None:
    """ValueError unless n passes check_vars and bits fits in 2**n table bits."""
    if bits < 0 or bits.bit_length() > 1 << check_vars(n):
        raise ValueError(f"packed value does not fit in {1 << n} table bits")


def check_same_vars(a: int, b: int) -> None:
    """ValueError unless the two variable counts are equal."""
    if a != b:
        raise ValueError(f"variable counts differ: {a} vs {b}")


def pack_bits(bits: int, size: int) -> bytes:
    """Bits 0..size-1 of a nonnegative int as bytes, bit i in byte i // 8 at
    bit i % 8; the one packed-int-to-bytes conversion."""
    return bits.to_bytes((size + 7) // 8, "little")


def _reverse_byte_bits(words: np.ndarray) -> None:
    """Reverse the bits within each byte of a uint64 array, in place.

    Its scratch array is freed on return, before the caller builds an int
    of the same size, which can then reuse that memory instead of fresh
    pages."""
    low = np.empty_like(words)
    for shift, mask in _BIT_SWAPS:
        np.bitwise_and(words, mask, out=low)
        low <<= shift
        words >>= shift
        words &= mask
        words |= low


def unpack_bits(bits: int, size: int) -> np.ndarray:
    """Bits 0..size-1 of a nonnegative int as a uint8 array of 0/1."""
    return np.unpackbits(np.frombuffer(pack_bits(bits, size), dtype=np.uint8), count=size, bitorder="little")


@dataclass(frozen=True)
class TruthTable:
    """Boolean function given by its packed 2**n-entry truth table."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        check_table(self.n, self.bits)

    @property
    def size(self) -> int:
        return 1 << self.n

    def bit(self, i: int) -> int:
        if not 0 <= i < self.size:
            raise ValueError(f"table index {i} outside 0..{self.size - 1}")
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_balanced(self) -> bool:
        return 2 * self.weight() == self.size

    def distance(self, other: TruthTable) -> int:
        """Hamming distance: number of table positions where the two differ."""
        check_same_vars(self.n, other.n)
        return (self.bits ^ other.bits).bit_count()

    def __xor__(self, other: TruthTable) -> TruthTable:
        check_same_vars(self.n, other.n)
        return TruthTable(self.n, self.bits ^ other.bits)

    def complement(self) -> TruthTable:
        return TruthTable(self.n, self.bits ^ ((1 << self.size) - 1))

    def reverse(self) -> TruthTable:
        """Table read back-to-front: bit i becomes bit 2**n - 1 - i."""
        size = self.size
        # the words' order and their byte order reversed: the bytes back to front
        words = np.frombuffer(pack_bits(self.bits, max(size, 64)), dtype="<u8")[::-1].byteswap()
        _reverse_byte_bits(words)
        # a table under 64 bits lands in the top bits of its word
        return TruthTable(self.n, int.from_bytes(words.tobytes(), "little") >> (-size % 64))

    def halves(self) -> tuple[TruthTable, TruthTable]:
        """Split into (left, right): entries 0..2**(n-1)-1 and the rest."""
        if self.n == 0:
            raise ValueError("cannot halve a table on zero variables")
        half = self.size // 2
        return (
            TruthTable(self.n - 1, self.bits & ((1 << half) - 1)),
            TruthTable(self.n - 1, self.bits >> half),
        )

    def to_bitstring(self) -> str:
        """'0'/'1' text, entry 0 first."""
        return format(self.bits, f"0{self.size}b")[::-1]

    def to_hex(self) -> str:
        """Hex text, 4 table bits per character, entry 0 in the top bit
        of the first character, '0x' prefix.  Needs a table of >= 4 bits."""
        size = self.size
        if size < 4:
            raise ValueError("hex format needs a table of at least 4 bits")
        raw = pack_bits(self.bits, size)
        return "0x" + raw.translate(_BYTE_REVERSE).hex()[: size // 4]

    def to_array(self) -> np.ndarray:
        """Table entries as a uint8 array of 0/1, entry i at position i."""
        return unpack_bits(self.bits, self.size)


def from_bitstring(s: str) -> TruthTable:
    """Parse '0'/'1' text, first character = table entry 0."""
    bad = _NON_BINARY.search(s)
    if bad:
        raise ValueError(f"invalid character {bad.group()!r} at position {bad.start()}")
    return TruthTable(_table_vars(len(s)), int(s[::-1], 2))


def _table_vars(length: int) -> int:
    """Variable count of a table with `length` entries."""
    if length == 0 or length & (length - 1):
        raise ValueError(f"table length {length} is not a power of two")
    return length.bit_length() - 1


def from_hex(s: str) -> TruthTable:
    """Parse '0x...' hex text as written by TruthTable.to_hex."""
    if not s.startswith(("0x", "0X")):
        raise ValueError("hex table text must start with '0x'")
    digits = s[2:]
    bad = _NON_HEX.search(digits)  # checked here: bytes.fromhex skips whitespace
    if bad:
        raise ValueError(f"invalid hex character {bad.group()!r} at position {bad.start() + 2}")
    if not digits:
        raise ValueError("hex table text has no digits")
    n = _table_vars(4 * len(digits))
    raw = bytes.fromhex(digits + "0" * (len(digits) % 2))  # one digit: the 4-entry table
    return TruthTable(n, int.from_bytes(raw.translate(_BYTE_REVERSE), "little"))


def concat(left: TruthTable, right: TruthTable) -> TruthTable:
    """Join two tables on n variables into one on n + 1; left comes first."""
    check_same_vars(left.n, right.n)
    return TruthTable(left.n + 1, left.bits | right.bits << left.size)


def random_table(n: int, rng: np.random.Generator) -> TruthTable:
    """Uniformly random table on n variables."""
    size = 1 << check_vars(n)
    raw = rng.bytes((size + 7) // 8)
    return TruthTable(n, int.from_bytes(raw, "little") & ((1 << size) - 1))
