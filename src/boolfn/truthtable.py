"""Packed truth-table representation for Boolean functions.

A function f on n variables is stored as the 2**n values f(v_0), ...,
f(v_{2**n - 1}) where v_i is the i-th input vector in lexicographic
order: v_0 is all zeros, v_1 = (0, ..., 0, 1), and so on as a binary
counter.  Index bit p (counted from the least significant end) carries
variable x_{n-p}: x_n ticks fastest, x_1 sits in the top bit.

A table is held as its (2**n + 7) // 8 packed bytes, little-endian: table
entry i is bit i % 8 of byte i // 8.  A table under 8 points has one byte
whose unused high bits are clear, so equal tables have equal bytes.
Weight and distance are popcounts of the bytes, and the structural
operations slice, join, XOR and bit-reverse them, with no Python int in
between.  t.bits is the same table as one int, entry i at bit i, for
callers that want an int and for the binary codec: to_bitstring formats
it, and from_bitstring parses its text as one int, int(s[::-1], 2).  No
other kernel reads or builds it.

A table has 0..max_vars() variables (30 unless BOOLFN_MAX_N lowers it).
Each rule on packed tables lives in one function here:
- check_vars() checks that range.  Every builder (random_table,
  affine_table, threshold, the majority pieces) calls it before it
  allocates anything table-sized, so a count past the cap is a
  ValueError, never a 2**n-bit allocation.
- check_table() checks a packed table, as an int or as its packed bytes,
  against its variable count; TruthTable, its bytes constructor
  TruthTable.from_packed and anf.AnfTable validate through it.
- check_same_vars() refuses two operands on different variable counts.
- pack_bits() turns a packed int into its bytes, the one int-to-bytes
  conversion: TruthTable(n, bits) and anf.AnfTable(n, coeffs) pack through
  it once, and every kernel but the binary codec (the hex codec, the
  Walsh kernel, the oracle, the Moebius transform) reads the packed
  bytes.  unpack_bits() turns packed bytes into a 0/1 array.

from_bitstring() checks its text with one regex search.  from_hex() checks
its text with binascii.unhexlify alone, which decodes it in the same read
and, unlike bytes.fromhex, refuses whitespace; only text that it refuses
is searched by a regex, to name the first bad character and its position.
"""

from __future__ import annotations

import binascii
import os
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_DEFAULT_MAX_VARS = 30
_MAX_VARS_ENV = "BOOLFN_MAX_N"

# per-byte bit reversal table for the hex codec
_BYTE_REVERSE = bytes(int(format(i, "08b")[::-1], 2) for i in range(256))
# (shift, mask) of the three steps that reverse each byte of a 64-bit word:
# swap its nibbles, then the bit pairs in each nibble, then the bits in each
# pair; a byte's mask, repeated in all eight bytes, selects the low parts
_BIT_SWAPS = [(np.uint64(s), np.uint64(m * 0x0101010101010101)) for s, m in ((4, 0x0F), (2, 0x33), (1, 0x55))]
# Indexed by min(n, 3): the bits of a packed byte that a table on n
# variables uses, 1, 2 or 4 of them under one byte and all 8 from n = 3 on.
_FILL = tuple((1 << (1 << n)) - 1 for n in range(4))
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


def check_table(n: int, bits: int | bytes) -> None:
    """ValueError unless n passes check_vars and bits fits in 2**n table bits:
    a nonnegative int below 2**(2**n), or bytes of the packed length
    (2**n + 7) // 8 with the bits past the table clear."""
    size = 1 << check_vars(n)
    if isinstance(bits, bytes):
        # only a table under 8 points has bits past it, in its one byte
        fits = len(bits) == (size + 7) // 8 and not bits[0] >> size
    else:
        fits = bits >= 0 and bits.bit_length() <= size
    if not fits:
        raise ValueError(f"packed value does not fit in {size} table bits")


def check_same_vars(a: int, b: int) -> None:
    """ValueError unless the two variable counts are equal."""
    if a != b:
        raise ValueError(f"variable counts differ: {a} vs {b}")


def pack_bits(bits: int, size: int) -> bytes:
    """Bits 0..size-1 of a nonnegative int as bytes, bit i in byte i // 8 at
    bit i % 8; the one packed-int-to-bytes conversion."""
    return bits.to_bytes((size + 7) // 8, "little")


def unpack_bits(packed: bytes, size: int) -> np.ndarray:
    """Bits 0..size-1 of packed bytes as a uint8 array of 0/1."""
    return np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=size, bitorder="little")


def _reverse_byte_bits(words: np.ndarray) -> None:
    """Reverse the bits within each byte of a uint64 array, in place.

    Its scratch array is freed on return, before the caller copies the
    words out, which can then reuse that memory instead of fresh pages."""
    low = np.empty_like(words)
    for shift, mask in _BIT_SWAPS:
        np.bitwise_and(words, mask, out=low)
        low <<= shift
        words >>= shift
        words &= mask
        words |= low


def _table(n: int, packed: bytes) -> TruthTable:
    """The table on n variables held in packed, bytes already known to be
    valid for n; no check and no copy."""
    t = object.__new__(TruthTable)
    fields = t.__dict__  # written directly, past the frozen dataclass's __setattr__
    fields["n"], fields["packed"] = n, packed
    return t


@dataclass(frozen=True, init=False, repr=False)
class TruthTable:
    """Boolean function given by its packed 2**n-entry truth table.

    TruthTable(n, bits) takes the table as an int, entry i at bit i;
    TruthTable.from_packed(n, packed) takes its packed bytes.  Either is
    validated by check_table, and equal tables are equal, with equal
    hashes, however they were built."""

    n: int
    packed: bytes

    def __init__(self, n: int, bits: int) -> None:
        check_table(n, bits)
        fields = self.__dict__  # as in _table; bits is kept, so self.bits costs nothing
        fields["n"], fields["packed"], fields["bits"] = n, pack_bits(bits, 1 << n), bits

    @classmethod
    def from_packed(cls, n: int, packed: bytes) -> TruthTable:
        """The table on n variables whose packed bytes are packed (see the
        module docstring): (2**n + 7) // 8 bytes, any bits past a table
        under 8 points clear; anything else is check_table's ValueError."""
        check_table(n, packed)
        return _table(n, packed)

    @cached_property
    def bits(self) -> int:
        """The table as one nonnegative int, entry i at bit i, built from the
        packed bytes on first use when the table was not built from it."""
        return int.from_bytes(self.packed, "little")

    def __repr__(self) -> str:
        # hex, which has no digit limit: str() of an int past 4300 digits, a
        # table on 14 variables or more, is a ValueError
        return f"TruthTable(n={self.n}, bits={self.bits:#x})"

    @property
    def size(self) -> int:
        return 1 << self.n

    def weight(self) -> int:
        if self.n <= 6:  # one 64-bit word at most: one int, where numpy's per-call cost would dominate
            return self.bits.bit_count()
        return int(np.bitwise_count(np.frombuffer(self.packed, dtype="<u8")).sum())

    def distance(self, other: TruthTable) -> int:
        """Hamming distance: number of table positions where the two differ."""
        return (self ^ other).weight()

    def __xor__(self, other: TruthTable) -> TruthTable:
        check_same_vars(self.n, other.n)
        xor = np.frombuffer(self.packed, dtype=np.uint8) ^ np.frombuffer(other.packed, dtype=np.uint8)
        return _table(self.n, xor.tobytes())

    def complement(self) -> TruthTable:
        return _table(self.n, (np.frombuffer(self.packed, dtype=np.uint8) ^ _FILL[min(self.n, 3)]).tobytes())

    def reverse(self) -> TruthTable:
        """Table read back-to-front: bit i becomes bit 2**n - 1 - i."""
        size = self.size
        # the words' order and their byte order reversed: the bytes back to front
        words = np.frombuffer(self.packed.ljust(8, b"\0"), dtype="<u8")[::-1].byteswap()
        _reverse_byte_bits(words)
        if size < 64:  # a table under one word lands in the top bits of its word
            words >>= np.uint64(64 - size)
        return _table(self.n, words.tobytes()[: len(self.packed)])

    def half_packed(self, j: int) -> bytes:
        """The packed bytes of half j, 0 the left and 1 the right (see
        halves), with no table built."""
        if self.n == 0:
            raise ValueError("cannot halve a table on zero variables")
        packed = self.packed
        if self.n > 3:  # each half is whole bytes
            middle = len(packed) // 2
            return packed[middle:] if j else packed[:middle]
        half = self.size // 2
        return bytes([packed[0] >> half if j else packed[0] & _FILL[self.n - 1]])

    def halves(self) -> tuple[TruthTable, TruthTable]:
        """Split into (left, right): entries 0..2**(n-1)-1 and the rest."""
        return _table(self.n - 1, self.half_packed(0)), _table(self.n - 1, self.half_packed(1))

    def to_bitstring(self) -> str:
        """'0'/'1' text, entry 0 first."""
        return format(self.bits, f"0{self.size}b")[::-1]

    def to_hex(self) -> str:
        """Hex text, 4 table bits per character, entry 0 in the top bit
        of the first character, '0x' prefix.  Needs a table of >= 4 bits."""
        size = self.size
        if size < 4:
            raise ValueError("hex format needs a table of at least 4 bits")
        return "0x" + self.packed.translate(_BYTE_REVERSE).hex()[: size // 4]


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
    try:
        raw = binascii.unhexlify(digits + "0" * (len(digits) % 2))  # one digit: the 4-entry table
    except ValueError:  # binascii.Error for a non-hex digit, ValueError for non-ASCII text
        bad = _NON_HEX.search(digits)  # read again only now, to name the first bad character
        raise ValueError(f"invalid hex character {bad.group()!r} at position {bad.start() + 2}") from None
    if not digits:
        raise ValueError("hex table text has no digits")
    n = _table_vars(4 * len(digits))
    return TruthTable.from_packed(n, raw.translate(_BYTE_REVERSE))


def concat(left: TruthTable, right: TruthTable) -> TruthTable:
    """Join two tables on n variables into one on n + 1; left comes first."""
    check_same_vars(left.n, right.n)
    if left.n >= 3:  # whole bytes
        return _table(left.n + 1, left.packed + right.packed)
    return _table(left.n + 1, bytes([left.packed[0] | right.packed[0] << left.size]))


def random_table(n: int, rng: np.random.Generator) -> TruthTable:
    """Uniformly random table on n variables."""
    size = 1 << check_vars(n)
    raw = rng.bytes((size + 7) // 8)
    if n < 3:  # clear the bits past the table
        raw = bytes([raw[0] & _FILL[n]])
    return _table(n, raw)
