"""Representation-level checks: packing, codecs, structural operations."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolfn import (
    TruthTable,
    concat,
    from_bitstring,
    from_hex,
    max_vars,
    random_table,
)
from boolfn.cli import analyze_table
from boolfn.truthtable import unpack_bits

from conftest import truth_tables


class TestConstruction:
    def test_bits_must_fit(self):
        TruthTable(2, 0b1111)
        with pytest.raises(ValueError):
            TruthTable(2, 0b10000)
        with pytest.raises(ValueError):
            TruthTable(2, -1)

    def test_variable_cap(self, monkeypatch):
        with pytest.raises(ValueError):
            TruthTable(max_vars() + 1, 0)
        monkeypatch.setenv("BOOLFN_MAX_N", "4")
        assert max_vars() == 4
        with pytest.raises(ValueError):
            TruthTable(5, 0)

    @pytest.mark.parametrize("value", ["abc", "-1", "31"])
    def test_variable_cap_validated(self, monkeypatch, value):
        monkeypatch.setenv("BOOLFN_MAX_N", value)
        with pytest.raises(ValueError, match=r"BOOLFN_MAX_N must be an integer in 0\.\.30"):
            max_vars()

    def test_bit_matches_evaluate(self):
        # bit i is the value at v_i, the bitstring's i-th character
        text = "00010110"
        t = from_bitstring(text)
        bits = unpack_bits(t.packed, t.size)
        for i in range(8):
            assert bits[i] == int(text[i])


class TestMeasures:
    @given(truth_tables())
    def test_weight_is_ones_count(self, t):
        assert t.weight() == t.to_bitstring().count("1")

    @given(truth_tables(min_n=1))
    def test_balanced(self, t):
        assert analyze_table(t).balanced == (t.weight() == t.size // 2)

    @given(truth_tables(), st.integers(min_value=0))
    def test_distance_is_xor_weight(self, t, seed):
        other = TruthTable(t.n, seed % (1 << t.size))
        assert t.distance(other) == (t ^ other).weight()
        assert t.distance(other) == other.distance(t)
        assert t.distance(t) == 0

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError, match="variable counts differ: 1 vs 2"):
            from_bitstring("01").distance(from_bitstring("0110"))
        with pytest.raises(ValueError, match="variable counts differ: 1 vs 2"):
            from_bitstring("01") ^ from_bitstring("0110")
        with pytest.raises(ValueError, match="variable counts differ: 1 vs 2"):
            concat(from_bitstring("01"), from_bitstring("0110"))


class TestStructuralOps:
    @given(truth_tables())
    def test_complement_flips_everything(self, t):
        c = t.complement()
        assert c.weight() == t.size - t.weight()
        assert c.complement() == t

    @given(truth_tables())
    def test_reverse_is_involution(self, t):
        assert t.reverse().reverse() == t

    @given(truth_tables())
    def test_reverse_maps_bit_positions(self, t):
        r, bits = unpack_bits(t.reverse().packed, t.size), unpack_bits(t.packed, t.size)
        for i in range(t.size):
            assert r[i] == bits[t.size - 1 - i]

    def test_reverse_crosses_byte_boundary(self):
        # a 16-entry table: its bytes trade places and each is bit-reversed
        t = from_bitstring("0000000100010111")
        assert t.reverse().to_bitstring() == "1110100010000000"

    @pytest.mark.parametrize("n", range(5))
    def test_reverse_every_small_table(self, n):
        # every table under one 64-bit word, which reverse() pads to one
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            assert t.reverse().to_bitstring() == t.to_bitstring()[::-1], t

    @pytest.mark.parametrize("n", range(5, 21))
    def test_reverse_random_tables(self, n):
        # n = 5 is half a word, n = 6 one word, and from n = 7 on several
        rng = np.random.default_rng(n)
        for t in (random_table(n, rng), random_table(n, rng)):
            assert t.reverse().to_bitstring() == t.to_bitstring()[::-1]

    @given(truth_tables(min_n=1))
    def test_halves_concat_round_trip(self, t):
        left, right = t.halves()
        assert concat(left, right) == t
        assert left.to_bitstring() + right.to_bitstring() == t.to_bitstring()

    def test_cannot_halve_point(self):
        with pytest.raises(ValueError):
            TruthTable(0, 1).halves()


class TestCodecs:
    def test_bitstring_entry_zero_first(self):
        t = from_bitstring("1000")
        assert unpack_bits(t.packed, t.size)[0] == 1 and t.weight() == 1

    @given(truth_tables())
    def test_bitstring_round_trip(self, t):
        assert from_bitstring(t.to_bitstring()) == t

    @given(truth_tables(min_n=2))
    def test_hex_round_trip(self, t):
        text = t.to_hex()
        assert text.startswith("0x")
        assert from_hex(text) == t

    @given(st.integers(2, 20), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_hex_round_trip_wide(self, n, seed):
        t = random_table(n, np.random.default_rng(seed))
        assert from_hex(t.to_hex()) == t

    def test_hex_known_value(self):
        # entry 0 occupies the top bit of the first hex digit
        assert from_bitstring("0001").to_hex() == "0x1"
        assert from_bitstring("1000").to_hex() == "0x8"
        assert from_bitstring("00010110").to_hex() == "0x16"
        for d in "0123456789abcdef":
            assert from_hex("0x" + d) == from_bitstring(format(int(d, 16), "04b"))
        # the prefix and the digits may be either case
        assert from_hex("0X0117177F") == from_hex("0x0117177f")

    def test_hex_needs_four_bits(self):
        with pytest.raises(ValueError):
            TruthTable(1, 0b01).to_hex()

    # "0_10" would pass int(s, 2), which allows underscores
    @pytest.mark.parametrize(
        ("text", "char", "position"), [("012x", "2", 2), ("0_10", "_", 1), (" 0110", " ", 0), ("0110\n", "\n", 4)]
    )
    def test_bitstring_errors_name_position(self, text, char, position):
        with pytest.raises(ValueError, match=re.escape(f"invalid character {char!r} at position {position}")):
            from_bitstring(text)

    def test_parse_errors_name_position(self):
        with pytest.raises(ValueError, match="power of two"):
            from_bitstring("010")
        with pytest.raises(ValueError, match="0x"):
            from_hex("ff")
        with pytest.raises(ValueError, match="position 3"):
            from_hex("0xfg")
        with pytest.raises(ValueError, match="no digits"):
            from_hex("0x")
        assert from_hex("0x1") == from_bitstring("0001")
        # characters that bytes.fromhex refuses, named as the regex finds them
        for text, char in [("0x\u0661\u0662", "\u0661"), ("0x\uff10\uff11", "\uff10"), ("0xgf", "g"), ("0x\xe9", "\xe9")]:
            with pytest.raises(ValueError, match=re.escape(f"invalid hex character {char!r} at position 2")):
                from_hex(text)

    # bytes.fromhex skips whitespace between digit pairs, and refuses it inside one
    @pytest.mark.parametrize(
        ("text", "position"),
        [("0x12 34", 4), ("0x12\n", 4), ("0x12\t34", 4), ("0x1234 ", 6), ("0x12  34", 4), ("0x1 2", 3), ("0x 123", 2)],
    )
    def test_hex_rejects_whitespace(self, text, position):
        with pytest.raises(ValueError, match=re.escape(f"invalid hex character {text[position]!r} at position {position}")):
            from_hex(text)

    @given(truth_tables())
    def test_array_matches_bits(self, t):
        arr = unpack_bits(t.packed, t.size)
        assert arr.shape == (t.size,)
        assert arr.dtype == np.uint8
        assert all(arr[i] == t.bits >> i & 1 for i in range(t.size))


_FLIP = str.maketrans("01", "10")


def _hex_reference(s: str) -> str:
    """to_hex() of the table with '0'/'1' text s, four characters per digit."""
    return "0x" + "".join(format(int(s[i : i + 4], 2), "x") for i in range(0, len(s), 4))


def _check_packed(t: TruthTable) -> None:
    """t's bytes have the packed length, and any bits past a table under 8
    points are clear."""
    assert len(t.packed) == (t.size + 7) // 8
    assert t.packed[0] >> t.size == 0


def _check_one(t: TruthTable, text: str, indices, reverse: bool = True) -> None:
    """Every single-table operation on t, against text, t's '0'/'1' text;
    reverse() only with reverse."""
    size = len(text)
    assert t.to_bitstring() == text
    assert t.weight() == text.count("1")
    bits = unpack_bits(t.packed, t.size)
    assert [bits[i] for i in indices] == [int(text[i]) for i in indices]
    c = t.complement()
    assert c.to_bitstring() == text.translate(_FLIP)
    _check_packed(t)
    _check_packed(c)
    if reverse:
        r = t.reverse()
        assert r.to_bitstring() == text[::-1]
        _check_packed(r)
    if size >= 4:
        assert t.to_hex() == _hex_reference(text)
    if t.n:
        left, right = t.halves()
        assert (left.to_bitstring(), right.to_bitstring()) == (text[: size // 2], text[size // 2 :])
        assert (t.half_packed(0), t.half_packed(1)) == (left.packed, right.packed)
        joined = concat(left, right)
        assert joined == t and hash(joined) == hash(t)
        for table in (left, right, joined):
            _check_packed(table)


def _check_pair(t: TruthTable, u: TruthTable) -> None:
    """The two-table operations on t and u, tables on the same n, against
    their '0'/'1' text."""
    s, v = t.to_bitstring(), u.to_bitstring()
    x = t ^ u
    assert x.to_bitstring() == "".join("1" if a != b else "0" for a, b in zip(s, v))
    assert t.distance(u) == x.weight() == sum(a != b for a, b in zip(s, v))
    assert (t == u) == (s == v)
    joined = concat(t, u)
    assert joined.to_bitstring() == s + v
    for table in (x, joined):
        _check_packed(table)


class TestPackedBytes:
    """Each operation on the packed bytes against a reference built from
    the '0'/'1' text, with the bytes checked after every operation."""

    @pytest.mark.parametrize("n", range(5))
    def test_every_table(self, n):
        # n <= 3 fits in one byte, with bits past the table from n = 0 to 2
        size = 1 << n
        tables = [TruthTable(n, bits) for bits in range(1 << size)]
        for bits, t in enumerate(tables):
            # reverse() on n = 4 has its own exhaustive test
            _check_one(t, format(bits, f"0{size}b")[::-1], range(size), reverse=n <= 3)
        # every pair up to n = 3; on n = 4, each table with the one 0x5A5A away
        for bits, t in enumerate(tables):
            for other in range(len(tables)) if n <= 3 else (bits ^ 0x5A5A,):
                _check_pair(t, tables[other])

    @pytest.mark.parametrize("n", range(5, 21))
    def test_random_tables(self, n):
        # n = 5 is half a word, n = 6 one word, from n = 7 on numpy popcounts words
        rng = np.random.default_rng(n)
        t, u = random_table(n, rng), random_table(n, rng)
        size = 1 << n
        indices = sorted({0, 7, 8, size - 1, *rng.integers(0, size, 64).tolist()})
        for table in (t, u):
            _check_one(table, table.to_bitstring(), indices)
            assert table.bits.bit_count() == table.weight()
        _check_pair(t, u)
        _check_pair(t, t)

    def test_complement_leaves_the_bits_past_the_table_clear(self):
        # a table on 1 variable uses bits 0 and 1 of its byte, so bits 2..7 stay clear
        assert TruthTable(1, 0b01).complement().packed == b"\x02"
        assert [TruthTable(n, 0).complement().packed for n in range(5)] == [
            b"\x01", b"\x03", b"\x0f", b"\xff", b"\xff\xff"
        ]

    def test_tables_on_different_counts_differ(self):
        # the same packed byte on 0, 1 and 2 variables
        tables = [TruthTable(n, 1) for n in range(3)]
        assert len({t.packed for t in tables}) == 1
        assert len(set(tables)) == 3

    @given(truth_tables())
    def test_both_constructors_agree(self, t):
        by_bytes = TruthTable.from_packed(t.n, t.packed)
        by_int = TruthTable(t.n, t.bits)
        assert by_bytes == by_int and hash(by_bytes) == hash(by_int)
        assert by_bytes.bits == by_int.bits == int(t.to_bitstring()[::-1], 2)
        assert repr(by_bytes) == repr(by_int) == f"TruthTable(n={t.n}, bits={t.bits:#x})"

    @pytest.mark.parametrize("n", [0, 3, 14, 16])
    def test_repr_evaluates_back(self, n):
        # from n = 14 on the table's int has more than 4300 decimal digits
        t = random_table(n, np.random.default_rng(n))
        assert eval(repr(t), {"TruthTable": TruthTable}) == t

    @pytest.mark.parametrize(
        ("n", "packed"),
        [
            (0, b"\x02"),  # a bit past the one point
            (1, b"\x04"),
            (2, b"\x10"),
            (2, b"\x80"),
            (0, b""),  # too short
            (3, b""),
            (4, b"\xff"),
            (2, b"\x00\x00"),  # too long
            (4, b"\x00\x00\x00"),
        ],
    )
    def test_from_packed_refuses_what_does_not_fit(self, n, packed):
        message = f"packed value does not fit in {1 << n} table bits"
        with pytest.raises(ValueError, match=re.escape(message)):
            TruthTable(n, 1 << (1 << n))  # the int constructor's message
        with pytest.raises(ValueError, match=re.escape(message)):
            TruthTable.from_packed(n, packed)

    def test_from_packed_checks_the_variable_count(self):
        with pytest.raises(ValueError, match=re.escape(f"variable count {max_vars() + 1} outside 0..{max_vars()}")):
            TruthTable.from_packed(max_vars() + 1, b"")


class TestRandomTables:
    def test_deterministic_under_seed(self):
        a = random_table(6, np.random.default_rng(7))
        b = random_table(6, np.random.default_rng(7))
        assert a == b and a.n == 6

    def test_respects_size(self, rng):
        for n in range(0, 9):
            assert random_table(n, rng).size == 1 << n

    @pytest.mark.parametrize("n", [-1, 31])
    def test_cap_is_checked_before_drawing(self, n):
        class NoDraws:
            def bytes(self, length):
                raise AssertionError(f"drew {length} bytes for {n} variables")

        message = f"variable count {n} outside 0..{max_vars()}"
        with pytest.raises(ValueError, match=re.escape(message)):
            random_table(n, NoDraws())
