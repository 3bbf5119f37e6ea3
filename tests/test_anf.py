"""Moebius transform checks against pointwise polynomial evaluation."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolfn import AnfTable, TruthTable, from_bitstring, random_table, to_anf
from boolfn.anf import _grid
from boolfn.truthtable import pack_bits, unpack_bits

from conftest import truth_tables


def evaluate_anf(a: AnfTable, x: int) -> int:
    """XOR of coefficients over monomials contained in the point index."""
    value = 0
    for m in a.monomials():
        if m & x == m:
            value ^= 1
    return value


def definition_render(t: TruthTable) -> str:
    """ANF text from the coefficient definition: the coefficient of monomial
    m is the XOR of f over the points below m; terms sorted by
    (-len(vars), vars)."""
    terms = []
    bits = unpack_bits(t.packed, t.size)
    for m in range(t.size):
        coeff, sub = 0, m
        while True:
            coeff ^= int(bits[sub])
            if sub == 0:
                break
            sub = (sub - 1) & m
        if coeff:
            terms.append(tuple(t.n - p for p in range(t.n - 1, -1, -1) if (m >> p) & 1))
    terms.sort(key=lambda vs: (-len(vs), vs))
    return " + ".join("".join(f"x{v}" for v in vs) or "1" for vs in terms) or "0"


def per_term_render(a: AnfTable) -> str:
    """ANF text one monomial_string per term, sorted by (-size, -m)."""
    ms = sorted(a.monomials(), key=lambda m: (-m.bit_count(), -m))
    return " + ".join(a.monomial_string(m) for m in ms) or "0"


def from_monomials(n: int, ms) -> AnfTable:
    """The ANF with exactly the coefficients ms set."""
    bits = np.zeros(1 << n, dtype=bool)
    bits[ms] = True
    return AnfTable(n, int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))


def reference_coefficients(t: TruthTable) -> np.ndarray:
    """The ANF coefficients of t as a 0/1 array, a_m = XOR of f(x) over the
    x inside m, one variable at a time on the unpacked points: no bytes and
    no words."""
    a = np.array([int(c) for c in t.to_bitstring()], dtype=np.uint8)
    for p in range(t.n):
        pairs = a.reshape(-1, 2, 1 << p)  # index bit p clear, then set
        pairs[:, 1] ^= pairs[:, 0]
    return a


ANF_ALPHABET = re.compile(r"^(0|[0-9x +]+)$")  # nothing in it needs a JSON escape


class TestMobius:
    @given(truth_tables())
    def test_round_trip(self, t):
        assert to_anf(t).to_truthtable() == t

    @given(truth_tables(max_n=6))
    @settings(max_examples=60)
    def test_pointwise_evaluation(self, t):
        a = to_anf(t)
        bits = unpack_bits(t.packed, t.size)
        for x in range(t.size):
            assert evaluate_anf(a, x) == bits[x]

    @given(truth_tables(min_n=1))
    def test_concat_coefficient_split(self, t):
        # g || h has coefficients (g, g + h): the top variable carries the difference
        left, right = t.halves()
        a = to_anf(t)
        half = t.size // 2
        assert a.coeffs & ((1 << half) - 1) == to_anf(left).coeffs
        assert a.coeffs >> half == to_anf(left).coeffs ^ to_anf(right).coeffs

    def test_known_polynomial(self):
        # f = 1 on the three points of weight two
        a = to_anf(from_bitstring("00010110"))
        assert sorted(a.monomials()) == [3, 5, 6, 7]


class TestByteKernel:
    """The transform on packed bytes against the unpacked reference: every
    table under 16 points covers the in-byte passes and the padding bits of
    a table under 8; n = 4, 6 and 7 the pass on single bytes, on 2-byte and
    4-byte words and on the first 8-byte words; n = 9 and 10 the passes on
    several 8-byte words; n = 16 and 20 the long ones."""

    @staticmethod
    def check(t: TruthTable) -> None:
        expected = reference_coefficients(t)
        a = to_anf(t)
        assert a.packed == np.packbits(expected, bitorder="little").tobytes()
        assert a.coeffs == int("".join(map(str, expected[::-1])), 2)
        assert AnfTable(t.n, a.coeffs).packed == pack_bits(a.coeffs, t.size)
        assert a.to_truthtable() == t  # its own inverse, on the bytes

    def test_reference_is_the_definition(self):
        for n in range(5):
            t = random_table(n, np.random.default_rng(n))
            subsets = [[x for x in range(t.size) if x & m == x] for m in range(t.size)]
            bits = unpack_bits(t.packed, t.size)
            definition = [int(sum(bits[x] for x in xs)) % 2 for xs in subsets]
            assert reference_coefficients(t).tolist() == definition

    @pytest.mark.parametrize("n", range(4))
    def test_every_small_table(self, n):
        for bits in range(1 << (1 << n)):
            self.check(TruthTable(n, bits))

    @pytest.mark.parametrize("n", [4, 6, 7, 9, 10, 16, 20])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_tables(self, n, seed):
        self.check(random_table(n, np.random.default_rng(seed)))

    @pytest.mark.parametrize("n", [0, 2, 3, 5, 12])
    def test_packed_is_the_int_packed(self, n):
        for c in (0, 1, (1 << (1 << n)) - 1, int(np.random.default_rng(n).integers(1 << min(1 << n, 62)))):
            a = AnfTable(n, c)
            assert a.packed == pack_bits(c, 1 << n) and a.coeffs == c
            assert to_anf(a.to_truthtable()) == a


class TestValidation:
    @pytest.mark.parametrize("n, coeffs", [(2, 1 << 5), (2, -1), (-1, 0)])
    def test_refuses_what_truthtable_refuses(self, n, coeffs):
        with pytest.raises(ValueError) as expected:
            TruthTable(n, coeffs)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            AnfTable(n, coeffs)

    def test_variable_cap(self, monkeypatch):
        monkeypatch.setenv("BOOLFN_MAX_N", "8")
        AnfTable(8, 1)
        with pytest.raises(ValueError, match=r"^variable count 9 outside 0\.\.8$"):
            AnfTable(9, 1)


class TestDegree:
    def test_constants(self):
        assert to_anf(TruthTable(2, 0)).degree() == 0
        ones = to_anf(from_bitstring("1111"))
        assert ones.degree() == 0 and ones.monomials() == [0]

    def test_exhaustive_small(self):
        # degree from the coefficient definition, all 3-variable functions
        for bits in range(256):
            t = TruthTable(3, bits)
            a = to_anf(t)
            expected = max((m.bit_count() for m in a.monomials()), default=0)
            assert a.degree() == expected

    def test_affine_census(self):
        # exactly 2**(n+1) affine functions on n variables
        for n in (1, 2, 3):
            count = sum(to_anf(TruthTable(n, bits)).degree() <= 1 for bits in range(1 << (1 << n)))
            assert count == 1 << (n + 1)

    def test_wide_table_path(self):
        # a sparse table on 14 variables: the constant and one monomial of degree n - 1
        n = 14
        monomial = (1 << n) - 2  # product of all variables but the fastest
        t = AnfTable(n, (1 << monomial) | 1).to_truthtable()
        assert to_anf(t).degree() == n - 1
        assert to_anf(t).monomials() == [0, monomial]

    @given(truth_tables(min_n=1, max_n=6))
    @settings(max_examples=60)
    def test_odd_weight_forces_full_degree(self, t):
        # the top coefficient is the parity of the whole table
        if t.weight() % 2 == 1:
            assert to_anf(t).degree() == t.n
        else:
            assert to_anf(t).degree() < t.n

    @given(st.integers(14, 18), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_odd_weight_forces_full_degree_wide(self, n, seed, flip):
        t = random_table(n, np.random.default_rng(seed))
        if flip:
            t = t ^ TruthTable(n, 1)
        assert (to_anf(t).degree() == n) == (t.weight() % 2 == 1)


class TestRendering:
    def test_monomial_names(self):
        a = to_anf(from_bitstring("00010110"))
        assert a.monomial_string(0) == "1"
        assert a.monomial_string(1) == "x3"
        assert a.monomial_string(0b100) == "x1"
        assert a.monomial_string(0b111) == "x1x2x3"
        for m in (-1, 0b1000, 0b10000001):  # bits above x1 name no variable
            with pytest.raises(ValueError, match="outside 0..7"):
                a.monomial_string(m)

    def test_render_orders_by_degree(self):
        a = to_anf(from_bitstring("00010011"))
        assert a.render() == "x1x2x3 + x1x2 + x2x3"

    def test_render_constants(self):
        assert to_anf(TruthTable(2, 0)).render() == "0"
        assert to_anf(from_bitstring("1111")).render() == "1"

    def test_render_includes_constant_term(self):
        a = to_anf(from_bitstring("10"))  # f = 1 + x1
        assert a.render() == "x1 + 1"

    @given(truth_tables())
    @settings(max_examples=60)
    def test_render_matches_definition(self, t):
        assert to_anf(t).render() == definition_render(t)

    @given(truth_tables())
    @settings(max_examples=60)
    def test_render_alphabet(self, t):
        assert ANF_ALPHABET.match(to_anf(t).render())

    def test_one_name_prefix_up_to_12_variables(self):
        # the low part is every index bit, so the grid has one row, whose
        # prefix is "" ("1" on the constant's run)
        for n in range(13):
            grid = _grid(n)
            assert len(grid.names) == 1 << n
            assert set(grid.prefixes.tolist()) <= {"", "1"}
        assert set(_grid(13).prefixes.tolist()) == {"", "x1", "1"}

    def test_name_tables_at_the_cap(self):
        grid = _grid(30)
        cols = len(grid.names)
        row = grid.edges[0] // cols
        # 2**15 low names, and 2**15 prefixes, one per row, besides the constant's
        assert cols == 1 << 15 and row.max() == (1 << 15) - 1
        assert len(set(grid.prefixes[:-1].tolist())) == 1 << 15
        # bit p is x_{30-p}; bits 14 and 15 sit on either side of the split:
        # x15 is row 1's prefix and x16 the name of the column of low part 2**14
        assert set(grid.prefixes[row == 1].tolist()) == {"x15"}
        assert grid.names[np.flatnonzero(grid.columns == 1 << 14)].tolist() == ["x16"]
        a = AnfTable(30, 0)
        assert a.monomial_string((1 << 30) - 1) == "".join(f"x{v}" for v in range(1, 31))
        assert [a.monomial_string(1 << p) for p in (0, 14, 15, 29)] == ["x30", "x16", "x15", "x1"]
        assert a.monomial_string((1 << 15) | (1 << 14)) == "x15x16"


class TestRenderRuns:
    """Above 12 variables a term's name is a high-part prefix plus a low-part
    name, and render() writes one run of terms per degree and prefix; n = 17
    and 18 have 32 and 64 prefixes, and 18 is the benchmark's size."""

    WIDE = range(13, 19)

    @staticmethod
    def check(a: AnfTable) -> str:
        text = a.render()
        assert text == per_term_render(a)
        assert ANF_ALPHABET.match(text)
        assert a.degree() == max((m.bit_count() for m in a.monomials()), default=0)
        return text

    @pytest.mark.parametrize("n", WIDE)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_tables(self, n, seed):
        a = to_anf(random_table(n, np.random.default_rng(seed)))
        for coeffs in (a.coeffs | 1, a.coeffs & ~1):  # the constant term set and unset
            self.check(AnfTable(n, coeffs))

    @pytest.mark.parametrize("n", WIDE)
    def test_every_monomial(self, n):
        text = self.check(AnfTable(n, (1 << (1 << n)) - 1))
        assert text.startswith("".join(f"x{v}" for v in range(1, n + 1)) + " + ")
        assert text.endswith(f" + x{n} + 1")

    @pytest.mark.parametrize("n", WIDE)
    def test_sparse_tables(self, n):
        top = (1 << n) - 1
        ones = TruthTable(n, (1 << (1 << n)) - 1)
        assert self.check(to_anf(ones)) == "1"
        assert self.check(to_anf(TruthTable(n, 1 << top))) == "".join(f"x{v}" for v in range(1, n + 1))
        # one term per run: x1 alone, then the constant
        assert self.check(AnfTable(n, (1 << (1 << (n - 1))) | 1)) == "x1 + 1"
        # one run across two degrees (top and top - 1 share the high part), then runs of one term
        coeffs = 1 << top | 1 << (top - 1) | 1 << (top >> 1) | 1 << 3
        self.check(AnfTable(n, coeffs))
        self.check(AnfTable(n, coeffs | 1))

    @pytest.mark.parametrize("n", WIDE)
    def test_a_whole_block(self, n):
        # every low part of one popcount under one high part: one full run,
        # alone and beside the same block under the next high part down
        cols = len(_grid(n).names)
        low_bits = cols.bit_length() - 1
        h = (1 << (n - low_bits)) - 1
        size = low_bits // 2
        block = [l for l in range(cols) if l.bit_count() == size]
        for ms in ([h << low_bits | l for l in block], [(g << low_bits) | l for g in (h, h - 1) for l in block]):
            a = from_monomials(n, ms)
            text = self.check(a)
            assert text.count(" + ") == len(ms) - 1
            assert a.degree() == h.bit_count() + size

    @pytest.mark.parametrize("n", WIDE)
    def test_one_term_per_degree(self, n):
        # one term per degree, x1..xd for every d: every run holds one term
        a = from_monomials(n, [((1 << d) - 1) << (n - d) for d in range(n + 1)])
        expected = " + ".join("".join(f"x{v}" for v in range(1, d + 1)) for d in range(n, 0, -1)) + " + 1"
        assert self.check(a) == expected
        # and x_{n-d+1}..xn for every d > 0, the low part full from d = low_bits on
        self.check(from_monomials(n, [(1 << d) - 1 for d in range(1, n + 1)]))

    @pytest.mark.parametrize("n", [13, 18, 20])
    def test_chosen_indices(self, n):
        # the expected text is spelled here from each index's bits, sorted by
        # (-popcount, -m); n = 20 has 256 name prefixes
        def spell(m):
            return "".join(f"x{n - p}" for p in range(n - 1, -1, -1) if m >> p & 1) or "1"

        top = (1 << n) - 1
        rng = np.random.default_rng(n)
        sparse = {0, top, top >> 1, top ^ 1, (1 << 12) - 1, 1 << 12, (1 << 12) | 1, *(1 << p for p in range(n))}
        sparse |= set(rng.integers(0, 1 << n, 40).tolist())
        # about half the indices among the first and the last 2**15, at most:
        # whole grid rows, the constant's and the full-degree term's
        span = 1 << min(n, 15)
        picked = np.flatnonzero(rng.random(span) < 0.5).tolist()
        dense = {start + i for start in (0, (1 << n) - span) for i in picked}
        for ms in (sparse, dense):
            terms = sorted(ms, key=lambda m: (-m.bit_count(), -m))
            a = from_monomials(n, list(ms))
            assert a.render() == " + ".join(spell(m) for m in terms)
            assert a.degree() == terms[0].bit_count()

    def test_grid_at_the_cap(self):
        # the layout alone: no table is unpacked
        n = 30
        grid = _grid(n)
        cols = len(grid.names)
        rows, low_bits = (1 << n) // cols, cols.bit_length() - 1
        start, stop = grid.edges
        row = start // cols
        assert grid.edges.shape == (2, rows * (low_bits + 1))
        degrees = grid.degrees.astype(int)
        assert (np.diff(degrees) <= 0).all()
        # within one degree the high parts descend, and each run's cells hold
        # the low parts of its degree less its high part's popcount
        same = degrees[1:] == degrees[:-1]
        assert (np.diff(row)[same] < 0).all()
        assert (np.bitwise_count(row) + np.bitwise_count(grid.columns[start % cols]) == degrees).all()
        assert (np.bitwise_count(grid.columns[(stop - 1) % cols]) == np.bitwise_count(grid.columns[start % cols])).all()
        # the runs tile the grid, each within one row
        order = np.argsort(start)
        assert start[order][0] == 0 and stop[order][-1] == 1 << n
        assert (start[order][1:] == stop[order][:-1]).all()
        assert (row == (stop - 1) // cols).all()
        # the first run is the one full-degree term; the last, the constant
        a = AnfTable(n, 0)
        assert degrees[0] == n and stop[0] - start[0] == 1
        assert grid.prefixes[0] + grid.names[start[0] % cols] == a.monomial_string((1 << n) - 1)
        assert degrees[-1] == 0 and (start[-1], stop[-1]) == (0, 1)
        assert grid.prefixes[-1] == a.monomial_string(0)
