"""Spectrum checks against the literal definition and the affine brute force."""

from __future__ import annotations

import importlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolfn import (
    AffineSpec,
    SpectrumSweep,
    TruthTable,
    WalshSpectrum,
    affine_table,
    brute_force_nonlinearity,
    check_weight_equals_nonlinearity,
    concat,
    concat_nonlinearity,
    from_bitstring,
    max_vars,
    nonlinearity,
    random_table,
    threshold,
    walsh_transform,
)
from boolfn.spectral import _CHUNK_POINTS, _derive, _join
from boolfn.truthtable import _DEFAULT_MAX_VARS, unpack_bits

from conftest import count_transforms, truth_tables


def naive_spectrum(t: TruthTable) -> np.ndarray:
    """Straight from the definition: W(w) = sum_x (-1)**(f(x) + parity(w & x))."""
    size = t.size
    idx = np.arange(size, dtype=np.uint32)
    parity = np.zeros((size, size), dtype=np.int64)
    for j in range(t.n):
        parity += ((idx[:, None] >> j) & 1) * ((idx[None, :] >> j) & 1)
    signs = 1 - 2 * unpack_bits(t.packed, t.size).astype(np.int64)
    return ((-1) ** (parity % 2) * signs[None, :]).sum(axis=1)


def butterfly_int64(t: TruthTable) -> np.ndarray:
    """The textbook transform: int64 signs, one butterfly pass per variable."""
    values = 1 - 2 * unpack_bits(t.packed, t.size).astype(np.int64)
    h = 1
    while h < values.size:
        pairs = values.reshape(-1, 2, h)
        top, bot = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
        pairs[:, 0, :], pairs[:, 1, :] = top + bot, top - bot
        h <<= 1
    return values


def handmade_spectrum(n: int, entries: dict[int, int]) -> WalshSpectrum:
    """Values that are zero except at the given indices."""
    values = np.zeros(1 << n, dtype=np.int32)
    for at, value in entries.items():
        values[at] = value
    values.setflags(write=False)
    return WalshSpectrum(n, values)


def draw_other(n: int, rng: np.random.Generator, avoid: tuple[TruthTable, ...]) -> TruthTable:
    """A random table on n variables that is none of the tables in avoid."""
    table = random_table(n, rng)
    while table in avoid:
        table = random_table(n, rng)
    return table


def kernel_tables(n: int) -> list[TruthTable]:
    """Random, both constant and two single-point tables on n variables."""
    size = 1 << n
    packed = (0, (1 << size) - 1, 1, 1 << (size - 1))
    return [random_table(n, np.random.default_rng(n)), *(TruthTable(n, bits) for bits in packed)]


class TestWalshTransform:
    @given(truth_tables(max_n=6))
    @settings(max_examples=60)
    def test_matches_definition(self, t):
        assert np.array_equal(walsh_transform(t).values, naive_spectrum(t))

    @given(truth_tables())
    def test_parseval(self, t):
        assert walsh_transform(t).parseval_sum() == 1 << (2 * t.n)

    @given(truth_tables())
    def test_zero_entry_counts_ones(self, t):
        assert int(walsh_transform(t).values[0]) == t.size - 2 * t.weight()

    def test_values_are_read_only(self):
        spectrum = walsh_transform(from_bitstring("0110"))
        with pytest.raises(ValueError):
            spectrum.values[0] = 99

    # the one-row path (n = 0, 3, 8), one group (n = 17) and two (n = 18)
    @pytest.mark.parametrize("n", [0, 3, 8, 17, 18])
    def test_out_holds_the_same_values(self, n):
        t = random_table(n, np.random.default_rng(n))
        out = np.full(t.size, 7, dtype=np.int32)
        spectrum = walsh_transform(t, out=out)
        assert np.array_equal(spectrum.values, walsh_transform(t).values)
        assert np.shares_memory(spectrum.values, out)

    def test_out_stays_writable_under_a_read_only_result(self):
        out = np.empty(4, dtype=np.int32)
        spectrum = walsh_transform(from_bitstring("0110"), out=out)
        with pytest.raises(ValueError):
            spectrum.values[0] = 99
        out[0] = 99
        assert spectrum.values[0] == 99

    @pytest.mark.parametrize("kind", ["int64", "size", "strided", "read-only"])
    def test_bad_out_is_refused(self, kind):
        out = {
            "int64": np.empty(8, dtype=np.int64),
            "size": np.empty(4, dtype=np.int32),
            "strided": np.empty(16, dtype=np.int32)[::2],
            "read-only": np.empty(8, dtype=np.int32),
        }[kind]
        if kind == "read-only":
            out.setflags(write=False)
        with pytest.raises(ValueError, match="out must be a writable C-contiguous int32 array of 8 entries"):
            walsh_transform(TruthTable(3, 0b10010110), out=out)

    # n = 8 is one 2**8-point row and skips the byte-major stage, n = 9 is
    # a group of two rows; n = 16 and 17 are part of a 2**17-point group and
    # one group, with no pass above the group; n = 18..21 are 2, 4, 8 and 16
    # groups, whose passes above the group run on strips of columns.
    # n <= 14 runs wholly in int16; n = 15 is the first size whose all-zero
    # table, with W(0) = 2**15, overflows int16 if the widening to int32
    # comes one pass later
    @pytest.mark.parametrize("n", [4, 8, 9, 13, 14, 15, 16, 17, 18, 19, 20, 21])
    def test_matches_int64_butterfly(self, n):
        for t in kernel_tables(n):
            assert np.array_equal(walsh_transform(t).values, butterfly_int64(t))

    # the one-row path (n <= 8), a group of two rows (n = 9), the last table
    # with no int32 pass (n = 14) and the first with one (n = 15), and one
    # and two groups (n = 17, 18)
    @pytest.mark.parametrize("n", [0, 3, 8, 9, 14, 15, 17, 18])
    def test_values_are_int32(self, n):
        assert walsh_transform(random_table(n, np.random.default_rng(n))).values.dtype == np.int32

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_sub_byte_table_matches_definition(self, n):
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            assert np.array_equal(walsh_transform(t).values, naive_spectrum(t))

    @pytest.mark.parametrize("n", [16, 20])
    def test_parseval_sum_is_exact_past_int32(self, n):
        for t in kernel_tables(n):
            assert walsh_transform(t).parseval_sum() == 1 << (2 * n)

    def test_constant_tables_reach_the_bound(self):
        for bits, peak in ((0, 1 << 20), ((1 << (1 << 20)) - 1, -(1 << 20))):
            values = walsh_transform(TruthTable(20, bits)).values
            assert int(values[0]) == peak
            assert np.count_nonzero(values) == 1

    def test_variable_cap_fits_int32(self):
        # every butterfly intermediate is at most 2**n in magnitude
        assert 1 << _DEFAULT_MAX_VARS <= np.iinfo(np.int32).max

    def test_point_table(self):
        assert walsh_transform(TruthTable(0, 1)).values.tolist() == [-1]

    def test_max_abs_index_prefers_smallest(self):
        # AND of two variables: |W| = 2 everywhere, so index 0 must win
        spectrum = walsh_transform(from_bitstring("0001"))
        assert spectrum.max_abs() == 2
        assert spectrum.max_abs_index() == 0

    @given(truth_tables(max_n=8))
    @example(TruthTable(2, 0b0111))  # NAND: W = -2, -2, -2, 2, so the first maximum is negative
    def test_max_abs_index_matches_definition(self, t):
        values = naive_spectrum(t).tolist()
        top = max(abs(v) for v in values)
        spectrum = walsh_transform(t)
        assert spectrum.max_abs() == top
        assert spectrum.max_abs_index() == next(i for i, v in enumerate(values) if abs(v) == top)


class TestGroupedPeak:
    """Hand-made values, most at n = 18 and 19: four and eight 2**16-point chunks."""

    @pytest.mark.parametrize("n", [15, 16, 17, 19])
    def test_tie_on_both_sides_of_a_chunk_edge(self, n):
        # below one chunk, one chunk, two and eight: a tie keeps the smaller index
        size = 1 << n
        for first, second in [(0, size - 1), (size // 2 - 1, size // 2), (_CHUNK_POINTS - 1, _CHUNK_POINTS)]:
            if second < size:
                spectrum = handmade_spectrum(n, {first: -7, second: 7})
                assert (spectrum.max_abs(), spectrum.max_abs_index()) == (7, first), (first, second)

    @pytest.mark.parametrize("n", [18, 19])
    def test_peak_in_a_later_group(self, n):
        last = (1 << n) - 1
        spectrum = handmade_spectrum(n, {5: 7, (1 << 17) + 3: -8, last: 9})
        assert (spectrum.max_abs(), spectrum.max_abs_index()) == (9, last)
        spectrum = handmade_spectrum(n, {5: 7, (1 << 17) + 3: -8})
        assert (spectrum.max_abs(), spectrum.max_abs_index()) == (8, (1 << 17) + 3)

    @pytest.mark.parametrize("n", [18, 19])
    def test_tie_across_groups_keeps_the_smallest_index(self, n):
        spectrum = handmade_spectrum(n, {1: 5, 9: 12, (1 << 17) + 2: -12, (1 << n) - 2: 12})
        assert (spectrum.max_abs(), spectrum.max_abs_index()) == (12, 9)
        spectrum = handmade_spectrum(n, {1: 5, (1 << 17) + 9: -12, (1 << n) - 2: 12})
        assert (spectrum.max_abs(), spectrum.max_abs_index()) == (12, (1 << 17) + 9)

    @pytest.mark.parametrize("n", [18, 19])
    def test_negative_peak(self, n):
        spectrum = handmade_spectrum(n, {0: 3, (1 << n) - 5: -(1 << 10)})
        assert (spectrum.max_abs(), spectrum.max_abs_index()) == (1 << 10, (1 << n) - 5)
        assert spectrum.nonlinearity() == (1 << (n - 1)) - (1 << 9)


class TestConcatNonlinearity:
    @given(st.integers(0, 10), st.data())
    @settings(max_examples=80)
    def test_equals_nonlinearity_of_the_concatenation(self, n, data):
        a, b = (data.draw(truth_tables(min_n=n, max_n=n)) for _ in range(2))
        expected = walsh_transform(concat(a, b)).nonlinearity()
        assert concat_nonlinearity(walsh_transform(a), walsh_transform(b)) == expected

    # one chunk, two chunks, four chunks; the linear table's peak is its last index
    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_random_tables(self, n):
        rng = np.random.default_rng(n)
        a, b = random_table(n, rng), random_table(n, rng)
        linear = affine_table(AffineSpec((1 << n) - 1, 0), n)
        for left, right in ((a, b), (b, a), (a, a.complement()), (a, linear), (linear, b)):
            expected = walsh_transform(concat(left, right)).nonlinearity()
            assert concat_nonlinearity(walsh_transform(left), walsh_transform(right)) == expected

    @pytest.mark.parametrize("n", [18, 19])
    def test_peak_sum_in_a_later_group(self, n):
        # each half peaks in the first chunk; the largest |W_a| + |W_b| is in
        # the last chunk, where neither half reaches its own max|W|
        late = (1 << n) - 3
        left = handmade_spectrum(n, {5: 10, late: 6})
        right = handmade_spectrum(n, {7: -10, late: -6})
        assert (left.max_abs_index(), right.max_abs_index()) == (5, 7)
        assert concat_nonlinearity(left, right) == (1 << n) - 6

    @given(truth_tables(min_n=1, max_n=10))
    @settings(max_examples=60)
    def test_mirror_extension_doubles_nonlinearity(self, g):
        # W of g' = reversed complement is -(-1)**|w| W_g(w), so each |W| of
        # concat(g', g) is 0 or 2|W_g(w)|
        mirrored = g.complement().reverse()
        doubled = 2 * nonlinearity(g)
        assert nonlinearity(concat(mirrored, g)) == doubled
        assert concat_nonlinearity(walsh_transform(mirrored), walsh_transform(g)) == doubled

    @pytest.mark.parametrize("n", [18, 19])
    def test_the_walk_seeds_each_halfs_peak(self, n):
        # each half's max|W| ties across two chunks, and the largest
        # |W_a| + |W_b| is at index 3, where neither half peaks
        left = handmade_spectrum(n, {3: 4, (1 << 17) + 4: -10, (1 << n) - 1: 10})
        right = handmade_spectrum(n, {1: -8, 3: 8, (1 << 17) + 9: 8})
        assert concat_nonlinearity(left, right) == (1 << n) - 6
        for half in (left, right):
            assert "_peak" in vars(half)  # seeded by the walk: max|W| reads no value again
            fresh = WalshSpectrum(n, half.values.copy())
            assert half.max_abs_index() == fresh.max_abs_index() != 3
            assert half.nonlinearity() == fresh.nonlinearity()

    def test_variable_counts_must_match(self):
        with pytest.raises(ValueError, match="variable counts differ: 3 vs 4"):
            concat_nonlinearity(walsh_transform(TruthTable(3, 0)), walsh_transform(TruthTable(4, 0)))

    def test_concatenation_must_fit_the_cap(self, monkeypatch):
        halves = walsh_transform(TruthTable(3, 0)), walsh_transform(TruthTable(3, 1))
        monkeypatch.setenv("BOOLFN_MAX_N", "3")
        with pytest.raises(ValueError):
            concat_nonlinearity(*halves)


class TestJoin:
    """_join(out, pairs) writes the last butterfly pass of each pair of rows of out, in place."""

    # below one chunk, one chunk, several chunks
    @pytest.mark.parametrize("points", [_CHUNK_POINTS // 4, _CHUNK_POINTS, 2 * _CHUNK_POINTS])
    @pytest.mark.parametrize("count", [1, 2])
    def test_every_pairing_of_rows(self, points, count):
        # each input is any row of out, so it may be the output row itself,
        # one written before it is read, or one read by both pairs
        rows = 2 * count
        start = np.random.default_rng(points + count).integers(-(1 << 20), 1 << 20, size=(rows, points), dtype=np.int32)
        for pairs in itertools.product(itertools.product(range(rows), repeat=2), repeat=count):
            out = start.copy()
            _join(out.reshape(-1), list(pairs))
            expected = [op(start[i], start[j]) for i, j in pairs for op in (np.add, np.subtract)]
            assert np.array_equal(out, expected), pairs


def unrelated(n: int, rng: np.random.Generator, *tables: TruthTable) -> TruthTable:
    """A random table on n variables, none of tables, that neither derive
    relation ties to any of them: its first half is not one's second half,
    nor its second half one's first.  Below two variables the relations are
    not checked, so any other table will do."""

    def tied(r: TruthTable) -> bool:
        return n > 1 and any(r.halves()[0] == u.halves()[1] or r.halves()[1] == u.halves()[0] for u in tables)

    table = draw_other(n, rng, tables)
    while tied(table):
        table = draw_other(n, rng, tables)
    return table


def chain(u: TruthTable, steps: str, rng: np.random.Generator) -> TruthTable:
    """A table derived from u one step per letter, "d" down or "u" up, that
    ends in a table unrelated to the last one it is derived from."""
    if not steps:
        return unrelated(u.n, rng, u)
    u0, u1 = u.halves()
    if steps[0] == "d":  # its first half is u's second, its second half derived from that
        return concat(u1, chain(u1, steps[1:], rng))
    first = chain(u0, steps[1:], rng)  # its second half is u's first, its first half derived from that
    while first == u1:  # which would be the down relation, checked first
        first = chain(u0, steps[1:], rng)
    return concat(first, u0)


class TestDerive:
    """_derive(t, u, w_u, out) writes t's spectrum from u's, through the relations between their halves."""

    @staticmethod
    def derived(calls: list[int], t: TruthTable, u: TruthTable) -> list[int]:
        """The variable counts transformed while deriving t from u, after
        checking the result against a fresh transform and w_u unchanged."""
        w_u = walsh_transform(u).values.copy()
        out = np.empty(t.size, dtype=np.int32)
        calls.clear()
        _derive(t, u, w_u, out)
        assert np.array_equal(out, walsh_transform(t).values)
        assert np.array_equal(w_u, walsh_transform(u).values)  # u's spectrum is only read
        return calls

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("steps", ["d", "u"])
    def test_one_step(self, monkeypatch, n, steps):
        # random tables, no thresholds: only t's other half, on n - 1 variables, is transformed
        rng = np.random.default_rng(n)
        u = random_table(n, rng)
        t = chain(u, steps, rng)
        assert (t.halves()[0] == u.halves()[1]) == (steps == "d")
        assert self.derived(count_transforms(monkeypatch), t, u) == [n - 1]

    @pytest.mark.parametrize("steps", ["ddd", "uuu", "dudu", "uddu", "duuuud"])
    def test_a_chain_of_several_levels(self, monkeypatch, steps):
        n = 10
        rng = np.random.default_rng(len(steps))
        u = random_table(n, rng)
        assert self.derived(count_transforms(monkeypatch), chain(u, steps, rng), u) == [n - len(steps)]

    @pytest.mark.parametrize("steps", ["d" * 7, "u" * 7, "du" * 3 + "d"])
    def test_a_chain_down_to_one_variable(self, monkeypatch, steps):
        # only the table on one variable at the chain's end is transformed
        rng = np.random.default_rng(8)
        u = random_table(8, rng)
        assert self.derived(count_transforms(monkeypatch), chain(u, steps, rng), u) == [1]

    # t's halves below one chunk, one chunk, and four chunks
    @pytest.mark.parametrize("n", [16, 17, 19])
    @pytest.mark.parametrize("steps", ["d", "u", "du"])
    def test_steps_across_chunks(self, monkeypatch, n, steps):
        rng = np.random.default_rng(n)
        u = random_table(n, rng)
        assert self.derived(count_transforms(monkeypatch), chain(u, steps, rng), u) == [n - len(steps)]

    @pytest.mark.parametrize("steps", ["d", "u"])
    def test_u_is_read_lazily_and_never_split(self, monkeypatch, steps):
        # u's halves are read as packed bytes, second half first, the first
        # only once the down check has failed, and no table is built for them
        rng = np.random.default_rng(6)
        u = random_table(6, rng)
        t = chain(u, steps, rng)
        read, split = [], []
        half_packed, halves = TruthTable.half_packed, TruthTable.halves
        monkeypatch.setattr(TruthTable, "half_packed", lambda table, j: read.append((table, j)) or half_packed(table, j))
        monkeypatch.setattr(TruthTable, "halves", lambda table: split.append(table) or halves(table))
        self.derived([], t, u)
        assert [j for table, j in read if table is u] == ([1] if steps == "d" else [1, 0])
        assert all(table is not u for table in split)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_neither_relation_transforms_afresh(self, monkeypatch, n):
        # u's halves in the wrong places, or in none, tie t to u by neither relation
        rng = np.random.default_rng(n)
        u = random_table(n, rng)
        while len(set(u.halves())) < 2:
            u = random_table(n, rng)
        u0, u1 = u.halves()
        r = draw_other(n - 1, rng, (u0, u1))
        calls = count_transforms(monkeypatch)
        for t in (concat(u0, r), concat(r, u1), unrelated(n, rng, u), u):
            assert self.derived(calls, t, u) == [n], t

    def test_one_variable_is_transformed(self, monkeypatch):
        # at n = 1 the relations are not checked: every pair is transformed afresh
        calls = count_transforms(monkeypatch)
        for t, u in itertools.product([TruthTable(1, bits) for bits in range(4)], repeat=2):
            assert self.derived(calls, t, u) == [1], (t, u)

    @pytest.mark.parametrize(("m", "s"), [(10, 4), (14, 6), (17, 9)])
    def test_threshold_neighbours(self, monkeypatch, m, s):
        # the sweep's case: T(m, s) and T(m, s - 1) derive each other down to one variable
        calls = count_transforms(monkeypatch)
        for t, u in itertools.permutations((threshold(m, s), threshold(m, s - 1))):
            assert self.derived(calls, t, u) == [1]


def quartered(q0: TruthTable, q1: TruthTable, q2: TruthTable, q3: TruthTable) -> TruthTable:
    """The table whose four quarters are the tables given, in order."""
    return concat(concat(q0, q1), concat(q2, q3))


def unrelated_tables(count: int, n: int, rng: np.random.Generator) -> list[TruthTable]:
    """count distinct tables on n variables, no two of them tied by a derive relation."""
    tables: list[TruthTable] = []
    for _ in range(count):
        tables.append(unrelated(n, rng, *tables))
    return tables


class TestSpectrumSweep:
    @staticmethod
    def measured(calls: list[int], sweep: SpectrumSweep, table: TruthTable) -> list[int]:
        """The variable counts transformed for table's half spectra, after
        checking each against a fresh transform."""
        calls.clear()
        spectra = sweep.half_spectra(table)
        for spectrum, half in zip(spectra, table.halves()):
            assert np.array_equal(spectrum.values, walsh_transform(half).values), half
            assert not spectrum.values.flags.writeable
        assert sweep.table == table
        return list(calls)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_a_half_equal_to_the_carried_table_is_joined(self, monkeypatch, n):
        # after the carried table p || q, a half equal to it takes its
        # quarters' spectra from the carried pair, and the join writes its
        # spectrum.  The quarters p, q, r, s on n variables are tied by no
        # derive relation, so each quarter that is neither carried nor shared
        # is transformed whole
        p, q, r, s = unrelated_tables(4, n, np.random.default_rng(n))
        carried = concat(p, q)
        cases = [
            (quartered(p, q, q, r), [n]),  # carried first half, a middle quarter shared
            (quartered(p, q, r, s), [n, n]),  # carried first half, no quarter shared
            (quartered(r, p, p, q), [n]),  # carried second half, a middle quarter shared
            (quartered(r, s, p, q), [n, n]),  # carried second half, no quarter shared
            (quartered(p, q, p, q), []),  # both halves carried
            (quartered(q, p, r, s), [n, n, n, n]),  # the carried quarters in other places
        ]
        calls = count_transforms(monkeypatch)
        for table, expected in cases:
            sweep = SpectrumSweep(n + 2)
            sweep.half_spectra(carried)
            assert self.measured(calls, sweep, table) == expected, table

    @pytest.mark.parametrize("n", range(1, 9))
    def test_no_carried_half(self, monkeypatch, n):
        # the first quarter is transformed, and each other one shared or
        # gathered from its neighbour, here transformed as none is tied to it;
        # a carried table that is no half is not read, whatever the buffer holds
        p, q, r, s = unrelated_tables(4, n, np.random.default_rng(n))
        cases = [
            (quartered(p, q, q, r), [n, n, n]),
            (quartered(p, q, r, s), [n, n, n, n]),
            (quartered(p, p, p, p), [n]),
        ]
        calls = count_transforms(monkeypatch)
        for table, expected in cases:
            assert self.measured(calls, SpectrumSweep(n + 2), table) == expected, table
            sweep = SpectrumSweep(n + 2)
            sweep.half_spectra(concat(s, r))  # no half of any table here
            sweep.values[:] = 0
            assert self.measured(calls, sweep, table) == expected, table

    @pytest.mark.parametrize("n", range(2, 11))
    def test_a_half_with_a_carried_quarter_transforms_only_its_other_half(self, monkeypatch, n):
        # after the carried table k0 || k1, on quarters of n variables, a
        # quarter tied to its gathered neighbour is derived from it, and only
        # its other half, on n - 1 variables, is transformed: b1 = k1_1 || x
        # down from b0 = k1, or a0 = x || k1_0 up from a1 = k1.  x is neither
        # half of k1 nor tied to either
        rng = np.random.default_rng(n)
        k0, k1 = unrelated_tables(2, n, rng)
        x = unrelated(n - 1, rng, *k1.halves())
        down, up = concat(k1.halves()[1], x), concat(x, k1.halves()[0])
        cases = [
            (quartered(k0, k1, k1, down), [n - 1]),  # carried first half, down
            (quartered(up, k1, k0, k1), [n - 1]),  # carried second half, up
            (quartered(k0, k1, down, k0), [n - 1]),  # no middle quarter shared
        ]
        calls = count_transforms(monkeypatch)
        for table, expected in cases:
            sweep = SpectrumSweep(n + 2)
            sweep.half_spectra(concat(k0, k1))
            assert self.measured(calls, sweep, table) == expected, table

    def test_tables_on_one_and_two_variables(self, monkeypatch):
        # on one variable the halves have no quarters, and each is transformed;
        # on two the quarters have no variables, and each distinct one that is
        # not carried is transformed, as nothing is derived below two variables
        calls = count_transforms(monkeypatch)
        for t in (TruthTable(1, bits) for bits in range(4)):
            assert self.measured(calls, SpectrumSweep(1), t) == [0, 0], t
        for t, carried in itertools.product(*([TruthTable(n, bits) for bits in range(1 << (1 << n))] for n in (2, 1))):
            sweep = SpectrumSweep(2)
            sweep.half_spectra(carried)
            quarters = {q for half in t.halves() for q in half.halves()}
            held = set(carried.halves()) if carried in t.halves() else set()
            assert self.measured(calls, sweep, t) == [0] * len(quarters - held), (t, carried)


class TestNonlinearity:
    @given(truth_tables(min_n=1, max_n=7))
    @settings(max_examples=60)
    def test_spectrum_equals_brute_force(self, t):
        assert nonlinearity(t) == brute_force_nonlinearity(t)

    def test_affine_functions_have_zero(self):
        for mask in range(8):
            for c in (0, 1):
                t = affine_table(AffineSpec(mask, c), 3)
                assert nonlinearity(t) == 0

    def test_needs_a_variable(self):
        with pytest.raises(ValueError):
            nonlinearity(TruthTable(0, 0))
        with pytest.raises(ValueError):
            brute_force_nonlinearity(TruthTable(0, 0))

    def test_brute_force_cap(self):
        with pytest.raises(ValueError):
            brute_force_nonlinearity(TruthTable(17, 0))

    # n = 1..8 crosses the 64-point word at n = 6
    @given(truth_tables(min_n=1, max_n=8))
    @settings(max_examples=40)
    def test_brute_force_is_min_over_affine_enumeration(self, t):
        best = min(
            t.distance(affine_table(AffineSpec(mask, c), t.n))
            for mask in range(t.size)
            for c in (0, 1)
        )
        assert brute_force_nonlinearity(t) == best

    @given(truth_tables(min_n=1, max_n=10), st.data())
    @settings(max_examples=60)
    def test_adding_an_affine_table_keeps_nonlinearity(self, t, data):
        mask = data.draw(st.integers(0, t.size - 1))
        shifted = t ^ affine_table(AffineSpec(mask, data.draw(st.sampled_from((0, 1)))), t.n)
        assert nonlinearity(shifted) == nonlinearity(t)
        if t.n <= 8:
            assert brute_force_nonlinearity(shifted) == nonlinearity(t)


def near_affine(n: int, mask: int, rng: np.random.Generator) -> tuple[TruthTable, int]:
    """An affine table with the given mask, at most 2**(n-2) of its points
    flipped, and the flip count, which is then its nonlinearity: every other
    affine table differs from the unflipped one in 2**(n-1) points, so it is
    at least 2**(n-1) - flips >= flips from the flipped one."""
    size = 1 << n
    points = rng.choice(size, size=int(rng.integers(0, size // 4 + 1)), replace=False)
    error = TruthTable(n, sum(1 << int(p) for p in points))
    return affine_table(AffineSpec(mask, int(rng.integers(2))), n) ^ error, len(points)


# The oracle reads 2**(n-6) words in blocks of 2**r, r = (n - 6) // 2: every
# n <= 6 is one word, and r steps up at n = 8, 10, 12, 14 and 16, the cap.
ORACLE_VARS = range(1, 17)


class TestBruteForceOracle:
    @pytest.mark.parametrize("n", ORACLE_VARS)
    def test_random_tables(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            t = random_table(n, rng)
            assert brute_force_nonlinearity(t) == walsh_transform(t).nonlinearity()

    # the full mask sets every in-word, in-block and block-index variable
    @pytest.mark.parametrize("n", ORACLE_VARS)
    def test_near_affine_tables(self, n):
        rng = np.random.default_rng(100 + n)
        for mask in ((1 << n) - 1, int(rng.integers(1 << n))):
            t, flips = near_affine(n, mask, rng)
            assert brute_force_nonlinearity(t) == flips == walsh_transform(t).nonlinearity()

    def test_never_calls_the_walsh_kernel(self, monkeypatch):
        rng = np.random.default_rng(17)
        tables = [random_table(n, rng) for n in ORACLE_VARS]
        expected = [walsh_transform(t).nonlinearity() for t in tables]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the Walsh kernel")

        spectral = importlib.import_module("boolfn.spectral")
        monkeypatch.setattr(spectral, "_butterfly", refuse)
        monkeypatch.setattr(spectral, "walsh_transform", refuse)
        with pytest.raises(AssertionError):  # the patch is live
            nonlinearity(tables[0])
        assert [brute_force_nonlinearity(t) for t in tables] == expected


class TestAffineTables:
    def test_known_tables(self):
        # x2 on two variables ticks fastest: 0101
        assert affine_table(AffineSpec(0b01, 0), 2).to_bitstring() == "0101"
        assert affine_table(AffineSpec(0b10, 0), 2).to_bitstring() == "0011"
        assert affine_table(AffineSpec(0b11, 1), 2).to_bitstring() == "1001"

    # every mask up to n = 5, where n = 0 and 1 have no butterfly pass or only one
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 16, 20])
    def test_matches_parity(self, n):
        idx = np.arange(1 << n, dtype=np.int64)
        if n <= 5:
            masks = range(1 << n)
        else:
            masks = ((1 << n) - 1, 1 << (n - 1), int(np.random.default_rng(n).integers(1 << n)))
        for mask in masks:
            for c in (0, 1):
                expected = c ^ (np.bitwise_count(idx & mask) & 1)
                a = affine_table(AffineSpec(mask, c), n)
                assert np.array_equal(unpack_bits(a.packed, a.size), expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            AffineSpec(-1, 0)
        with pytest.raises(ValueError):
            AffineSpec(0, 2)
        with pytest.raises(ValueError):
            affine_table(AffineSpec(0b100, 0), 2)

    @pytest.mark.parametrize("n", [-1, 31])
    def test_cap_is_checked_before_the_masks(self, monkeypatch, n):
        def no_transform(packed, n):
            raise AssertionError(f"ran the Moebius transform on {len(packed)} bytes for {n} variables")

        monkeypatch.setattr(importlib.import_module("boolfn.anf"), "_mobius", no_transform)
        message = f"variable count {n} outside 0..{max_vars()}"
        with pytest.raises(ValueError, match=re.escape(message)):
            affine_table(AffineSpec(1, 0), n)


class TestWeightNonlinearityCheck:
    def test_small_weight_passes(self):
        # single one: weight 1 <= 2**(n-2), and wt = N
        t = TruthTable(4, 1)
        result = check_weight_equals_nonlinearity(t)
        assert result.applicable and result.holds
        assert result.verdict == "pass"
        assert result.threshold == 4

    def test_heavy_tables_not_applicable(self):
        t = from_bitstring("1111")
        result = check_weight_equals_nonlinearity(t)
        assert not result.applicable and result.holds is None
        assert result.verdict == "not-applicable"

    def test_boundary_counterexample(self):
        # weight one past the quarter threshold can break the equality
        t = from_bitstring("00010011")
        result = check_weight_equals_nonlinearity(t)
        assert not result.applicable
        assert t.weight() == result.threshold + 1
        assert nonlinearity(t) == 1 != t.weight()

    def test_needs_two_variables(self):
        with pytest.raises(ValueError):
            check_weight_equals_nonlinearity(TruthTable(1, 0b01))

    @given(truth_tables(min_n=2, max_n=8))
    @settings(max_examples=60)
    def test_passed_spectrum_gives_the_same_check(self, t):
        assert check_weight_equals_nonlinearity(t, walsh_transform(t)) == check_weight_equals_nonlinearity(t)

    def test_spectrum_must_match_the_table(self):
        with pytest.raises(ValueError, match="variable counts differ: 4 vs 5"):
            check_weight_equals_nonlinearity(TruthTable(4, 1), walsh_transform(TruthTable(5, 1)))

    @given(truth_tables(min_n=2, max_n=6))
    @settings(max_examples=60)
    def test_never_fails_below_threshold(self, t):
        result = check_weight_equals_nonlinearity(t)
        if result.applicable:
            assert result.holds
