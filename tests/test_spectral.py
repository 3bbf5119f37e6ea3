"""Spectrum checks against the literal definition and the affine brute force."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolfn import (
    AffineSpec,
    TruthTable,
    affine_table,
    brute_force_nonlinearity,
    check_weight_equals_nonlinearity,
    from_bitstring,
    nonlinearity,
    walsh_transform,
)

from conftest import truth_tables


def naive_spectrum(t: TruthTable) -> np.ndarray:
    """Straight from the definition: W(w) = sum_x (-1)**(f(x) + parity(w & x))."""
    size = t.size
    idx = np.arange(size, dtype=np.uint32)
    parity = np.zeros((size, size), dtype=np.int64)
    for j in range(t.n):
        parity += ((idx[:, None] >> j) & 1) * ((idx[None, :] >> j) & 1)
    signs = 1 - 2 * t.to_array().astype(np.int64)
    return ((-1) ** (parity % 2) * signs[None, :]).sum(axis=1)


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

    @given(truth_tables(min_n=2, max_n=5))
    @settings(max_examples=40)
    def test_brute_force_is_min_over_affine_enumeration(self, t):
        best = min(
            t.distance(affine_table(AffineSpec(mask, c), t.n))
            for mask in range(t.size)
            for c in (0, 1)
        )
        assert brute_force_nonlinearity(t) == best


class TestAffineTables:
    def test_known_tables(self):
        # x2 on two variables ticks fastest: 0101
        assert affine_table(AffineSpec(0b01, 0), 2).to_bitstring() == "0101"
        assert affine_table(AffineSpec(0b10, 0), 2).to_bitstring() == "0011"
        assert affine_table(AffineSpec(0b11, 1), 2).to_bitstring() == "1001"

    def test_validation(self):
        with pytest.raises(ValueError):
            AffineSpec(-1, 0)
        with pytest.raises(ValueError):
            AffineSpec(0, 2)
        with pytest.raises(ValueError):
            affine_table(AffineSpec(0b100, 0), 2)


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

    @given(truth_tables(min_n=2, max_n=6))
    @settings(max_examples=60)
    def test_never_fails_below_threshold(self, t):
        result = check_weight_equals_nonlinearity(t)
        if result.applicable:
            assert result.holds
