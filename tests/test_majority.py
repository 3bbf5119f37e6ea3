"""Majority family: construction, halves, closed forms, identity reports."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from boolfn import (
    BINOMIAL_MAX,
    SpectrumSweep,
    TruthTable,
    binomial,
    first_quarter,
    iter_reports,
    left_half,
    majority,
    majority_report,
    max_vars,
    predicted_left_half_weight,
    predicted_nonlinearity,
    predicted_quarter_half_weights,
    predicted_right_half_nonlinearity,
    right_half,
    run_length_string,
    threshold,
    verify_identities,
    walsh_transform,
)
from boolfn.truthtable import unpack_bits

from conftest import count_transforms

MAJ5 = "00000001000101110001011101111111"


def weight_at_least(m: int, t: int) -> int:
    """Weight of threshold(m, t), counted: the points of weight >= t on m variables."""
    return sum(math.comb(m, j) for j in range(t, m + 1))


class TestConstruction:
    def test_five_variable_table(self):
        assert majority(5).to_bitstring() == MAJ5

    def test_run_length_display(self):
        assert run_length_string(majority(5)) == "0_7 1 0_3 1 0 1_3 0_3 1 0 1_3 0 1_7"

    @pytest.mark.parametrize("k", range(1, 9))
    def test_threshold_definition(self, k):
        t = majority(k)
        need = (k + 1) // 2
        bits = unpack_bits(t.packed, t.size)
        for i in range(t.size):
            assert bits[i] == (i.bit_count() >= need)

    def test_small_cases(self):
        # even counts use threshold k/2, so two variables give an OR
        assert majority(1).to_bitstring() == "01"
        assert majority(2).to_bitstring() == "0111"
        assert majority(3).to_bitstring() == "00010111"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            majority(0)
        with pytest.raises(ValueError):
            majority(31)

    @pytest.mark.parametrize("k", [5, 7, 9, 11])
    def test_odd_tables_are_balanced(self, k):
        assert 2 * unpack_bits(majority(k).packed, 1 << k).sum() == 1 << k


class TestThreshold:
    # from n = 11 on the bytes come in more than one block of 256
    @pytest.mark.parametrize("n", range(21))
    def test_popcount_definition(self, n):
        weights = np.bitwise_count(np.arange(1 << n))
        for t in range(n + 2):
            table = threshold(n, t)
            assert table.n == n
            assert np.array_equal(unpack_bits(table.packed, table.size), weights >= t)

    def test_rejects_out_of_range(self):
        for n, t in ((3, -1), (3, 5), (-1, 0), (31, 0)):
            with pytest.raises(ValueError):
                threshold(n, t)


class TestHalves:
    @pytest.mark.parametrize("k", [4, 5, 6, 7, 10])
    def test_halves_recombine(self, k):
        a, b = left_half(k), right_half(k)
        assert a.to_bitstring() + b.to_bitstring() == majority(k).to_bitstring()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_odd_right_half_is_previous_majority(self, n):
        assert right_half(2 * n + 1) == majority(2 * n)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_pieces_are_halves_of_majority(self, k):
        a, b = majority(k).halves()
        assert left_half(k) == a
        assert right_half(k) == b
        if k % 2 and k >= 5:
            assert first_quarter(k) == a.halves()[0]

    def test_first_quarter_domain(self):
        assert first_quarter(7).size == 32
        with pytest.raises(ValueError):
            first_quarter(6)
        with pytest.raises(ValueError):
            first_quarter(3)


class TestClosedForms:
    def test_binomial_matches_stdlib(self):
        for a in range(0, 65, 7):
            for b in range(0, a + 1, 3):
                assert binomial(a, b) == math.comb(a, b)

    def test_binomial_bounds(self):
        with pytest.raises(ValueError):
            binomial(65, 1)
        with pytest.raises(ValueError):
            binomial(4, 5)
        with pytest.raises(ValueError):
            binomial(4, -1)

    @pytest.mark.parametrize(
        "k,expected", [(4, 5), (5, 10), (6, 22), (7, 44), (8, 93), (9, 186), (10, 386), (13, 3172)]
    )
    def test_nonlinearity_values(self, k, expected):
        assert predicted_nonlinearity(k) == expected

    def test_nonlinearity_formula_shape(self):
        for n in range(2, 13):
            odd = (1 << (2 * n)) - math.comb(2 * n, n)
            assert predicted_nonlinearity(2 * n + 1) == odd
            assert predicted_nonlinearity(2 * n) == odd // 2

    def test_left_half_weight_values(self):
        for n in range(2, 13):
            expected = (1 << (2 * n - 1)) - math.comb(2 * n, n) // 2
            assert predicted_left_half_weight(n) == expected

    def test_right_half_nonlinearity_values(self):
        assert predicted_right_half_nonlinearity(3) == 6
        assert predicted_right_half_nonlinearity(4) == 29
        assert predicted_right_half_nonlinearity(5) == 130

    def test_quarter_half_weights(self):
        for n in range(3, 13):
            left, right = predicted_quarter_half_weights(n)
            assert right - left == math.comb(2 * n - 2, n)

    @pytest.mark.parametrize("k", range(4, BINOMIAL_MAX + 1))
    def test_every_value_up_to_the_binomial_cap(self, k):
        # each closed form against the weight of the table it describes, counted;
        # N(majority(2n)) is the weight of the left half of majority(2n + 1)
        n = k // 2
        left_weight = weight_at_least(2 * n, n + 1)
        if k % 2 == 0:
            assert predicted_nonlinearity(k) == left_weight
            if n >= 3:  # mirror of the right half threshold(2n - 1, n - 1)
                mirrored_weight = (1 << (2 * n - 1)) - weight_at_least(2 * n - 1, n - 1)
                assert predicted_right_half_nonlinearity(n) == mirrored_weight
        else:
            assert predicted_nonlinearity(k) == 2 * left_weight
            assert predicted_left_half_weight(n) == left_weight
            if n >= 3:  # halves of the first quarter threshold(2n - 1, n + 1)
                quarter = weight_at_least(2 * n - 2, n + 1), weight_at_least(2 * n - 2, n)
                assert predicted_quarter_half_weights(n) == quarter

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            predicted_nonlinearity(3)
        with pytest.raises(ValueError):
            predicted_left_half_weight(1)
        with pytest.raises(ValueError):
            predicted_right_half_nonlinearity(2)
        with pytest.raises(ValueError):
            predicted_quarter_half_weights(2)


def _plus_one(form):
    """form with one added to its value, or to the last of its values."""

    def wrong(n):
        value = form(n)
        return (*value[:-1], value[-1] + 1) if isinstance(value, tuple) else value + 1

    return wrong


def _every_table(change):
    """A majority builder whose every table, majority(k - 1) as well, is changed by change."""
    return lambda build: lambda k: change(build(k))


_BIT_ZERO_FLIPPED = _every_table(lambda t: TruthTable(t.n, t.bits ^ 1))
_COMPLEMENTED = _every_table(TruthTable.complement)

# For each identity, one wrong input to the majority module that must make
# it fail in every report that checks it: a closed form, or the majority
# builder.  A flipped bit moves every distance to an affine table by one, so
# N changes parity; the complement keeps N and the decomposition, but not
# the weights.
_BROKEN_INPUTS = {
    "nonlinearity_closed_form": ("predicted_nonlinearity", _plus_one),
    "odd_from_even_decomposition": ("majority", _BIT_ZERO_FLIPPED),
    "right_half_is_reversed_complement": ("majority", _BIT_ZERO_FLIPPED),
    "odd_majority_balanced": ("majority", _BIT_ZERO_FLIPPED),
    "left_half_weight_formula": ("predicted_left_half_weight", _plus_one),
    "mirror_extension_doubles_nonlinearity": ("majority", _BIT_ZERO_FLIPPED),
    "left_half_weight_equals_nonlinearity": ("majority", _COMPLEMENTED),
    "first_quarter_is_reversed_complement": ("majority", _BIT_ZERO_FLIPPED),
    "quarter_half_weight_formulas": ("predicted_quarter_half_weights", _plus_one),
    "mirrored_right_half_weight_bound": ("majority", _COMPLEMENTED),
    "right_half_closed_forms_agree": ("_right_half_nonlinearity_forms", _plus_one),
    "right_half_nonlinearity_formula": ("majority", _COMPLEMENTED),
}


class TestReports:
    def test_range_guard(self):
        with pytest.raises(ValueError):
            majority_report(3)
        with pytest.raises(ValueError, match=f"variable count {max_vars() + 1} outside 4..{max_vars()}"):
            majority_report(max_vars() + 1)
        with pytest.raises(ValueError, match=f"variable count {max_vars() + 1} outside 4..{max_vars()}"):
            verify_identities(max_vars() + 1)

    # the low bound is checked at the call, before the sweep's buffer is reserved
    @pytest.mark.parametrize("k_max", [3, -1])
    def test_low_bound_is_checked_before_the_sweep(self, monkeypatch, k_max):
        module = importlib.import_module("boolfn.majority")  # boolfn.majority is the function
        monkeypatch.setattr(module, "SpectrumSweep", lambda k: pytest.fail("the sweep was built"))
        with pytest.raises(ValueError, match=f"variable count {k_max} outside 4..{max_vars()}"):
            iter_reports(k_max)
        with pytest.raises(ValueError, match=f"variable count {k_max} outside 4..{max_vars()}"):
            majority_report(k_max)

    def test_report_shape(self):
        rep = majority_report(6)
        d = rep.to_dict()
        assert set(d) == {"k", "weight", "nonlinearity", "predicted", "identities", "oracle"}
        assert d["k"] == 6 and d["nonlinearity"] == 22 and d["oracle"] == "both"
        assert all(set(item) == {"name", "pass"} for item in d["identities"])

    def test_oracle_label_switches(self):
        assert majority_report(15).oracle == "both"
        assert majority_report(16).oracle == "spectrum"

    def test_verify_sweep_passes(self):
        reports = verify_identities(13)
        assert len(reports) == 10
        assert all(rep.all_passed() for rep in reports)
        names = {r.name for rep in reports for r in rep.identities}
        assert "odd_from_even_decomposition" in names
        assert "right_half_nonlinearity_formula" in names

    def test_every_identity_is_checked_for_failure(self):
        names = {r.name for rep in verify_identities(12) for r in rep.identities}
        assert names == set(_BROKEN_INPUTS)

    @pytest.mark.parametrize("name", _BROKEN_INPUTS)
    def test_every_identity_can_fail(self, monkeypatch, name):
        module = importlib.import_module("boolfn.majority")  # boolfn.majority is the function
        attr, breaking = _BROKEN_INPUTS[name]
        monkeypatch.setattr(module, attr, breaking(getattr(module, attr)))
        outcomes = [r.passed for rep in verify_identities(12) for r in rep.identities if r.name == name]
        assert outcomes and not any(outcomes)

    def test_previous_spectrum_is_reused_only_after_the_decomposition_holds(self, monkeypatch):
        module = importlib.import_module("boolfn.majority")  # boolfn.majority is the function
        build = module.majority

        def corrupted(k):
            # majority(8), which majority_report(9) builds as the previous table, is
            # replaced by the zero table: its nonlinearity is 0, not 93 = N(left half)
            return TruthTable(k, 0) if k == 8 else build(k)

        monkeypatch.setattr(module, "majority", corrupted)
        calls = count_transforms(monkeypatch)
        outcome = {r.name: r.passed for r in majority_report(9).identities}
        assert not outcome["odd_from_even_decomposition"]
        assert not outcome["left_half_weight_equals_nonlinearity"]
        # the first quarter, the second and fourth each derived down to one
        # variable, the third shared with the second, then the
        # decomposition's fallback walsh_transform(prev)
        assert calls == [7, 1, 1, 8]

    def test_one_transform_per_report(self, monkeypatch):
        # N(m) comes from the halves' spectra, and from k = 5 on the half that
        # is majority(k - 1) is carried.  The other half is a threshold table
        # one step from it, so its spectrum is derived from the carried half's
        # one level at a time, down to a table on one variable, which alone is
        # transformed; k = 4 carries nothing, as a standalone report
        calls = count_transforms(monkeypatch)
        reports = verify_identities(12)
        assert all(rep.all_passed() for rep in reports)
        assert calls == [2, 1, 1] + [1] * 8  # k = 4, then k = 5..12

    def test_three_transforms_per_standalone_report(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        reports = [majority_report(k) for k in range(4, 13)]
        assert all(rep.all_passed() for rep in reports)
        # the first quarter whole, then the second and fourth quarters each
        # derived down to one variable; the third is the second
        assert calls == [n for k in range(4, 13) for n in (k - 2, 1, 1)]

    @pytest.mark.parametrize("k", range(16, 21))
    def test_nonlinearity_equals_direct_transform(self, k):
        # past the oracle's range, the report's N(m) against m's own spectrum
        assert majority_report(k).nonlinearity == walsh_transform(majority(k)).nonlinearity()


class TestSweepCarry:
    """iter_reports carries majority(k - 1)'s spectrum from one report to the next."""

    def test_every_pair_of_half_spectra_is_the_fresh_transform(self, monkeypatch):
        module = importlib.import_module("boolfn.majority")
        join = module.concat_nonlinearity
        seen = []

        def spy(w_a, w_b):
            # compared at the call: the next report overwrites the sweep's buffer
            k = w_a.n + 1
            a, b = majority(k).halves()
            assert np.array_equal(w_a.values, walsh_transform(a).values), k
            assert np.array_equal(w_b.values, walsh_transform(b).values), k
            seen.append(k)
            return join(w_a, w_b)

        monkeypatch.setattr(module, "concat_nonlinearity", spy)
        assert all(rep.all_passed() for rep in iter_reports(20))
        assert seen == list(range(4, 21))

    def test_sweep_reports_equal_standalone_reports(self):
        for rep in iter_reports(20):
            assert rep.to_dict() == majority_report(rep.k).to_dict()

    @pytest.mark.parametrize("k", [8, 9])
    def test_a_carried_table_of_another_size_is_not_reused(self, k):
        # the sweep skips k - 1, so the carried table majority(k - 2) is no half of majority(k)
        sweep = SpectrumSweep(k)
        majority_report(k - 2, sweep)
        assert majority_report(k, sweep).to_dict() == majority_report(k).to_dict()
        assert sweep.table == majority(k)

    def test_a_carried_table_that_differs_falls_back_to_fresh_transforms(self, monkeypatch):
        # whatever the buffer holds, a carried table unequal to majority(k - 1)
        # is not read: the first quarter is transformed whole, as in a standalone report
        calls = count_transforms(monkeypatch)
        for k in (8, 9):
            expected = majority_report(k).to_dict()
            sweep = SpectrumSweep(k)
            majority_report(k - 1, sweep)
            sweep.table = sweep.table.complement()
            sweep.values[:] = 0
            calls.clear()
            assert majority_report(k, sweep).to_dict() == expected, k
            assert calls == [k - 2, 1, 1], k

    @pytest.mark.parametrize("refused", [majority(6), TruthTable(0, 1)], ids=["past-the-buffer", "zero-variables"])
    def test_a_refused_table_changes_neither_the_carried_table_nor_the_buffer(self, refused):
        # so the next table's carried half still gets the carried spectrum
        m4, m5 = majority(4), majority(5)
        sweep = SpectrumSweep(5)
        sweep.half_spectra(m4)
        held = sweep.values.copy()
        with pytest.raises(ValueError, match="sweep buffer holds 32 points|zero variables"):
            sweep.half_spectra(refused)
        assert sweep.table == m4
        assert np.array_equal(sweep.values, held)
        carried = sweep.half_spectra(m5)[1]
        assert np.array_equal(carried.values, walsh_transform(m4).values)

    def test_the_buffer_must_hold_the_report(self):
        with pytest.raises(ValueError, match="sweep buffer holds 256 points"):
            majority_report(9, SpectrumSweep(8))

    @pytest.mark.parametrize("k", range(5, 17))
    def test_previous_majority_is_a_half(self, k):
        # the right half for odd k, the left half for even k
        assert majority(k).halves()[k % 2] == majority(k - 1)
