"""Acceptance gate: twelve numbered criteria, one test and one printed
pass/fail line each.  Values are exact integers throughout; the only
tolerances are the stated wall-clock budgets."""

from __future__ import annotations

import time

import numpy as np
import pytest

from boolfn import (
    TruthTable,
    brute_force_nonlinearity,
    concat,
    first_quarter,
    from_bitstring,
    left_half,
    majority,
    nonlinearity,
    predicted_left_half_weight,
    predicted_nonlinearity,
    predicted_quarter_half_weights,
    predicted_right_half_nonlinearity,
    right_half,
    to_anf,
    verify_identities,
    walsh_transform,
)
from boolfn.majority import _right_half_nonlinearity_forms
from boolfn.truthtable import unpack_bits

MAJ5 = "00000001000101110001011101111111"
MAJ6 = (
    "0000000100010111"
    "0001011101111111"
    "0001011101111111"
    "0111111111111111"
)
LEFT7 = (
    "0000000000000001"
    "0000000100010111"
    "0000000100010111"
    "0001011101111111"
)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def checked_spectrum(t: TruthTable):
    """Spectrum with the exactness invariants asserted on every use."""
    spectrum = walsh_transform(t)
    assert spectrum.parseval_sum() == 1 << (2 * t.n)
    assert int(spectrum.values[0]) == t.size - 2 * t.weight()
    return spectrum


def test_criterion_01_five_variable_table_exact_and_fast():
    majority(5).to_bitstring()  # warm the numpy path
    best = min(_timed_build() for _ in range(5))
    ok = majority(5).to_bitstring() == MAJ5 and best < 1e-3
    report(1, "majority(5) serialization, < 1 ms", ok, f"best build {best * 1e6:.0f} us")


def _timed_build() -> float:
    start = time.perf_counter()
    majority(5).to_bitstring()
    return time.perf_counter() - start


def test_criterion_02_six_and_seven_variable_tables_exact():
    ok = majority(6).to_bitstring() == MAJ6 and left_half(7).to_bitstring() == LEFT7
    report(2, "majority(6) and left_half(7) 64-bit tables", ok)


def test_criterion_03_sharpness_example():
    t = from_bitstring("00010011")
    anf = to_anf(t)
    monomial_names = {anf.monomial_string(m) for m in anf.monomials()}
    ok = (
        t.weight() == 3
        and checked_spectrum(t).nonlinearity() == 1
        and brute_force_nonlinearity(t) == 1
        and monomial_names == {"x1x2x3", "x1x2", "x2x3"}
    )
    report(3, "weight-3 table: nonlinearity 1 on both paths, exact polynomial", ok)


def test_criterion_04_closed_form_matches_brute_force_small():
    start = time.perf_counter()
    ok = all(
        brute_force_nonlinearity(majority(k)) == predicted_nonlinearity(k)
        for k in range(4, 16)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(4, "nonlinearity closed form vs brute force, k=4..15, < 60 s", ok, f"{elapsed:.1f} s")


def test_criterion_05_closed_form_matches_spectrum_large():
    start = time.perf_counter()
    ok = all(
        checked_spectrum(majority(k)).nonlinearity() == predicted_nonlinearity(k)
        for k in range(16, 25)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    report(5, "nonlinearity closed form vs spectrum, k=16..24, < 120 s", ok, f"{elapsed:.1f} s")


def test_criterion_06_right_half_nonlinearity_closed_forms():
    expected = {3: 6, 4: 29}
    measured_ok = True
    for n in range(3, 9):
        value = predicted_right_half_nonlinearity(n)
        measured_ok = measured_ok and brute_force_nonlinearity(right_half(2 * n)) == value
        if n in expected:
            measured_ok = measured_ok and value == expected[n]
    forms_ok = all(
        _right_half_nonlinearity_forms(n)[0] == _right_half_nonlinearity_forms(n)[1]
        for n in range(3, 21)
    )
    report(6, "even right half: brute force n=3..8, form identity n=3..20", measured_ok and forms_ok)


def test_criterion_07_structural_decompositions():
    ok = True
    for n in range(2, 13):
        k = 2 * n + 1
        even = majority(k - 1)
        m = majority(k)
        a, b = m.halves()
        ok = ok and m == concat(even.complement().reverse(), even)
        ok = ok and b == a.complement().reverse()
        if n >= 3:
            ok = ok and first_quarter(k) == right_half(k - 1).complement().reverse()
    report(7, "mirror decompositions of the majority table, n=2..12", ok)


def test_criterion_08_piece_weight_formulas():
    halves_ok = all(
        left_half(2 * n + 1).weight() == predicted_left_half_weight(n) for n in range(2, 13)
    )
    quarter_ok = True
    for n in range(3, 13):
        q_left, q_right = first_quarter(2 * n + 1).halves()
        quarter_ok = quarter_ok and (q_left.weight(), q_right.weight()) == (
            predicted_quarter_half_weights(n)
        )
    report(8, "piece weights match binomial forms, n=2..12 and 3..12", halves_ok and quarter_ok)


def test_criterion_09_small_weight_equality_property():
    rng = np.random.default_rng(2024)
    failures = 0
    for n in range(4, 13):
        size = 1 << n
        threshold = 1 << (n - 2)
        for _ in range(1000):
            w = int(rng.integers(0, threshold + 1))
            bits = 0
            for pos in rng.choice(size, size=w, replace=False):
                bits |= 1 << int(pos)
            t = TruthTable(n, bits)
            if checked_spectrum(t).nonlinearity() != w:
                failures += 1
    counterexample = from_bitstring("00010011")
    sharp = counterexample.weight() == 3 and nonlinearity(counterexample) == 1
    ok = failures == 0 and sharp
    report(
        9,
        "weight <= quarter forces wt = N (9000 samples) and weight 3 breaks it",
        ok,
        f"{failures} failures",
    )


def test_criterion_10_oracle_equivalence():
    mismatches = sum(
        checked_spectrum(TruthTable(4, bits)).nonlinearity()
        != brute_force_nonlinearity(TruthTable(4, bits))
        for bits in range(1 << 16)
    )
    rng = np.random.default_rng(99)
    for n in range(5, 13):
        for _ in range(1000):
            bits = int.from_bytes(rng.bytes((1 << n) // 8), "little")
            t = TruthTable(n, bits)
            if checked_spectrum(t).nonlinearity() != brute_force_nonlinearity(t):
                mismatches += 1
    report(10, "spectrum vs brute force: 65536 exhaustive + 8000 random", mismatches == 0)


def test_criterion_11_spectral_invariants_and_definition():
    rng = np.random.default_rng(7)
    ok = True
    for n in range(0, 11):
        size = 1 << n
        idx = np.arange(size, dtype=np.uint32)
        parity = np.zeros((size, size), dtype=np.int64)
        for j in range(n):
            parity += ((idx[:, None] >> j) & 1) * ((idx[None, :] >> j) & 1)
        hadamard = 1 - 2 * (parity & 1)
        for _ in range(100):
            bits = int.from_bytes(rng.bytes((size + 7) // 8), "little") & ((1 << size) - 1)
            t = TruthTable(n, bits)
            direct = hadamard @ (1 - 2 * unpack_bits(t.packed, t.size).astype(np.int64))
            ok = ok and np.array_equal(checked_spectrum(t).values, direct)
    report(11, "transform equals definition, 100 random tables per n <= 10", ok)


@pytest.mark.slow
def test_criterion_12_performance_budgets():
    rng = np.random.default_rng(5)
    tables = [
        TruthTable(20, int.from_bytes(rng.bytes((1 << 20) // 8), "little")) for _ in range(5)
    ]
    walsh_transform(tables[0])  # warm up
    times = []
    for t in tables:
        start = time.perf_counter()
        walsh_transform(t)
        times.append(time.perf_counter() - start)
    median = sorted(times)[len(times) // 2]

    start = time.perf_counter()
    reports = verify_identities(24)
    sweep = time.perf_counter() - start
    sweep_ok = all(rep.all_passed() for rep in reports) and sweep < 300

    ok = median < 1.0 and sweep_ok
    report(
        12,
        "transform n=20 < 1 s median; full identity sweep < 5 min",
        ok,
        f"median {median * 1e3:.0f} ms, sweep {sweep:.0f} s",
    )
