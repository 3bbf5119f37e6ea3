"""The majority-vote family and its closed-form checks.

majority(k) outputs 1 exactly when the input weight reaches ceil(k/2).
The family obeys a chain of structural identities: the table on an odd
variable count is the reversed complement of the previous even table
glued in front of that same table, the right half mirrors the left
half, and both the weights of the pieces and the nonlinearity have
exact binomial closed forms.  verify_identities() rebuilds every table
and checks each identity bit-exactly or integer-exactly against measured
values.  A report states each identity once, as a row (name, observed,
expected): observed is a non-empty tuple of measured values, and the row
passes iff every one of them equals expected.  Reports run for k in
4..max_vars(), checked by check_vars(k, 4); whether a report fits in memory
is not checked here (the CLI's preflight does that).

A report measures majority(k) through the spectra of its two halves,
which a SpectrumSweep writes into its buffer.  One of them is
majority(k - 1), the right half for odd k and the left half for even k,
so when iter_reports passes the same sweep from report to report, that
half is found equal to the table the sweep carries and its spectrum is
joined from the previous report's.  Both halves are threshold tables,
T(k - 1, ceil(k/2)) and T(k - 1, ceil(k/2) - 1), and T(m, s) is
T(m - 1, s) || T(m - 1, s - 1), so the left half's right half is the right
half's left half, one level down after another; the sweep derives the
other half's spectrum from the carried half's along that chain, and
transforms only a table on one variable per report.  The walk that takes
N(majority(k)) from the halves' spectra takes each half's own N as well,
so the identities read no spectrum again.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .spectral import SpectrumSweep, brute_force_nonlinearity, concat_nonlinearity, walsh_transform
from .truthtable import TruthTable, check_vars, concat

BINOMIAL_MAX = 64
_BRUTE_FORCE_MAX_K = 15


def threshold(n: int, t: int) -> TruthTable:
    """Truth table on n variables that is 1 iff the input weight is >= t,
    for t in 0..n + 1.

    Byte j of the packed table holds points 8j..8j+7, whose weights are
    popcount(j) plus the weights of the low three index bits, so the byte
    depends only on popcount(j): one packed row per popcount.  The bytes
    come in blocks of up to 256, and block j >> 8 holds the rows for
    popcount(j & 255) + popcount(j >> 8), so one block is built per high
    popcount and the blocks are gathered in one take.  A table under 8
    points packs only its own points."""
    check_vars(n)
    if not 0 <= t <= n + 1:
        raise ValueError(f"threshold {t} outside 0..{n + 1}")
    size = 1 << n
    low = np.bitwise_count(np.arange(min(size, 8)))
    high = np.arange(max(n - 3, 0) + 1)[:, None]
    rows = np.packbits(low + high >= t, axis=1, bitorder="little").reshape(-1)
    width = min((size + 7) // 8, 256)  # bytes per block
    counts = np.bitwise_count(np.arange((size + 7) // 8 // width))  # of each block's index
    blocks = rows[np.bitwise_count(np.arange(width)) + np.arange(counts[-1] + 1)[:, None]]
    return TruthTable.from_packed(n, blocks.take(counts, axis=0).tobytes())


def _majority_threshold(k: int) -> int:
    """ceil(k/2), for k in 1..max_vars()."""
    return (check_vars(k, 1) + 1) // 2


def majority(k: int) -> TruthTable:
    """Truth table of the k-variable majority vote: 1 iff weight >= ceil(k/2)."""
    return threshold(k, _majority_threshold(k))


def left_half(k: int) -> TruthTable:
    """First half of majority(k): x_1 = 0, so the other k - 1 inputs need ceil(k/2)."""
    return threshold(k - 1, _majority_threshold(k))


def right_half(k: int) -> TruthTable:
    """Second half of majority(k): x_1 = 1, so the other k - 1 inputs need one fewer."""
    return threshold(k - 1, _majority_threshold(k) - 1)


def first_quarter(k: int) -> TruthTable:
    """First quarter of the majority table (x_1 = x_2 = 0); defined for odd k >= 5."""
    if k % 2 == 0:
        raise ValueError("first quarter is defined for odd variable counts")
    if k < 5:
        raise ValueError("first quarter needs at least five variables")
    return threshold(k - 2, _majority_threshold(k))


def binomial(a: int, b: int) -> int:
    """Exact C(a, b)."""
    if not 0 <= b <= a <= BINOMIAL_MAX:
        raise ValueError(f"binomial arguments ({a}, {b}) outside 0 <= b <= a <= {BINOMIAL_MAX}")
    return math.comb(a, b)


def _half_central(m: int) -> int:
    """C(2m, m)/2, exact for m >= 1."""
    half, rem = divmod(binomial(2 * m, m), 2)
    assert rem == 0  # central binomials are even for m >= 1
    return half


def _quarter_tail(n: int) -> int:
    """Sum of C(2n-2, j) over j = n+1..2n-2: the points of weight >= n + 1
    on 2n - 2 variables."""
    return sum(binomial(2 * n - 2, j) for j in range(n + 1, 2 * n - 1))


def predicted_nonlinearity(k: int) -> int:
    """Closed-form nonlinearity of majority(k):
    2**(2n) - C(2n, n) for k = 2n + 1, half that for k = 2n."""
    if k < 4:
        raise ValueError("closed-form nonlinearity starts at four variables")
    n = k // 2
    if k % 2:
        return (1 << (2 * n)) - binomial(2 * n, n)
    return (1 << (2 * n - 1)) - _half_central(n)


def predicted_left_half_weight(n: int) -> int:
    """Weight of the left half of majority(2n + 1): 2**(2n-1) - C(2n, n)/2,
    the same closed form as the nonlinearity of majority(2n)."""
    if n < 2:
        raise ValueError("left-half weight formula needs n >= 2")
    return predicted_nonlinearity(2 * n)


def _right_half_nonlinearity_forms(n: int) -> tuple[int, int]:
    """The two equivalent binomial forms for the right half of majority(2n)."""
    tail = _quarter_tail(n)
    first = 2 * tail + binomial(2 * n - 2, n)
    second = tail + (1 << (2 * n - 3)) - _half_central(n - 1)
    return first, second


def predicted_right_half_nonlinearity(n: int) -> int:
    """Closed-form nonlinearity of the right half of majority(2n), n >= 3."""
    if n < 3:
        raise ValueError("right-half nonlinearity formula needs n >= 3")
    first, second = _right_half_nonlinearity_forms(n)
    if first != second:
        raise ArithmeticError(f"closed forms disagree at n={n}: {first} vs {second}")
    return first


def predicted_quarter_half_weights(n: int) -> tuple[int, int]:
    """Weights of the two halves of the first quarter of majority(2n + 1):
    the quarter tail, and the tail plus the C(2n-2, n) points of weight n."""
    if n < 3:
        raise ValueError("quarter-half weight formulas need n >= 3")
    left = _quarter_tail(n)
    return left, left + binomial(2 * n - 2, n)


def run_length_string(t: TruthTable) -> str:
    """Run-length text like '0_7 1 0_3 1 0 1_3' for compact table display."""
    parts = []
    for ch, run in groupby(t.to_bitstring()):
        m = len(list(run))
        parts.append(ch if m == 1 else f"{ch}_{m}")
    return " ".join(parts)


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool


@dataclass(frozen=True)
class MajorityReport:
    """Measured quantities and identity outcomes for one variable count."""

    k: int
    weight: int
    nonlinearity: int
    predicted: int
    identities: tuple[IdentityResult, ...]
    oracle: str

    def all_passed(self) -> bool:
        return all(r.passed for r in self.identities)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "weight": self.weight,
            "nonlinearity": self.nonlinearity,
            "predicted": self.predicted,
            "identities": [{"name": r.name, "pass": r.passed} for r in self.identities],
            "oracle": self.oracle,
        }


def _oracle(t: TruthTable) -> tuple[int, ...]:
    """N(t) by the brute-force oracle, for t on at most _BRUTE_FORCE_MAX_K
    variables; nothing for a larger t."""
    return (brute_force_nonlinearity(t),) if t.n <= _BRUTE_FORCE_MAX_K else ()


def majority_report(k: int, sweep: SpectrumSweep | None = None) -> MajorityReport:
    """Construct majority(k), measure it, and check every applicable identity.

    The halves' spectra are written into sweep, a new SpectrumSweep(k) when
    none is given; in a sweep that carries majority(k - 1), that half's
    spectrum comes from the previous report's.  The report is the same.
    k outside 4..max_vars() is a ValueError, raised before any table is
    built."""
    m = majority(check_vars(k, 4))
    weight = m.weight()
    # N(m) from its halves' spectra: m's own 2**k-point spectrum is never built
    w_a, w_b = (sweep or SpectrumSweep(k)).half_spectra(m)
    a, b = m.halves()  # split after the call, so the sweep's halves are gone by now
    measured = concat_nonlinearity(w_a, w_b)
    predicted = predicted_nonlinearity(k)

    n = k // 2  # k is 2n or 2n + 1
    # each identity is one row: its name, the values measured, and the one
    # value every measured value must equal
    rows = [("nonlinearity_closed_form", (measured, *_oracle(m)), predicted)]
    if k % 2:
        prev = majority(k - 1)
        joined = concat(prev.complement().reverse(), prev)
        # the decomposition proves b == prev; only then is b's spectrum prev's
        nl_prev = (w_b if m == joined else walsh_transform(prev)).nonlinearity()
        nl_left = w_a.nonlinearity()
        left_weight = a.weight()
        rows += [
            ("odd_from_even_decomposition", (m,), joined),
            ("right_half_is_reversed_complement", (b,), a.complement().reverse()),
            ("odd_majority_balanced", (weight,), 1 << (2 * n)),
            ("left_half_weight_formula", (left_weight,), predicted_left_half_weight(n)),
            ("mirror_extension_doubles_nonlinearity", (measured,), 2 * nl_left),
            ("left_half_weight_equals_nonlinearity", (nl_left, nl_prev), left_weight),
        ]
        if k >= 7:
            q1 = a.halves()[0]  # first_quarter(k), without building majority(k) again
            q1a, q1b = q1.halves()
            rows += [
                ("first_quarter_is_reversed_complement", (q1,), prev.halves()[1].complement().reverse()),
                ("quarter_half_weight_formulas", ((q1a.weight(), q1b.weight()),), predicted_quarter_half_weights(n)),
            ]
    elif k >= 6:
        # the mirrored right half is b reversed and complemented; a reversal
        # moves no bit, so its weight is the complement's
        mirrored_weight = b.complement().weight()
        first, second = _right_half_nonlinearity_forms(n)
        rows += [
            ("mirrored_right_half_weight_bound", (mirrored_weight < 1 << (2 * n - 2),), True),
            ("right_half_closed_forms_agree", (second,), first),
            ("right_half_nonlinearity_formula", (w_b.nonlinearity(), mirrored_weight, *_oracle(b)), first),
        ]

    identities = tuple(IdentityResult(name, all(v == expected for v in observed)) for name, observed, expected in rows)
    oracle = "both" if k <= _BRUTE_FORCE_MAX_K else "spectrum"
    return MajorityReport(k, weight, measured, predicted, identities, oracle)


def iter_reports(k_max: int) -> Iterator[MajorityReport]:
    """Reports for k = 4..k_max, each built when the caller asks for it; the
    range, 4..max_vars(), is checked at the call, before the sweep's buffer
    is reserved.  A failed identity never raises, it is recorded in the
    report."""
    sweep = SpectrumSweep(check_vars(k_max, 4))  # majority(k_max) is the largest table
    return (majority_report(k, sweep) for k in range(4, k_max + 1))


def verify_identities(k_max: int) -> list[MajorityReport]:
    """Reports for every k in 4..k_max; see iter_reports."""
    return list(iter_reports(k_max))
