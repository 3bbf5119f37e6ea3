"""The exhaustive census: every table on 2, 3 and 4 variables through
analyze_table, with the counts of nonlinearity N, of degree and of the
small-weight verdict checked against what can be derived, and the rest
pinned as computed."""

from __future__ import annotations

from collections import Counter
from math import comb

import pytest

from boolfn import TruthTable
from boolfn.cli import analyze_table

# the N counts that no formula here derives, as computed by analyze_table;
# 896 at n = 4 is the count of bent functions on 4 variables
PINNED_N = {2: {1: 8}, 3: {2: 112}, 4: {4: 28000, 5: 14336, 6: 896}}


@pytest.fixture(scope="module", params=[2, 3, 4])
def census(request):
    """n and the Counters of N, degree and verdict over all 2**2**n tables."""
    n = request.param
    reports = [analyze_table(TruthTable(n, bits)) for bits in range(1 << (1 << n))]
    counts = (Counter(getattr(r, field) for r in reports) for field in ("nonlinearity", "degree", "weight_equals_nonlinearity"))
    return n, *counts


def test_degree_counts(census):
    # the tables of degree <= d are the ANFs on the monomials of degree <= d
    n, _, degree, _ = census
    for d in range(n + 1):
        at_most = sum(count for deg, count in degree.items() if deg <= d)
        assert at_most == 2 ** sum(comb(n, i) for i in range(d + 1)), d
    assert set(degree) == set(range(n + 1))


def test_nonlinearity_counts(census):
    # below 2**(n-2) a table is within N of exactly one of the 2**(n+1)
    # affine tables, which lie at least 2**(n-1) apart
    n, nonlinearity, _, _ = census
    derived = {d: 2 ** (n + 1) * comb(1 << n, d) for d in range(1 << (n - 2))}
    assert nonlinearity == {**derived, **PINNED_N[n]}
    assert sum(nonlinearity.values()) == 1 << (1 << n)


def test_verdict_counts(census):
    # the check applies to every table of weight <= 2**(n-2), and holds there
    n, _, _, verdict = census
    applicable = sum(comb(1 << n, w) for w in range((1 << (n - 2)) + 1))
    assert verdict == {"pass": applicable, "not-applicable": (1 << (1 << n)) - applicable}
