"""Reference results computed with the benchmark's own numpy code.

Nothing here calls boolfn: the Walsh and Moebius transforms are written
out again so that a fault in the program cannot hide in its own check.
Table entries are uint8 0/1 arrays with entry i at position i, the same
point order boolfn uses, so spectrum index w pairs with input x through
popcount(w & x).
"""

from __future__ import annotations

import json
import math

import numpy as np


def walsh(entries: np.ndarray) -> np.ndarray:
    """W(w) = sum_x (-1)**(f(x) + w.x) by the in-place int64 butterfly."""
    a = 1 - 2 * entries.astype(np.int64)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        top = pairs[:, 0, :].copy()
        pairs[:, 0, :] += pairs[:, 1, :]
        pairs[:, 1, :] = top - pairs[:, 1, :]
        h *= 2
    return a


def mobius(entries: np.ndarray) -> np.ndarray:
    """ANF coefficients: a(m) = XOR of f(x) over every x whose bits are a subset of m."""
    a = entries.astype(np.uint8)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        pairs[:, 1, :] ^= pairs[:, 0, :]
        h *= 2
    return a


def _verdict(n: int, weight: int, nl: int) -> str:
    if n < 2 or weight > 1 << (n - 2):
        return "not-applicable"
    return "pass" if weight == nl else "fail"


def table_facts(entries: np.ndarray) -> dict:
    """The fields `boolfn analyze` reports, plus the ANF monomial count."""
    n = entries.size.bit_length() - 1
    spectrum = np.abs(walsh(entries))
    anf = mobius(entries)
    weight = int(entries.sum())
    max_abs = int(spectrum.max())
    nl = (1 << (n - 1)) - max_abs // 2
    monomials = np.flatnonzero(anf)
    return {
        "n": n,
        "weight": weight,
        "balanced": 2 * weight == entries.size,
        "nonlinearity": nl,
        "degree": int(np.bitwise_count(monomials).max()) if monomials.size else 0,
        "max_abs_walsh": max_abs,
        "max_abs_walsh_at": int(np.argmax(spectrum)),
        "monomials": int(monomials.size),
        "weight_equals_nonlinearity": _verdict(n, weight, nl),
    }


def census_facts(n: int, table_ids: np.ndarray) -> tuple[list[str], list[tuple]]:
    """Tables on n variables by id (table t has entry i = bit i of t): their
    '0'/'1' text, entry 0 first, and their facts as tuples in report_tuple
    order, from the 2^n x 2^n Hadamard matrix and the GF(2) subset matrix."""
    size = 1 << n
    idx = np.arange(size)
    tables = ((table_ids[:, None] >> idx) & 1).astype(np.uint8)
    hadamard = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]).astype(np.int64) & 1)
    subset = ((idx[:, None] & idx[None, :]) == idx[:, None]).astype(np.int64)
    spectrum = np.abs((1 - 2 * tables.astype(np.int64)) @ hadamard)
    anf = (tables.astype(np.int64) @ subset) & 1
    weight = tables.sum(axis=1)
    max_abs = spectrum.max(axis=1)
    nl = (1 << (n - 1)) - max_abs // 2
    degree = (anf * np.bitwise_count(idx)).max(axis=1)
    rows = zip(
        weight.tolist(), nl.tolist(), degree.tolist(), max_abs.tolist(),
        spectrum.argmax(axis=1).tolist(), anf.sum(axis=1).tolist(),
    )
    facts = [
        (n, w, 2 * w == size, nl_, d, m, at, count, _verdict(n, w, nl_))
        for w, nl_, d, m, at, count in rows
    ]
    text = (tables + ord("0")).tobytes().decode("ascii")
    return [text[i : i + size] for i in range(0, len(text), size)], facts


def monomial_count(rendered: str) -> int:
    """Monomials in an ANF string such as 'x1x2 + x3 + 1'; '0' has none."""
    return 0 if rendered == "0" else rendered.count(" + ") + 1


def report_tuple(report: dict) -> tuple:
    """An analyze report's checked fields, in census_facts order."""
    return (
        report["n"], report["weight"], report["balanced"], report["nonlinearity"],
        report["degree"], report["max_abs_walsh"], report["max_abs_walsh_at"],
        monomial_count(report["anf"]), report["weight_equals_nonlinearity"],
    )


def facts_tuple(facts: dict) -> tuple:
    return (
        facts["n"], facts["weight"], facts["balanced"], facts["nonlinearity"],
        facts["degree"], facts["max_abs_walsh"], facts["max_abs_walsh_at"],
        facts["monomials"], facts["weight_equals_nonlinearity"],
    )


def majority_nonlinearity(k: int) -> int:
    """2^(2n) - C(2n, n) for k = 2n + 1; 2^(2n-1) - C(2n, n)/2 for k = 2n."""
    n = k // 2
    if k % 2:
        return (1 << (2 * n)) - math.comb(2 * n, n)
    return (1 << (2 * n - 1)) - math.comb(2 * n, n) // 2


def majority_weight(k: int) -> int:
    """Inputs of weight at least ceil(k/2)."""
    return sum(math.comb(k, j) for j in range((k + 1) // 2, k + 1))


def check_sweep(rc: int, text: str, k_max: int) -> str | None:
    """None when a `verify --json` sweep is right, else what was wrong."""
    if rc != 0:
        return f"exit code {rc}"
    lines = [json.loads(line) for line in text.splitlines()]
    *reports, summary = lines
    if [r.get("k") for r in reports] != list(range(4, k_max + 1)):
        return "reports do not cover k = 4..k_max in order"
    for r in reports:
        k = r["k"]
        if not all(i["pass"] for i in r["identities"]):
            return f"k={k}: an identity failed"
        want = majority_nonlinearity(k)
        if (r["nonlinearity"], r["predicted"], r["weight"]) != (want, want, majority_weight(k)):
            return f"k={k}: nonlinearity/predicted/weight != {want}/{want}/{majority_weight(k)}"
    if summary != {"summary": {"k_min": 4, "k_max": k_max, "all_passed": True, "failed_k": []}}:
        return f"summary {summary}"
    return None
