from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import strategies as st

from boolfn import TruthTable


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0x5EED)


@st.composite
def truth_tables(draw, min_n: int = 0, max_n: int = 8):
    """Strategy producing a TruthTable with n in [min_n, max_n]."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return TruthTable(n, bits)


def count_transforms(monkeypatch) -> list[int]:
    """The variable counts of the tables transformed from now on, in order:
    by the sweep in spectral.py, and by majority.py's own calls."""
    calls = []
    transform = importlib.import_module("boolfn.spectral").walsh_transform

    def counted(t, *args, **kwargs):
        calls.append(t.n)
        return transform(t, *args, **kwargs)

    for name in ("spectral", "majority"):
        monkeypatch.setattr(importlib.import_module(f"boolfn.{name}"), "walsh_transform", counted)
    return calls
