"""The README documents the whole public surface."""

from __future__ import annotations

import pathlib
import re

import boolfn

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_is_in_the_readme():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in boolfn.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert missing == []
