"""The README names only public API that exists."""

import re
from pathlib import Path

import dwfinsler as dw

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_dw_name_in_the_readme_is_exported():
    names = set(re.findall(r"\bdw\.(\w+)", README.read_text(encoding="utf-8")))
    assert "run_suites" in names  # the pattern still reads the README's usage
    assert sorted(n for n in names if not hasattr(dw, n)) == []
    assert sorted(names - set(dw.__all__)) == []
