"""The ``aoisim`` namespace: every exported name exists and the README's import works."""
from __future__ import annotations

from pathlib import Path

import aoisim
from aoisim import access


def test_every_exported_name_resolves() -> None:
    missing = [name for name in aoisim.__all__ if not hasattr(aoisim, name)]
    assert missing == []


def test_readme_quick_start_import_executes() -> None:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    imports = [
        line for line in readme.read_text(encoding="utf-8").splitlines()
        if line.startswith("from aoisim import ")
    ]
    assert imports
    for line in imports:
        exec(line, {})


def test_grant_is_the_access_rule() -> None:
    assert aoisim.grant is access.grant
