"""The ``REPRO_*`` environment switches: ``src/`` and README agree.

Every ``REPRO_*`` literal in the package must appear in README's
"Environment switches" table, and every row of the table must still be
read somewhere, so adding or retiring a switch needs a doc line.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"REPRO_[A-Z_]+")


def _source_names() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(NAME.findall(path.read_text()))
    return names


def _documented_names() -> set[str]:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Environment switches\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return {
        match.group(1)
        for match in re.finditer(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M)
    }


def test_every_source_switch_is_documented_and_vice_versa():
    assert _source_names() == _documented_names()

