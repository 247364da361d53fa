"""Every paper claim holds, and every committed artifact regenerates.

One session-scoped pass regenerates Table I and Figs. 1-5 at the
registry's default trace lengths (seed 1, two workers) into a temp dir.
Each artifact's claims must hold, and each file under ``results/paper/``
must come back byte for byte: a change that moves a published number
shows up here as a diff, not as a silently different figure.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import paper

pytestmark = pytest.mark.slow

COMMITTED = Path(__file__).resolve().parent.parent / "results" / "paper"


@pytest.fixture(scope="session")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper")
    claims = paper.run_artifacts(paper.ARTIFACTS, out, jobs=2)
    return out, claims


@pytest.mark.parametrize("name", list(paper.ARTIFACTS))
def test_claims_hold(regenerated, name):
    _, claims = regenerated
    mine = [c for c in claims if c.artifact == name]
    assert mine, f"{name} states no claims"
    failed = [c for c in mine if not c.holds]
    assert not failed, paper.render_claims(failed)


def test_regenerates_exactly_the_committed_files(regenerated):
    out, _ = regenerated
    assert sorted(p.name for p in out.iterdir()) == sorted(
        p.name for p in COMMITTED.iterdir()
    )


@pytest.mark.parametrize(
    "name", sorted(p.name for p in COMMITTED.iterdir())
)
def test_committed_file_is_reproduced(regenerated, name):
    out, _ = regenerated
    assert (out / name).read_bytes() == (COMMITTED / name).read_bytes()
