"""The storage rules the result cache, the checkpoints and the failure
reports share (:mod:`repro.store`), checked once on each of the three
stores: atomic writes, listing, background discard and ``clear``."""

from __future__ import annotations

import io
import threading

import pytest

from repro import store
from repro.cli import main
from repro.experiments import supervisor
from repro.experiments.cache import DiskCache
from repro.pipeline import checkpoint as ckpt


@pytest.fixture(params=["cache", "checkpoints", "failures"])
def stored(request):
    """``(name, store, path of one file in it)``, named like its ``repro``
    subcommand; the store is purged before and after the test."""
    cache = DiskCache()
    st, path = {
        "cache": (cache, cache.path_for("ab" * 32)),
        "checkpoints": (ckpt.STORE, ckpt.checkpoint_path("cd" * 32, 300)),
        "failures": (
            supervisor.FAILURE_STORE, supervisor.failure_path("ef" * 32)
        ),
    }[request.param]
    st.purge()
    yield request.param, st, path
    st.purge()


def _temp_files(st) -> list:
    return sorted(st.root.rglob("*.tmp*"))


class _TornFile(io.FileIO):
    """A file whose write lands half the payload, then fails."""

    def write(self, data):
        super().write(data[: len(data) // 2])
        raise RuntimeError("writer died mid-payload")


def test_a_failed_write_leaves_no_temp_file_and_keeps_the_old_one(
    stored, monkeypatch
):
    _, st, path = stored
    st.write(path, b"old")
    fresh = path.with_name(f"fresh-{path.name}")
    monkeypatch.setattr(store, "open", _TornFile, raising=False)
    for target in (path, fresh):
        with pytest.raises(RuntimeError, match="mid-payload"):
            st.write(target, b"new" * 1000)
    monkeypatch.undo()
    assert path.read_bytes() == b"old", "the old file survives"
    assert not fresh.exists(), "a failed first write publishes nothing"
    assert _temp_files(st) == []
    st.write(path, b"new")
    assert path.read_bytes() == b"new"
    assert _temp_files(st) == [], "a successful write leaves no temp file"


def test_files_skip_temp_files_and_reaping(stored):
    _, st, path = stored
    st.write(path, b"x")
    path.with_name(f"{path.name}.tmp999").write_bytes(b"orphan")
    for aside in (
        st.root / store.REAPING_DIR / path.name,
        st.root / store.REAPING_DIR / path.relative_to(st.root),
    ):
        aside.parent.mkdir(parents=True, exist_ok=True)
        aside.write_bytes(b"awaiting the reaper")
    assert st.files() == [path]


def test_discard_frees_the_path_and_the_reaper_deletes_it(
    stored, monkeypatch
):
    _, st, path = stored
    st.write(path, b"x")
    entered, release = threading.Event(), threading.Event()
    delete = store._delete

    def held(target):
        entered.set()
        release.wait(60)
        delete(target)

    monkeypatch.setattr(store, "_delete", held)
    try:
        st.discard(path)
        assert not path.exists(), "the path is free at once"
        assert st.files() == []
        assert entered.wait(10), "the reaper took the discarded file"
        reaping = st.root / store.REAPING_DIR
        assert len(list(reaping.iterdir())) == 1, "it awaits the reaper"
    finally:
        release.set()
        store.drain_reaper()
    assert list(reaping.iterdir()) == []


def test_clear_command_sweeps_orphaned_temp_files(stored, capsys):
    name, st, path = stored
    st.write(path, b"x")
    orphan = path.with_name(f"{path.name}.tmp999")
    orphan.write_bytes(b"left by a killed writer")
    assert main([name, "clear"]) == 0
    assert "removed 1 " in capsys.readouterr().out
    assert not path.exists()
    assert not orphan.exists()
