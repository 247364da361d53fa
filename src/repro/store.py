"""One durable store: the write, list, sweep and delete rules shared by
the result cache, the checkpoints and the failure reports, each of which
keeps only its own file format and validation.

A write is atomic: a same-directory ``<name>.tmp<pid>`` file, fsynced if
the store says so, then ``os.replace``; the temp file never survives.
:meth:`Store.discard` renames a path into ``<root>/.reaping`` for one
background reaper thread per process: on ext4, unlinking a file whose
data was fsynced measured 36-62 ms and the rename ~0 ms.  Listing never
reads ``.reaping``; an ``atexit`` hook drains the reaper, and a process
that dies first leaves ``.reaping`` debris, which :meth:`Store.purge`
sweeps.
"""

from __future__ import annotations

import atexit
import itertools
import os
import queue
import shutil
import threading
from pathlib import Path
from typing import Iterable

#: Subdirectory of a store's root holding what awaits the reaper.
REAPING_DIR = ".reaping"

_RESULTS = Path(__file__).resolve().parents[2] / "results"


def env_number(name: str, kind: type, what: str, error: type = ValueError):
    """``kind($name)``, or ``None`` when the variable is unset or blank;
    malformed text raises ``error`` naming the variable, what it holds
    (``what``) and the text."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return kind(raw)
    except ValueError:
        raise error(f"{name} must be {what}, got {raw!r}") from None


class Store:
    """The files under ``$env`` (else ``results/<default>``) matching
    ``pattern``; ``fsync`` says whether a write reaches the disk before
    it is published.  An explicit ``root`` overrides both."""

    def __init__(
        self, env: str, default: str, pattern: str, *, fsync: bool,
        root: Path | str | None = None,
    ) -> None:
        self.env, self.default, self.pattern = env, default, pattern
        self.fsync = fsync
        self._root = None if root is None else Path(root)

    @property
    def root(self) -> Path:
        return self._root or Path(
            os.environ.get(self.env) or _RESULTS / self.default
        )

    def write(self, path: Path, data: bytes) -> None:
        """Publish ``data`` at ``path`` atomically."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            _unlink_all([tmp])  # gone already after a successful replace

    def files(self) -> list[Path]:
        """Every stored file, sorted by path."""
        return sorted(
            path for path in self.root.glob(self.pattern)
            if REAPING_DIR not in path.parts
        )

    def sweep_tmp(self) -> int:
        """Delete the temp files of killed writers; returns how many."""
        return _unlink_all(self.root.glob(f"{self.pattern}.tmp*"))

    def discard(self, path: Path) -> None:
        """Free ``path`` at once and delete it in the background (in
        place if it cannot be moved aside)."""
        aside = self.root / REAPING_DIR / (
            f"{path.name}-{os.getpid()}-{next(_aside_serial)}"
        )
        try:
            aside.parent.mkdir(exist_ok=True)
            os.rename(path, aside)
        except OSError:
            _delete(path)
            return
        _reap(aside)

    def purge(self) -> int:
        """Delete every file, temp file and ``.reaping`` entry, then the
        subdirectories left empty; returns the files removed."""
        reaping = self.root / REAPING_DIR
        if reaping.is_dir():
            drain_reaper()
            _delete(reaping)
        removed = _unlink_all(self.files())
        self.sweep_tmp()
        for directory in self.root.glob("*/"):
            try:
                directory.rmdir()  # only empty ones; the rest raise
            except OSError:
                pass
        return removed

    def keep_newest(self, cap: int) -> None:
        """Delete all but the newest ``cap`` files (by mtime, ties by
        name); ``cap`` <= 0 keeps every file."""
        if cap > 0:
            stamped = []
            for path in self.files():
                try:
                    stamped.append((path.stat().st_mtime, path.name, path))
                except OSError:  # pragma: no cover - racing unlink
                    pass
            stamped.sort()
            _unlink_all(path for _, _, path in stamped[:-cap])


def _unlink_all(paths: Iterable[Path]) -> int:
    """Unlink every path that still exists; returns how many."""
    removed = 0
    for path in paths:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def _delete(path: Path) -> None:
    """Delete a file or a directory tree, whatever is left of it."""
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        _unlink_all([path])


# The reaper: one daemon thread per process, started on first use.
_reaper_lock = threading.Lock()
_reaper_queue: queue.Queue | None = None
_aside_serial = itertools.count(1)


def _reaper_loop(work: queue.Queue) -> None:
    while True:
        path = work.get()
        try:
            _delete(path)
        finally:
            work.task_done()


def _reap(path: Path) -> None:
    global _reaper_queue
    with _reaper_lock:
        if _reaper_queue is None:
            _reaper_queue = queue.Queue()
            threading.Thread(
                target=_reaper_loop, args=(_reaper_queue,),
                name="store-reaper", daemon=True,
            ).start()
        _reaper_queue.put(path)


def drain_reaper() -> None:
    """Block until everything queued for deletion is gone."""
    with _reaper_lock:
        work = _reaper_queue
    if work is not None:
        work.join()


def _reset_reaper_in_child() -> None:
    """A forked child has no reaper thread and may have inherited its
    lock held: it starts afresh (the parent deletes what it queued)."""
    global _reaper_lock, _reaper_queue
    _reaper_lock = threading.Lock()
    _reaper_queue = None


atexit.register(drain_reaper)
os.register_at_fork(after_in_child=_reset_reaper_in_child)
