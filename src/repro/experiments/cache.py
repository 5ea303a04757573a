"""Content-addressed on-disk cache of experiment cell results.

A *cell* is the unit of work :class:`repro.experiments.parallel.
ParallelSweep` dispatches: one experiment driver restricted to a single
x-axis value. Its result is fully determined by

* the cell's identity — experiment name, axis kwarg, axis value,
  ``scale`` and ``seed`` (which in turn determine the ``SimConfig``,
  the techniques replayed and the generated trace, because every
  workload generator keys all of its randomness off the seed), and
* the code — split into a *core* fingerprint over every module shared
  between experiments and a *driver* fingerprint over the one figure's
  driver module, so editing ``fig07.py`` dirties only fig07's cells
  while a change to the simulator core dirties everything.

Keys are SHA-256 over the canonical JSON of those components; values
are the cell's :class:`~repro.experiments.base.SeriesResult` as JSON.
A cache entry that fails to load for any reason is treated as a miss
and silently recomputed — an interrupted write can never poison a
sweep.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Dict, Mapping, Optional


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@lru_cache(maxsize=None)
def _driver_files() -> Dict[str, Path]:
    """Experiment name -> source file of its driver module."""
    from repro.experiments.registry import REGISTRY

    return {
        name: Path(inspect.getfile(exp.run)).resolve()
        for name, exp in REGISTRY.items()
    }


@lru_cache(maxsize=None)
def core_fingerprint() -> str:
    """Hash of every ``repro`` source file shared between experiments.

    Driver modules (``fig01.py`` … ``ext_frag.py``) are excluded — they
    get their own per-experiment fingerprint — so the core hash only
    moves when code that can affect *all* cells moves.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    drivers = set(_driver_files().values())
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        if path.resolve() in drivers:
            continue
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@lru_cache(maxsize=None)
def driver_fingerprint(name: str) -> str:
    """Hash of one experiment's driver module source."""
    path = _driver_files().get(name)
    if path is None:
        return "unknown"
    return _sha256(path.read_bytes())


def code_fingerprint(name: str) -> str:
    """Combined code-version component of a cell's cache key."""
    return _sha256(
        f"{core_fingerprint()}:{driver_fingerprint(name)}".encode()
    )


class ResultCache:
    """A directory of ``<key[:2]>/<key>.json`` cell results."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    @staticmethod
    def key_for(payload: Mapping[str, object]) -> str:
        """Content address: SHA-256 of the payload's canonical JSON."""
        return _sha256(
            json.dumps(payload, sort_keys=True, default=repr).encode()
        )

    def path_for(self, key: str) -> Path:
        """On-disk location of ``key``'s entry (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored result dict, or ``None`` on miss/corruption."""
        try:
            return json.loads(self.path_for(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def put(self, key: str, data: Mapping[str, object]) -> None:
        """Store ``data`` under ``key`` (atomic rename, crash-safe)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(data, handle, default=str)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
