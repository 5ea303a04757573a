"""Fold a cProfile run into per-layer self-time and call counts.

A layer is a ``repro`` package. The four packages that carry most of the
per-record work (``sim``, ``host``, ``controller``, ``cache``) are split
by module so a change to one pipeline stage shows in its own row. C
builtins (cProfile's ``~`` file) are the ``builtins`` layer; the
standard library, numpy, dataclass-generated methods and this
benchmark's own wrappers are ``other``.
"""

from __future__ import annotations

import cProfile
from typing import Dict, Tuple

#: Packages split by module: package -> its modules, main module first.
#: A module not listed (the cache interface ``cache/base``, controller
#: counters, the host's ``System`` assembly, the RNG streams) folds into its
#: package's main module.
SPLIT: Dict[str, Tuple[str, ...]] = {
    "controller": (
        "controller", "frontend", "cachepath", "mediapath", "completion", "commands",
    ),
    "cache": ("core", "segment", "block", "pinned"),
    "sim": ("engine", "events", "resources"),
    "host": ("streams", "openloop"),
}

#: Packages that reach 1% self-time on some workload.
WHOLE = (
    "oscache", "array", "readahead", "hdc", "scheduling", "disk", "mechanics",
    "geometry", "devices", "bus", "loadgen", "ingest", "workloads", "fs",
)

LAYERS: Tuple[str, ...] = (
    tuple(f"{pkg}.{mod}" for pkg, mods in SPLIT.items() for mod in mods)
    + WHOLE
    + ("builtins", "other")
)

_MARKER = "/repro/"


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    if filename == "~":
        return "builtins"
    cut = filename.rfind(_MARKER)
    if cut < 0:
        return "other"
    package, _, rest = filename[cut + len(_MARKER):].partition("/")
    if package in SPLIT:
        module = rest.rsplit(".", 1)[0]
        return f"{package}.{module if module in SPLIT[package] else SPLIT[package][0]}"
    return package if package in WHOLE else "other"


def fold(profiler: cProfile.Profile, records: int) -> Dict[str, float]:
    """Per-layer ``self_share``/``calls_per_rec`` plus ``sim.events_per_rec``.

    Reads the profiler's raw entries, one per code object: ``pstats``
    keys functions by (file, line, name), which merges the
    dataclass-generated methods that all live at ``<string>:2``.
    ``sim.events_per_rec`` counts the ``heappop`` calls made by the
    engine's ``run`` loop: one per event fired.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    events = 0
    for entry in profiler.getstats():
        code = entry.code
        filename = "~" if isinstance(code, str) else code.co_filename
        layer = layer_of(filename)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        if filename.endswith("/repro/sim/engine.py") and code.co_name == "run":
            events += sum(
                sub.callcount for sub in entry.calls or ()
                if isinstance(sub.code, str) and "heappop" in sub.code
            )
    total = sum(self_s.values()) or 1.0
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_s[layer] / total
        out[f"{layer}.calls_per_rec"] = calls[layer] / records
    out["sim.events_per_rec"] = events / records
    return out
