#!/usr/bin/env python3
"""Import-layering checker for the simulator's package boundaries.

Enforced rules (AST-level, no imports executed):

1. **No private cross-imports** — no module anywhere under ``src/``
   imports an underscore-prefixed name from another module.
2. **Cache policies are siblings** — ``cache/block.py`` and
   ``cache/segment.py`` never import each other (they share
   ``cache/base.py``).
3. **Read-ahead is controller-free** — nothing in ``repro.readahead``
   imports ``repro.controller``.
4. **Ingest is controller-free** — nothing in ``repro.ingest`` imports
   ``repro.controller``. Trace ingestion may build on workloads and fs
   (records, layouts, bitmaps) but must never reach into the simulated
   hardware; replay wiring lives in ``host``/``experiments``.
5. **Loadgen is a pure producer** — ``repro.loadgen`` may import only
   workload-side packages (``workloads``, ``ingest``, ``fs``) plus the
   shared leaves (``errors``, ``units``, ``sim.rng``). It emits
   records; it never reaches into the consumers (``controller``,
   ``host``, ``cache``, ``disk``, the sim engine, ...) — replay wiring
   lives in ``host``/``experiments``.
6. **Service sits above the host layer** — ``repro.service`` talks to
   the array through ``host``/``array`` (plus the engine, config, obs
   and shared leaves) and never imports device internals
   (``controller``, ``cache``, ``disk``, ``mechanics``, ``scheduling``,
   ``bus``, ...): whatever the wire protocol needs must be reachable
   through the host-layer surface, or it doesn't belong on the wire.
7. **Devices are reached through the device contract** —
   ``repro.disk`` and ``repro.array`` consume device models only
   through the contract surface (``repro.devices``,
   ``repro.devices.base``), never the mechanical internals
   (``repro.mechanics``, ``repro.geometry``, home of the HDD model) or
   a concrete model module (``repro.devices.flash``) — that boundary
   is what keeps new device technologies drop-in.
8. **Perfkit is a pure consumer of result surfaces** —
   ``repro.perfkit`` analyzes runs through the obs/metrics surfaces
   and drives them through the experiments facade (plus config,
   workloads and the shared leaves); it never imports controller /
   cache / disk / array / host internals. Analytics that needs a new
   number must get it added to a result surface, not reach into the
   simulator.

Run from the repository root: ``python tools/check_layering.py``.
Exits non-zero listing every violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

CACHE_POLICIES = {"block", "segment"}


def iter_imports(tree: ast.AST) -> Iterator[Tuple[str, List[str]]]:
    """Yield (module, [imported names]) for every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: resolve later if needed
                continue
            yield node.module or "", [a.name for a in node.names]


def check_private_imports(errors: List[str]) -> None:
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, names in iter_imports(tree):
            if not module.startswith("repro"):
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    errors.append(
                        f"{path}: imports private name '{name}' from {module}"
                    )


def check_cache_policy_isolation(errors: List[str]) -> None:
    cache_dir = SRC / "repro" / "cache"
    for stem in CACHE_POLICIES:
        path = cache_dir / f"{stem}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, _names in iter_imports(tree):
            if not module.startswith("repro.cache."):
                continue
            target = module.split(".")[2]
            if target in CACHE_POLICIES and target != stem:
                errors.append(
                    f"{path}: cache policy '{stem}' imports sibling "
                    f"policy '{target}' (share via base instead)"
                )


def check_readahead_independence(errors: List[str]) -> None:
    for path in sorted((SRC / "repro" / "readahead").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, _names in iter_imports(tree):
            if module.startswith("repro.controller"):
                errors.append(
                    f"{path}: readahead must not depend on the "
                    f"controller package (imports {module})"
                )


def check_ingest_independence(errors: List[str]) -> None:
    for path in sorted((SRC / "repro" / "ingest").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, _names in iter_imports(tree):
            if module.startswith("repro.controller"):
                errors.append(
                    f"{path}: ingest must not depend on the "
                    f"controller package (imports {module})"
                )


#: The only repro packages/modules ``repro.loadgen`` may import from.
LOADGEN_ALLOWED = (
    "repro.loadgen",
    "repro.workloads",
    "repro.ingest",
    "repro.fs",
    "repro.errors",
    "repro.units",
    "repro.sim.rng",
)


def check_loadgen_independence(errors: List[str]) -> None:
    for path in sorted((SRC / "repro" / "loadgen").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, _names in iter_imports(tree):
            if not module.startswith("repro"):
                continue
            if not module.startswith(LOADGEN_ALLOWED):
                errors.append(
                    f"{path}: loadgen is a pure record producer and may "
                    f"only import {', '.join(LOADGEN_ALLOWED)} "
                    f"(imports {module})"
                )


#: The only repro packages/modules ``repro.service`` may import from:
#: the host-layer surface, not the device internals beneath it.
SERVICE_ALLOWED = (
    "repro.service",
    "repro.host",
    "repro.array",
    "repro.obs",
    "repro.sim",
    "repro.config",
    "repro.errors",
    "repro.units",
)


def check_service_independence(errors: List[str]) -> None:
    for path in sorted((SRC / "repro" / "service").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, _names in iter_imports(tree):
            if not module.startswith("repro"):
                continue
            if not module.startswith(SERVICE_ALLOWED):
                errors.append(
                    f"{path}: service is a host-layer facade and may "
                    f"only import {', '.join(SERVICE_ALLOWED)} "
                    f"(imports {module})"
                )


#: The only device-model surface ``repro.disk``/``repro.array`` may
#: import from; the mechanics/geometry internals and the concrete
#: model modules stay behind the device contract.
DEVICE_SURFACE = ("repro.devices.base", "repro.devices")
DEVICE_INTERNAL_PREFIXES = ("repro.mechanics", "repro.geometry")
DEVICE_CONCRETE = {"repro.devices.flash"}


def check_device_surface(errors: List[str]) -> None:
    for package in ("disk", "array"):
        for path in sorted((SRC / "repro" / package).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for module, _names in iter_imports(tree):
                if module.startswith(DEVICE_INTERNAL_PREFIXES):
                    errors.append(
                        f"{path}: repro.{package} must reach device "
                        f"models through the device contract "
                        f"({', '.join(DEVICE_SURFACE)}), not mechanical "
                        f"internals (imports {module})"
                    )
                elif module in DEVICE_CONCRETE:
                    errors.append(
                        f"{path}: repro.{package} imports concrete device "
                        f"module {module}; use the device contract "
                        f"({', '.join(DEVICE_SURFACE)}) instead"
                    )


#: The only repro packages/modules ``repro.perfkit`` may import from:
#: result/obs surfaces and the experiments facade — never the
#: simulated hardware underneath.
PERFKIT_ALLOWED = (
    "repro.perfkit",
    "repro.obs",
    "repro.metrics",
    "repro.errors",
    "repro.units",
    "repro.config",
    "repro.experiments",
    "repro.workloads",
    "repro.sim.rng",
)


def check_perfkit_independence(errors: List[str]) -> None:
    for path in sorted((SRC / "repro" / "perfkit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, _names in iter_imports(tree):
            if not module.startswith("repro"):
                continue
            if not module.startswith(PERFKIT_ALLOWED):
                errors.append(
                    f"{path}: perfkit consumes result surfaces and may "
                    f"only import {', '.join(PERFKIT_ALLOWED)} "
                    f"(imports {module})"
                )


def main() -> int:
    errors: List[str] = []
    check_private_imports(errors)
    check_cache_policy_isolation(errors)
    check_readahead_independence(errors)
    check_ingest_independence(errors)
    check_loadgen_independence(errors)
    check_service_independence(errors)
    check_device_surface(errors)
    check_perfkit_independence(errors)
    if errors:
        print(f"layering check: {len(errors)} violation(s)", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print("layering check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
