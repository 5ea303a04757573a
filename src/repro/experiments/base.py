"""Shared experiment plumbing: series containers and sweep helpers.

Every experiment driver exposes ``run(scale=..., seed=...) ->
SeriesResult``; :mod:`repro.experiments.registry` records how the CLI
splits and renders it. ``scale`` shrinks workload sizes (request
counts, file counts, cache footprints) proportionally so the same
driver powers full CLI runs, fast benchmarks and CI tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TypeVar

from repro.metrics.report import format_table

X = TypeVar("X")

#: Progress lines from the drivers. Silent unless a handler is
#: attached; the experiment CLI attaches one on stderr.
LOGGER = logging.getLogger("repro.experiments")

#: A sweep's knee: the first x whose p99 latency is this many times the
#: p99 at the sweep's first x.
KNEE_FACTOR = 10.0


@dataclass
class SeriesResult:
    """One experiment's output: x values and named y series."""

    exp_id: str
    title: str
    x_label: str
    x_values: List[object] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_point(self, name: str, value: float) -> None:
        """Append one y value to the named series."""
        self.series.setdefault(name, []).append(value)

    def get(self, name: str) -> List[float]:
        """A named series' values (raises ``KeyError`` if absent)."""
        return self.series[name]

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-safe except for exotic x values)."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": self.x_values,
            "series": self.series,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SeriesResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            exp_id=data["exp_id"],
            title=data["title"],
            x_label=data["x_label"],
            x_values=list(data["x_values"]),
            series={k: list(v) for k, v in data["series"].items()},
            notes=list(data.get("notes", [])),
        )

    def to_json(self) -> str:
        """Serialise the series (and notes) as a JSON document."""
        import json

        return json.dumps(self.to_dict(), indent=2, default=str)

    def save_json(self, path) -> None:
        """Write :meth:`to_json` to ``path``."""
        from pathlib import Path

        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load_json(cls, path) -> "SeriesResult":
        """Read a result written by :meth:`save_json`."""
        import json
        from pathlib import Path

        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def to_text(self) -> str:
        """Paper-style table: one row per x value, one column per series."""
        headers = [self.x_label] + list(self.series)
        rows = []
        for i, x in enumerate(self.x_values):
            row: List[object] = [x]
            for name in self.series:
                values = self.series[name]
                row.append(values[i] if i < len(values) else float("nan"))
            rows.append(row)
        out = [f"== {self.exp_id}: {self.title} ==", format_table(headers, rows)]
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)


def merge_series_results(parts: Sequence[SeriesResult]) -> SeriesResult:
    """Concatenate per-cell :class:`SeriesResult` slices, in order.

    Each part must be the same experiment restricted to a slice of the
    x axis (what :class:`repro.experiments.parallel.ParallelSweep`
    produces). x values and per-series values are concatenated in the
    given order; notes are deduplicated preserving first occurrence, so
    a note an experiment emits once per run (and therefore once per
    cell) appears exactly once — byte-identical to the serial path.
    """
    if not parts:
        raise ValueError("merge_series_results() needs at least one part")
    first = parts[0]
    merged = SeriesResult(
        exp_id=first.exp_id, title=first.title, x_label=first.x_label
    )
    for part in parts:
        merged.x_values.extend(part.x_values)
        for name, values in part.series.items():
            merged.series.setdefault(name, []).extend(values)
        for note in part.notes:
            if note not in merged.notes:
                merged.notes.append(note)
    return merged


def scaled_count(base: int, scale: float, minimum: int = 1) -> int:
    """``base * scale`` rounded down, floored at ``minimum``."""
    return max(minimum, int(base * scale))


def log(message: str) -> None:
    """One progress line on :data:`LOGGER`."""
    LOGGER.info(message)


def first_knee(xs: Sequence[X], p99s: Sequence[float]) -> Optional[X]:
    """The first x whose p99 is :data:`KNEE_FACTOR` times ``p99s[0]``.

    ``None`` means the knee lies beyond the sweep (or the base p99 is
    zero, so no factor of it is meaningful).
    """
    base = p99s[0]
    if base <= 0:
        return None
    for x, p99 in zip(xs, p99s):
        if p99 >= KNEE_FACTOR * base:
            return x
    return None
