"""Table 1 — main simulation parameters and their default values."""

from __future__ import annotations

from repro.config import ultrastar_36z15_config, ReadAheadKind
from repro.experiments.base import SeriesResult


def run(scale: float = 1.0, seed: int = 1) -> SeriesResult:
    """Render the default configuration as Table 1 rows."""
    config = ultrastar_36z15_config(readahead=ReadAheadKind.FILE_ORIENTED, seed=seed)
    result = SeriesResult(
        exp_id="table1",
        title="Main parameters and their default values",
        x_label="parameter",
    )
    for line in config.describe().splitlines():
        result.x_values.append(line)
        result.add_point("value", float("nan"))
    result.notes.append(
        "rendered by SimConfig.describe(); bitmap row shows FOR's 546-KB overhead"
    )
    return result


def render(result: SeriesResult) -> str:
    """The title line, then the ``describe()`` rows verbatim.

    The rows carry their own values, so the generic series table would
    only append a column of NaN placeholders.
    """
    lines = [f"== {result.exp_id}: {result.title} =="]
    lines += [str(row) for row in result.x_values]
    return "\n".join(lines)
