"""Shared plumbing for the streaming format adapters.

Every parser follows the same contract: it takes a *source* — a file
path (gzip-transparent on a ``.gz`` suffix) or any iterable of text
lines — and yields :class:`~repro.workloads.trace.TimedAccess` records
one at a time, holding only the current line in memory. Timestamps are
re-zeroed so the first emitted record arrives at 0.0 ms, whatever
clock the capturing tool used.

Malformed input raises :class:`~repro.errors.WorkloadError` naming the
source and the 1-based line number — a diagnosable message, never a
stack trace out of ``int()``.
"""

from __future__ import annotations

import gzip
import os
from pathlib import Path
from typing import Iterable, Iterator, Tuple, Union

from repro.errors import WorkloadError

Source = Union[str, Path, Iterable[str]]


def iter_lines(source: Source) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, line)`` pairs from a path or a line iterable.

    Paths ending in ``.gz`` are decompressed on the fly. The generator
    closes the file when exhausted or garbage collected, so parsers can
    stop early (e.g. ``itertools.islice``) without leaking handles.
    """
    if isinstance(source, (str, Path)):
        # The path stays a string: building a Path parses every
        # component, so the work would grow with the directory depth.
        path = os.fspath(source)
        opener = gzip.open(path, "rt", encoding="utf-8", errors="replace") \
            if path.endswith(".gz") \
            else open(path, "r", encoding="utf-8", errors="replace")
        with opener as fh:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line
    else:
        for lineno, line in enumerate(source, start=1):
            yield lineno, line


def source_name(source: Source) -> str:
    """Human-readable name of a source for error messages."""
    if isinstance(source, (str, Path)):
        return str(source)
    return "<lines>"


def parse_error(source: Source, lineno: int, reason: str, line: str) -> WorkloadError:
    """A uniform malformed-input error with the offending line number."""
    shown = line.rstrip("\n")
    if len(shown) > 120:
        shown = shown[:117] + "..."
    return WorkloadError(
        f"{source_name(source)} line {lineno}: {reason}: {shown!r}"
    )


def bytes_to_run(offset_bytes: int, size_bytes: int, block_size: int) -> Tuple[int, int]:
    """Convert a byte extent into an aligned (start_block, n_blocks) run.

    The run covers every block the extent touches (start rounded down,
    end rounded up); zero-length extents still occupy one block, as a
    sub-block request must still read its containing block.
    """
    start = offset_bytes // block_size
    end = -(-(offset_bytes + max(1, size_bytes)) // block_size)
    return start, max(1, end - start)


def check_block_size(block_size: int) -> None:
    """Reject non-positive block sizes before they corrupt addresses."""
    if block_size <= 0:
        raise WorkloadError(f"block size must be positive, got {block_size}")
