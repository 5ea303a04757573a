"""Read-ahead policies applied by the disk controller on a miss."""

from repro.readahead.base import ReadAheadPolicy
from repro.readahead.blind import BlindReadAhead
from repro.readahead.none import NoReadAhead
from repro.readahead.bitmap import SequentialityBitmap
from repro.readahead.file_oriented import FileOrientedReadAhead

__all__ = [
    "ReadAheadPolicy",
    "BlindReadAhead",
    "NoReadAhead",
    "SequentialityBitmap",
    "FileOrientedReadAhead",
]
