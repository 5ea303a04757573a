"""The FOR sequentiality bitmap (§4).

One bit per physical disk block. Bit ``b`` is 1 iff block ``b`` is the
logical continuation, *within the same file*, of physical block
``b - 1`` on the same disk. Deciding how far to read ahead then reduces
to counting consecutive 1-bits after the end of the requested run.

The paper stresses the bitmap's tiny footprint: one bit per 4-KB block
is 0.003% of the disk — 546 KB for the 18-GB drive (Table 1) — and
:meth:`overhead_bytes` reports exactly that figure so the controller
can charge it against its cache.

Storage is a ``numpy`` ``uint8`` array (one byte per block) — we trade
8x metadata RAM in the *simulator* for fast vectorised construction;
the simulated overhead accounting still uses the 1-bit figure. The
array sits on a private anonymous memory map, so only the pages a
layout actually writes become resident: ``np.zeros`` would ask the
kernel for transparent huge pages (numpy does for arrays of 4 MiB and
more, and an 18-GB disk's bitmap is 4.4 MB), and a huge page makes a
whole 2 MB of a sparse bitmap resident whenever the kernel grants one.
"""

from __future__ import annotations

import mmap
from typing import Iterable

import numpy as np

from repro.errors import AddressError


class SequentialityBitmap:
    """Per-disk file-continuation bits."""

    def __init__(self, n_blocks: int):
        if n_blocks <= 0:
            raise AddressError(f"bitmap needs a positive size, got {n_blocks}")
        self.n_blocks = n_blocks
        self._bits = np.frombuffer(
            mmap.mmap(-1, n_blocks, flags=mmap.MAP_PRIVATE), dtype=np.uint8
        )

    # -- construction ------------------------------------------------------

    def set_continuation(self, block: int, value: bool = True) -> None:
        """Mark ``block`` as continuing (or not) the previous physical block."""
        if not 0 <= block < self.n_blocks:
            raise AddressError(f"block {block} outside [0, {self.n_blocks})")
        self._bits[block] = 1 if value else 0

    def set_many(self, blocks: Iterable[int]) -> None:
        """Set the continuation bit for a batch of blocks."""
        idx = np.fromiter(blocks, dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.n_blocks:
                raise AddressError("block index outside bitmap range")
            self._bits[idx] = 1
        # empty batch: nothing to do

    def clear(self) -> None:
        """Reset every bit to 0 (fresh file system)."""
        self._bits[:] = 0

    # -- queries -------------------------------------------------------

    def is_continuation(self, block: int) -> bool:
        """Whether ``block`` continues the same file as block-1."""
        if not 0 <= block < self.n_blocks:
            return False
        return bool(self._bits[block])

    def run_length_from(self, block: int, limit: int) -> int:
        """Number of blocks from ``block`` staying within one file.

        Counts ``block`` itself plus following blocks whose continuation
        bit is set, up to ``limit`` blocks total. This is the paper's
        "count the number of bits until a 0 bit is found".
        """
        if not 0 <= block < self.n_blocks or limit <= 0:
            return 0
        end = min(block + limit, self.n_blocks)
        tail = self._bits[block + 1 : end]
        zero = np.flatnonzero(tail == 0)
        if zero.size:
            return int(zero[0]) + 1
        return end - block

    def overhead_bytes(self) -> int:
        """Simulated storage cost: one bit per block, rounded up."""
        return -(-self.n_blocks // 8)

    def ones(self) -> int:
        """Number of set bits (used by layout statistics and tests)."""
        return int(self._bits.sum())

    def __len__(self) -> int:
        return self.n_blocks
