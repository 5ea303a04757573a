"""Bradford-Zipf popularity distributions (§6.2, Fig. 2).

The paper draws request targets from a Bradford-Zipf distribution with
coefficient ``alpha``: the probability of the ``i``-th most popular item
is proportional to ``1 / i**alpha`` (Breslau et al.'s formulation).
``alpha = 0`` degenerates to uniform; ``alpha = 1`` is the classic
Zipf law.

:func:`zipf_accumulated` is the paper's ``z_alpha(H, N)`` — the
probability mass of the ``H`` most popular of ``N`` items — used to
predict HDC hit rates analytically (§5).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.errors import WorkloadError


def _rank_weights(n: int, alpha: float) -> np.ndarray:
    if n <= 0:
        raise WorkloadError(f"need a positive population, got {n}")
    if not alpha >= 0:
        raise WorkloadError(f"alpha must be non-negative, got {alpha}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return ranks ** (-alpha)


def zipf_accumulated(top_k: int, n: int, alpha: float) -> float:
    """``z_alpha(top_k, n)``: mass of the ``top_k`` most popular items."""
    if top_k < 0:
        raise WorkloadError(f"top_k must be non-negative, got {top_k}")
    weights = _rank_weights(n, alpha)
    k = min(top_k, n)
    return float(weights[:k].sum() / weights.sum())


class ZipfSampler:
    """Vectorised sampler over ranked items 0..n-1 (0 = most popular)."""

    def __init__(self, n: int, alpha: float, rng: Optional[np.random.Generator] = None):
        weights = _rank_weights(n, alpha)
        self.n = n
        self.alpha = alpha
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` ranks (int64 array)."""
        if size < 0:
            raise WorkloadError(f"size must be non-negative, got {size}")
        draws = self._rng.random(size)
        return np.searchsorted(self._cdf, draws, side="left").astype(np.int64)

    def sample_one(self) -> int:
        """Draw a single rank."""
        return int(self.sample(1)[0])

    def iter_ranks(self, chunk: int = 1024) -> Iterator[int]:
        """Endless lazy rank stream, drawing ``chunk`` at a time.

        The generator's uniform draws are consumed element-by-element
        regardless of chunking, so the first ``k`` yields equal
        ``sample(k)`` on a same-seeded sampler draw-for-draw — one
        Zipf implementation serves both the vectorised workload
        builders and streaming consumers like :mod:`repro.loadgen`.
        """
        if chunk < 1:
            raise WorkloadError(f"chunk must be >= 1, got {chunk}")
        while True:
            for rank in self.sample(chunk):
                yield int(rank)

    def probability(self, rank: int) -> float:
        """Probability of the item with the given rank (0-based)."""
        if not 0 <= rank < self.n:
            raise WorkloadError(f"rank {rank} outside [0, {self.n})")
        low = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - low)
