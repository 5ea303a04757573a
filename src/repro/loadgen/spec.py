"""Population specifications: what the synthesized clients look like.

A :class:`ClientClass` describes one behavioral cohort with the
standard closed-form session model (e.g. Barford & Crovella's SURGE):
a client cycles *idle → session → idle*, where a session is a
geometric number of requests separated by exponential think times.
Request targets follow a Bradford-Zipf popularity law over the shared
file-system layout; request sizes are exponential around the class
mean; a ``jump_prob`` re-target models a client abandoning one file
mid-session for another (otherwise requests continue sequentially —
the access pattern the paper's read-ahead techniques live on).

A :class:`PopulationSpec` mixes classes by weight over ``n_clients``
total clients. The spec is *intensive*: scaling ``n_clients`` scales
the offered request rate proportionally while per-client behavior is
unchanged, which is exactly what a client-count sweep needs.

Specs are frozen dataclasses so ``(spec, seed)`` is a complete,
hashable description of a workload — the property the deterministic
expansion in :mod:`repro.loadgen.generate` and the parallel sweep
cache both rely on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import WorkloadError

#: The paper's array capacity in 4-KB blocks (8 x 18 GB) — the default
#: logical space the population's files are laid out in.
DEFAULT_TOTAL_BLOCKS = 8 * (18_000_000_000 // 4096)


@dataclass(frozen=True)
class ClientClass:
    """One cohort of identically-distributed clients."""

    name: str
    #: Relative share of the population (normalized across classes).
    weight: float = 1.0
    #: Mean request size (exponential, floored at one block).
    mean_request_kb: float = 16.0
    #: Fraction of requests that are writes.
    write_fraction: float = 0.1
    #: Mean think time between a session's requests (exponential, ms).
    mean_think_ms: float = 250.0
    #: Mean requests per session (geometric, >= 1).
    mean_session_requests: float = 8.0
    #: Mean idle time between a client's sessions (ms).
    mean_intersession_ms: float = 120_000.0
    #: Bradford-Zipf popularity coefficient over the layout's files.
    zipf_alpha: float = 0.8
    #: Per-request probability of abandoning the current file for a
    #: fresh popularity draw (otherwise the cursor continues
    #: sequentially).
    jump_prob: float = 0.2

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on out-of-range parameters."""
        if not self.name:
            raise WorkloadError("client class needs a name")
        if self.weight <= 0:
            raise WorkloadError(f"{self.name}: weight must be positive")
        if self.mean_request_kb <= 0:
            raise WorkloadError(f"{self.name}: mean_request_kb must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError(f"{self.name}: write_fraction outside [0, 1]")
        if self.mean_think_ms <= 0:
            raise WorkloadError(f"{self.name}: mean_think_ms must be positive")
        if self.mean_session_requests < 1.0:
            raise WorkloadError(f"{self.name}: mean_session_requests must be >= 1")
        if self.mean_intersession_ms <= 0:
            raise WorkloadError(f"{self.name}: mean_intersession_ms must be positive")
        if self.zipf_alpha < 0:
            raise WorkloadError(f"{self.name}: zipf_alpha must be non-negative")
        if not 0.0 <= self.jump_prob <= 1.0:
            raise WorkloadError(f"{self.name}: jump_prob outside [0, 1]")

    @property
    def mean_session_ms(self) -> float:
        """Expected in-session duration (requests x think time)."""
        return self.mean_session_requests * self.mean_think_ms

    @property
    def cycle_ms(self) -> float:
        """Expected idle-to-idle client cycle duration."""
        return self.mean_intersession_ms + self.mean_session_ms

    @property
    def requests_per_ms_per_client(self) -> float:
        """Long-run request rate one client of this class offers."""
        return self.mean_session_requests / self.cycle_ms


@dataclass(frozen=True)
class ShaperSpec:
    """Aggregate arrival-rate modulation (diurnal cycle + bursts).

    The defaults are the identity (no modulation); see
    :class:`repro.loadgen.shaper.RateShaper` for the time-warp
    semantics. ``diurnal_amplitude`` is capped below 1 so the
    instantaneous rate multiplier stays strictly positive (no
    clamping, so the warp is exactly invertible).
    """

    #: Sinusoidal rate-cycle period in ms (0 disables the diurnal term).
    diurnal_period_ms: float = 0.0
    #: Peak-to-mean sinusoid amplitude, in [0, 0.95).
    diurnal_amplitude: float = 0.0
    #: Expected flash-crowd bursts per simulated hour (0 disables).
    burst_rate_per_hour: float = 0.0
    #: Extra rate multiplier while a burst window is active.
    burst_magnitude: float = 2.0
    #: Burst window duration in ms.
    burst_duration_ms: float = 30_000.0
    #: Horizon the burst schedule is expanded to, in ms.
    horizon_ms: float = 3_600_000.0

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on out-of-range parameters."""
        if not self.diurnal_period_ms >= 0:
            raise WorkloadError("diurnal_period_ms must be non-negative")
        if self.diurnal_period_ms > 0 and not 0.0 <= self.diurnal_amplitude < 0.95:
            raise WorkloadError(
                f"diurnal_amplitude must be in [0, 0.95), got {self.diurnal_amplitude}"
            )
        if not self.burst_rate_per_hour >= 0:
            raise WorkloadError("burst_rate_per_hour must be non-negative")
        if self.burst_rate_per_hour > 0:
            if self.burst_magnitude <= 0:
                raise WorkloadError("burst_magnitude must be positive")
            if self.burst_duration_ms <= 0:
                raise WorkloadError("burst_duration_ms must be positive")
            if self.horizon_ms <= 0:
                raise WorkloadError("horizon_ms must be positive")

    @property
    def is_identity(self) -> bool:
        """True when no modulation is configured (warp(u) == u)."""
        return (
            self.diurnal_period_ms == 0 or self.diurnal_amplitude == 0
        ) and self.burst_rate_per_hour == 0


@dataclass(frozen=True)
class PopulationSpec:
    """A complete client population over a shared file set."""

    name: str = "population"
    n_clients: int = 10_000
    classes: Tuple[ClientClass, ...] = (ClientClass(name="uniform"),)
    #: Records the merged stream is capped at.
    n_requests: int = 50_000
    n_files: int = 20_000
    mean_file_kb: float = 64.0
    file_size_sigma: float = 1.2
    frag_prob: float = 0.0
    total_blocks: int = DEFAULT_TOTAL_BLOCKS
    block_size: int = 4096
    #: Closed-loop stream count recorded in emitted trace metadata.
    n_streams: int = 128
    #: Coalesce probability recorded in emitted trace metadata.
    coalesce_prob: float = 0.87
    shaper: ShaperSpec = field(default_factory=ShaperSpec)

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on an inconsistent spec."""
        if self.n_clients < 1:
            raise WorkloadError(f"need >= 1 client, got {self.n_clients}")
        if not self.classes:
            raise WorkloadError("population needs at least one client class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate client class names: {names}")
        for cls in self.classes:
            cls.validate()
        if self.n_requests < 1:
            raise WorkloadError(f"need >= 1 request, got {self.n_requests}")
        if self.n_files < 1:
            raise WorkloadError(f"need >= 1 file, got {self.n_files}")
        if self.mean_file_kb <= 0:
            raise WorkloadError("mean_file_kb must be positive")
        if self.block_size < 512:
            raise WorkloadError(f"implausible block size {self.block_size}")
        self.shaper.validate()

    def class_population(self) -> Dict[str, int]:
        """Client count per class (largest-remainder apportionment).

        Deterministic: counts sum exactly to ``n_clients``; remainder
        seats go to the largest fractional shares, ties broken by
        declaration order.
        """
        total_weight = sum(c.weight for c in self.classes)
        shares = [
            (c.name, self.n_clients * c.weight / total_weight) for c in self.classes
        ]
        counts = {name: int(share) for name, share in shares}
        leftover = self.n_clients - sum(counts.values())
        by_fraction = sorted(
            range(len(shares)), key=lambda i: shares[i][1] - int(shares[i][1]),
            reverse=True,
        )
        for i in by_fraction[:leftover]:
            counts[shares[i][0]] += 1
        return counts

    def offered_rate_req_s(self) -> float:
        """Mean aggregate request rate the population offers (req/s)."""
        counts = self.class_population()
        per_ms = sum(
            counts[c.name] * c.requests_per_ms_per_client for c in self.classes
        )
        return per_ms * 1000.0


#: Named example populations. ``web3`` is the workhorse: a three-class
#: web-server mix (interactive browsers, API callers, batch jobs) whose
#: aggregate rate is ~0.074 req/s per client — so a 1k-client
#: population offers ~74 req/s (light for the 8-disk array) and a
#: 1M-client one ~74k req/s (far past saturation), bracketing the
#: queueing knee. ``uniform`` is a single neutral class for unit tests.
PRESETS: Dict[str, PopulationSpec] = {
    "web3": PopulationSpec(
        name="web3",
        classes=(
            ClientClass(
                name="interactive",
                weight=0.70,
                mean_request_kb=16.0,
                write_fraction=0.05,
                mean_think_ms=300.0,
                mean_session_requests=6.0,
                mean_intersession_ms=90_000.0,
                zipf_alpha=1.0,
                jump_prob=0.3,
            ),
            ClientClass(
                name="api",
                weight=0.25,
                mean_request_kb=8.0,
                write_fraction=0.25,
                mean_think_ms=120.0,
                mean_session_requests=12.0,
                mean_intersession_ms=120_000.0,
                zipf_alpha=0.7,
                jump_prob=0.5,
            ),
            ClientClass(
                name="batch",
                weight=0.05,
                mean_request_kb=256.0,
                write_fraction=0.4,
                mean_think_ms=50.0,
                mean_session_requests=50.0,
                mean_intersession_ms=600_000.0,
                zipf_alpha=0.2,
                jump_prob=0.05,
            ),
        ),
    ),
    "uniform": PopulationSpec(name="uniform"),
}


def preset_population(name: str, **overrides: object) -> PopulationSpec:
    """A preset spec with field overrides (``dataclasses.replace``)."""
    spec = PRESETS.get(name)
    if spec is None:
        raise WorkloadError(
            f"unknown population preset {name!r} (have {sorted(PRESETS)})"
        )
    if overrides:
        spec = dataclasses.replace(spec, **overrides)  # type: ignore[arg-type]
    spec.validate()
    return spec
