"""Fault profiles and the controller's retry policy.

A :class:`FaultProfile` describes *rates*, not a schedule: how often a
media read fails transiently, how often the media responds slowly,
and the whole-disk failure/repair process. The concrete schedule is
expanded deterministically by :class:`repro.faults.plan.FaultPlan`
from ``(profile, n_disks, seed)``.

Named profiles (:data:`PROFILES`) back the CLI's ``--faults`` flag. A
process-wide *active profile* (install/uninstall, mirroring the obs
tracer's pattern) lets the CLI enable faults for any experiment without
threading a parameter through every driver;
:class:`~repro.host.system.System` resolves ``config.faults`` first and
falls back to the active profile.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff (controller-side).

    A media read that fails (injected transient error, or a completion
    slower than ``command_timeout_ms``) is re-queued after
    ``backoff_base_ms * 2**(attempt-1)``, capped at ``backoff_cap_ms``,
    for at most ``max_retries`` attempts beyond the first; after that
    the command fails upward (where a RAID layer may still serve it
    degraded). ``command_timeout_ms`` of 0 disables timeout accounting.
    """

    max_retries: int = 4
    backoff_base_ms: float = 1.0
    backoff_cap_ms: float = 50.0
    command_timeout_ms: float = 0.0

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (self.backoff_base_ms >= 0 and self.backoff_cap_ms >= 0):
            raise ConfigError("backoff times must be non-negative")
        if not self.command_timeout_ms >= 0:
            raise ConfigError("command timeout must be non-negative")

    def backoff_ms(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based), capped."""
        if attempt < 1:
            raise ConfigError(f"retry attempts are 1-based, got {attempt}")
        return min(self.backoff_cap_ms, self.backoff_base_ms * (2.0 ** (attempt - 1)))


@dataclass(frozen=True)
class FaultProfile:
    """Rates and magnitudes of injected faults (per disk).

    * ``transient_error_rate`` — probability that any one media read
      operation fails with a recoverable media error (the media time is
      still spent: the head moved, the read came back bad);
    * ``slow_op_rate`` / ``slow_factor`` — probability that an
      operation is a slow response, stretched to ``slow_factor`` times
      its mechanical service time (a timeout if the controller's
      :class:`RetryPolicy` says so);
    * ``mtbf_ms`` / ``repair_ms`` — whole-disk failure process:
      exponential inter-failure gaps with this mean, each failure
      lasting ``repair_ms`` before the disk comes back (and a RAID
      layer may start rebuilding it). 0 disables disk failures.
    * ``rebuild_span_blocks`` / ``rebuild_chunk_blocks`` — how much of
      a recovered disk the background rebuild stream copies, and in
      what chunk size (the stream competes with host traffic for media
      time).
    * ``horizon_ms`` / ``horizon_ops`` — how far the deterministic plan
      is expanded; faults never fire beyond the horizon.
    """

    name: str = "custom"
    transient_error_rate: float = 0.0
    slow_op_rate: float = 0.0
    slow_factor: float = 4.0
    mtbf_ms: float = 0.0
    repair_ms: float = 1_000.0
    rebuild_span_blocks: int = 2_048
    rebuild_chunk_blocks: int = 64
    horizon_ms: float = 600_000.0
    horizon_ops: int = 200_000

    def validate(self) -> None:
        for rate_name in ("transient_error_rate", "slow_op_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{rate_name} must be in [0, 1), got {rate}")
        if not self.slow_factor >= 1.0:
            raise ConfigError(f"slow_factor must be >= 1, got {self.slow_factor}")
        if not (self.mtbf_ms >= 0 and self.repair_ms > 0):
            raise ConfigError("mtbf_ms must be >= 0 and repair_ms > 0")
        if self.rebuild_span_blocks < 0 or self.rebuild_chunk_blocks < 1:
            raise ConfigError("bad rebuild span/chunk")
        if not self.horizon_ms > 0 or self.horizon_ops < 1:
            raise ConfigError("fault horizon must be positive")

    @property
    def any_faults(self) -> bool:
        """Whether this profile can inject anything at all."""
        return (
            self.transient_error_rate > 0
            or self.slow_op_rate > 0
            or self.mtbf_ms > 0
        )


#: Named profiles for the CLI's ``--faults`` flag. "none" keeps the
#: fault machinery entirely detached (byte-identical output guarantee).
PROFILES: Dict[str, Optional[FaultProfile]] = {
    "none": None,
    #: Occasional transient errors and slow responses, no disk loss.
    "light": FaultProfile(
        name="light",
        transient_error_rate=0.001,
        slow_op_rate=0.002,
        slow_factor=3.0,
    ),
    #: Error-prone media: what a failing-but-not-failed drive looks like.
    "flaky": FaultProfile(
        name="flaky",
        transient_error_rate=0.01,
        slow_op_rate=0.01,
        slow_factor=5.0,
    ),
    #: Transients plus whole-disk failures with fast (simulated) repair.
    "heavy": FaultProfile(
        name="heavy",
        transient_error_rate=0.005,
        slow_op_rate=0.005,
        slow_factor=5.0,
        mtbf_ms=30_000.0,
        repair_ms=2_000.0,
    ),
}


def get_profile(name: str) -> Optional[FaultProfile]:
    """Resolve a ``--faults`` profile name (raises on unknown names)."""
    if name not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise ConfigError(f"unknown fault profile {name!r} (known: {known})")
    return PROFILES[name]


_active: Optional[FaultProfile] = None


def install_fault_profile(profile: Optional[FaultProfile]) -> None:
    """Make ``profile`` the process-wide default fault profile.

    Newly constructed :class:`~repro.host.system.System` objects whose
    config does not set ``faults`` pick it up automatically; ``None``
    restores the no-faults default.
    """
    global _active
    _active = profile


def uninstall_fault_profile() -> None:
    """Clear the process-wide fault profile."""
    install_fault_profile(None)


def active_fault_profile() -> Optional[FaultProfile]:
    """The process-wide fault profile (``None`` unless installed)."""
    return _active


@contextmanager
def fault_profile(profile: Optional[FaultProfile]):
    """Context manager: install ``profile`` for the block's duration."""
    previous = _active
    install_fault_profile(profile)
    try:
        yield profile
    finally:
        install_fault_profile(previous)
