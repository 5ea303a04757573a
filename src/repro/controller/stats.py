"""Per-controller counters surfaced to experiment reports."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ControllerStats:
    """Event counts accumulated by one :class:`DiskController`."""

    commands: int = 0
    read_commands: int = 0
    write_commands: int = 0
    blocks_requested: int = 0
    #: Read commands fully satisfied without a media operation.
    full_cache_hits: int = 0
    media_reads: int = 0
    media_writes: int = 0
    media_blocks_read: int = 0
    media_blocks_written: int = 0
    #: Blocks read from the media beyond what the host asked for.
    readahead_blocks: int = 0
    hdc_block_hits: int = 0
    hdc_write_absorbed: int = 0
    flush_commands: int = 0
    flush_blocks_written: int = 0
    pins_loaded: int = 0
    #: Times the media was deliberately held idle for the last reader
    #: (anticipatory scheduling; 0 unless enabled).
    anticipation_waits: int = 0
    #: Fault handling (all 0 unless fault injection is attached):
    #: transient media errors observed on completed media reads.
    media_errors: int = 0
    #: Retry attempts issued after an error/timeout (bounded by the
    #: :class:`~repro.faults.profile.RetryPolicy`, capped backoff).
    media_retries: int = 0
    #: Media reads whose service time exceeded the per-command timeout.
    command_timeouts: int = 0
    #: Commands failed upward (retries exhausted or disk offline); a
    #: RAID layer may still have served them degraded.
    failed_commands: int = 0
    #: Media busy time split by phase (ms), synced from the drive by
    #: :meth:`DiskController.sync_drive_times` — the time-in-state
    #: breakdown (seek + rotation + transfer + overhead = busy).
    seek_ms: float = 0.0
    rotation_ms: float = 0.0
    transfer_ms: float = 0.0
    overhead_ms: float = 0.0
    media_busy_ms: float = 0.0

    def merge(self, other: "ControllerStats") -> "ControllerStats":
        """Element-wise sum for array-wide aggregation."""
        merged = ControllerStats()
        for name in vars(merged):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    @property
    def hdc_hit_rate(self) -> float:
        """HDC hits over all block accesses (the paper's hit-rate metric)."""
        if not self.blocks_requested:
            return 0.0
        return self.hdc_block_hits / self.blocks_requested

    @property
    def readahead_ratio(self) -> float:
        """Read-ahead blocks per media-read block (pollution pressure)."""
        if not self.media_blocks_read:
            return 0.0
        return self.readahead_blocks / self.media_blocks_read
