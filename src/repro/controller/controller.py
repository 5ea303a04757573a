"""The programmable controller of one disk (paper §2.1, §4 FOR, §5 HDC).

:class:`DiskController` holds the whole per-disk request path:

* admission and the read/write split (:meth:`DiskController.submit`);
* cache and HDC lookup, media fill and write absorption;
* the HDC region (§5): a ``block → dirty`` dict of non-replaceable
  blocks, managed by the host's ``pin_blk`` / ``unpin_blk`` /
  ``flush_hdc`` commands (:meth:`DiskController.pin_blocks`,
  :meth:`~DiskController.unpin_blocks`, :meth:`~DiskController.flush_hdc`);
* read-ahead sizing through the configured policy (blind, none, FOR);
* the :class:`MediaJob` queue ordered by the scheduling discipline,
  with dispatch, anticipatory idling (Iyer & Druschel, the paper's
  ref. [15]) and fault handling — transient-error retries with bounded
  backoff, command timeouts, and whole-disk failure/recovery;
* the bus transfer that completes each command.

The array, RAID rebuild, fault runtime and metrics sampling program
against its public methods and attributes only.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bus.scsi import ScsiBus
from repro.cache.base import ControllerCache
from repro.controller.commands import DiskCommand
from repro.controller.stats import ControllerStats
from repro.disk.drive import DiskDrive
from repro.errors import CacheError, SimulationError
from repro.faults.injector import DISK_FAILED, MEDIA_ERROR, TIMEOUT
from repro.obs.tracer import NULL_TRACER
from repro.readahead.base import ReadAheadPolicy
from repro.scheduling.base import IOScheduler
from repro.sim.engine import Simulator


def contiguous_runs(blocks: Sequence[int]) -> List[Tuple[int, int]]:
    """Group sorted block numbers into (start, length) runs."""
    runs: List[Tuple[int, int]] = []
    start = prev = None
    for b in blocks:
        if start is None:
            start = prev = b
        elif b == prev + 1:
            prev = b
        else:
            runs.append((start, prev - start + 1))
            start = prev = b
    if start is not None:
        runs.append((start, prev - start + 1))
    return runs


class MediaJob:
    """One queued media operation (host read, write run, or flush run)."""

    __slots__ = ("kind", "cmd", "start", "n_blocks", "on_done", "attempts")

    READ = 0
    WRITE_RUN = 1
    INTERNAL_WRITE = 2
    INTERNAL_READ = 3

    def __init__(
        self,
        kind: int,
        cmd: Optional[DiskCommand],
        start: int,
        n_blocks: int,
        on_done: Optional[Callable[[], None]] = None,
    ):
        self.kind = kind
        self.cmd = cmd
        self.start = start
        self.n_blocks = n_blocks
        self.on_done = on_done
        #: Retries already consumed by this job (fault mode only).
        self.attempts = 0


class DiskController:
    """The programmable controller of one disk drive."""

    def __init__(
        self,
        disk_id: int,
        sim: Simulator,
        drive: DiskDrive,
        scheduler: IOScheduler,
        cache: ControllerCache,
        readahead: ReadAheadPolicy,
        bus: ScsiBus,
        block_size: int,
        hdc_blocks: int = 0,
        anticipatory_wait_ms: float = 0.0,
        tracer=NULL_TRACER,
    ):
        self.disk_id = disk_id
        self.sim = sim
        self.drive = drive
        self.scheduler = scheduler
        self.cache = cache
        self.readahead = readahead
        self.bus = bus
        self.block_size = block_size
        if hdc_blocks < 0:
            raise CacheError(f"negative HDC capacity {hdc_blocks}")
        #: Capacity of the HDC region in blocks (0 disables HDC).
        self.hdc_blocks = hdc_blocks
        #: The HDC region: pinned block → dirty flag. A write to a
        #: pinned block updates the cached copy only; the media write
        #: waits for the next ``flush_hdc``.
        self.pinned: Dict[int, bool] = {}
        #: Anticipatory scheduling: after completing a read for stream
        #: ``s``, keep the media idle up to this long when the best
        #: queued candidate belongs to a different stream — ``s``'s next
        #: sequential request usually arrives within the window and
        #: avoids the deceptive-idleness seek away and back. 0 disables.
        self.anticipatory_wait_ms = anticipatory_wait_ms
        self.tracer = tracer
        #: Trace track carrying this controller's request lifecycles.
        self.trace_track = f"ctrl{disk_id}"
        self.stats = ControllerStats()
        scheduler.attach_tracer(tracer, self.trace_track)
        cache.attach_tracer(tracer, self.trace_track)
        self._geometry = drive.geometry
        self._disk_blocks = drive.geometry.n_blocks
        self._last_read_stream = -1
        self._anticipate_deadline = 0.0
        self._wait_event = None
        #: Per-disk :class:`~repro.faults.injector.FaultInjector` and
        #: :class:`~repro.faults.profile.RetryPolicy`; both ``None``
        #: (the default) keeps every fault check a single ``is None``
        #: test on the fast path.
        self.faults = None
        self.retry = None

    # ------------------------------------------------------------------
    # admission and the read/write split
    # ------------------------------------------------------------------

    def submit(self, cmd: DiskCommand) -> None:
        """Accept a host command; completion fires ``cmd.on_complete``."""
        if cmd.disk_id != self.disk_id:
            raise SimulationError(
                f"command for disk {cmd.disk_id} sent to controller {self.disk_id}"
            )
        if cmd.end_block > self._disk_blocks:
            raise SimulationError(
                f"command {cmd!r} extends past the end of disk {self.disk_id}"
            )
        cmd.issued_at = self.sim.now
        self.stats.commands += 1
        self.stats.blocks_requested += cmd.n_blocks
        if self.tracer.enabled:
            cmd.trace_span = self.tracer.begin(
                self.trace_track,
                "write" if cmd.is_write else "read",
                start=cmd.start_block,
                blocks=cmd.n_blocks,
                stream=cmd.stream_id,
            )
        if cmd.is_write:
            self.stats.write_commands += 1
        else:
            self.stats.read_commands += 1
        if self.faults is not None and self.faults.failed:
            self._fail_async(cmd, DISK_FAILED)
            return
        if cmd.is_write:
            plain = self._absorb_write(cmd)
            if len(plain) == cmd.n_blocks:
                # Nothing absorbed: the whole command goes to media as the
                # single contiguous run it already is.
                runs = [(cmd.start_block, cmd.n_blocks)]
            else:
                runs = contiguous_runs(plain)

            def _after_bus() -> None:
                if not runs:
                    self._finish(cmd)
                    return
                self._enqueue_runs(
                    runs, MediaJob.WRITE_RUN, cmd, lambda: self._finish(cmd)
                )

            # Data moves host -> controller first, then to the media.
            self.bus.transfer(cmd.n_blocks * self.block_size, _after_bus)
            return
        misses = self._split_read(cmd)
        if misses:
            self._enqueue_read(cmd, misses)
            return
        # A full cache/HDC hit: no media operation.
        self.stats.full_cache_hits += 1
        cmd.served_from_cache = True
        if self.tracer.enabled:
            self.tracer.instant(
                self.trace_track, "cache.full-hit", blocks=cmd.n_blocks
            )
        self._deliver(cmd)

    # ------------------------------------------------------------------
    # cache and HDC (pinned region)
    # ------------------------------------------------------------------

    def _split_read(self, cmd: DiskCommand) -> List[int]:
        """Classify the command's blocks; returns the missing ones.

        Pinned blocks are HDC hits; the rest go through the main cache's
        ``missing()`` (which updates hit/miss statistics). The cache is
        consulted on arrival only, as in the paper's controller.
        """
        pinned = self.pinned
        if not pinned:
            # Common case (HDC disabled or nothing pinned yet): skip the
            # per-block pinned probe entirely.
            return self.cache.missing(range(cmd.start_block, cmd.end_block))
        plain: List[int] = []
        n_pinned = 0
        for b in range(cmd.start_block, cmd.end_block):
            if b in pinned:
                n_pinned += 1
            else:
                plain.append(b)
        self.stats.hdc_block_hits += n_pinned
        if not plain:
            return []
        return self.cache.missing(plain)

    def _fill_from_media(self, start: int, n_blocks: int, stream: int) -> None:
        """Install a completed media read (requested + read-ahead)."""
        pinned = self.pinned
        if not pinned:
            # The run is installed as-is; a range is a Sequence, so the
            # cache's bulk path consumes it without an intermediate list.
            self.cache.fill(range(start, start + n_blocks), stream_hint=stream)
            return
        fill = [b for b in range(start, start + n_blocks) if b not in pinned]
        self.cache.fill(fill, stream_hint=stream)

    def _absorb_write(self, cmd: DiskCommand) -> Sequence[int]:
        """Absorb pinned-block writes; returns the blocks bound for media.

        A write to a pinned block marks it dirty. Host consumption
        semantics for the cached survivors: freshly written blocks are
        the least likely to be re-read (the host caches them itself), so
        they are recency-marked as consumed (``access`` skips the ones
        the cache does not hold).
        """
        pinned = self.pinned
        plain: Sequence[int]
        if not pinned:
            plain = range(cmd.start_block, cmd.end_block)
        else:
            plain = []
            n_pinned = 0
            for b in range(cmd.start_block, cmd.end_block):
                if b in pinned:
                    pinned[b] = True
                    n_pinned += 1
                else:
                    plain.append(b)
            self.stats.hdc_block_hits += n_pinned
            self.stats.hdc_write_absorbed += n_pinned
        self.cache.access(plain)
        return plain

    # -- HDC host commands (§5) -----------------------------------------

    def pin_blocks(
        self,
        blocks: Iterable[int],
        timed: bool = False,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """``pin_blk`` for a batch.

        With ``timed=True`` the controller issues real media reads to
        load the pinned blocks (the start-of-period cost); otherwise the
        load is instantaneous, modelling pinning done before the
        measured period, as in the paper's evaluation.
        """
        block_list = sorted(set(blocks))
        pinned = self.pinned
        for b in block_list:
            if b in pinned:
                continue
            if len(pinned) >= self.hdc_blocks:
                raise CacheError(
                    f"HDC region full ({self.hdc_blocks} blocks); "
                    f"cannot pin block {b}"
                )
            pinned[b] = False
        if self.tracer.enabled and block_list:
            self.tracer.instant(
                self.trace_track, "hdc.pin", blocks=len(block_list), pinned=len(pinned)
            )
        self.stats.pins_loaded += len(block_list)
        cache = self.cache
        for b in block_list:
            cache.invalidate(b)  # pinned region owns the block now
        runs = contiguous_runs(block_list) if timed else []
        if not runs:
            if on_complete is not None:
                self.sim.schedule(0.0, on_complete)
            return
        self._enqueue_runs(runs, MediaJob.INTERNAL_READ, None, on_complete)

    def unpin_blocks(self, blocks: Iterable[int]) -> None:
        """``unpin_blk`` for a batch; unknown blocks are ignored.

        Unpinning a dirty block is refused: the host must flush first,
        otherwise the only up-to-date copy would become evictable.
        """
        pinned = self.pinned
        for b in blocks:
            dirty = pinned.get(b)
            if dirty is None:
                continue
            if dirty:
                raise CacheError(f"cannot unpin dirty block {b}; flush_hdc first")
            del pinned[b]
            if self.tracer.enabled:
                self.tracer.instant(self.trace_track, "hdc.unpin", block=b)

    def flush_hdc(self, on_complete: Optional[Callable[[], None]] = None) -> int:
        """``flush_hdc``: write all dirty pinned blocks to the media.

        The blocks stay pinned, now clean. Returns the number of blocks
        flushed; ``on_complete`` fires when the last write lands.
        """
        pinned = self.pinned
        dirty = [b for b, d in pinned.items() if d]
        for b in dirty:
            pinned[b] = False
        if self.tracer.enabled:
            self.tracer.instant(
                self.trace_track, "hdc.flush", dirty=len(dirty), pinned=len(pinned)
            )
        dirty.sort()
        self.stats.flush_commands += 1
        self.stats.flush_blocks_written += len(dirty)
        if not dirty:
            if on_complete is not None:
                self.sim.schedule(0.0, on_complete)
            return 0
        runs = contiguous_runs(dirty)
        self._enqueue_runs(runs, MediaJob.INTERNAL_WRITE, None, on_complete)
        return len(dirty)

    # -- internal media operations (rebuild streams) ---------------------

    def internal_read(
        self, start: int, n_blocks: int, on_done: Optional[Callable[[], None]] = None
    ) -> None:
        """Queue a controller-internal media read (RAID rebuild source);
        competes with host traffic through the normal scheduler."""
        self._enqueue_internal(MediaJob.INTERNAL_READ, start, n_blocks, on_done)

    def internal_write(
        self, start: int, n_blocks: int, on_done: Optional[Callable[[], None]] = None
    ) -> None:
        """Queue a controller-internal media write (no host command)."""
        self._enqueue_internal(MediaJob.INTERNAL_WRITE, start, n_blocks, on_done)

    # ------------------------------------------------------------------
    # bus completion
    # ------------------------------------------------------------------

    def _deliver(self, cmd: DiskCommand) -> None:
        """Recency-mark a read's non-pinned blocks, then move its data to
        the host over the bus; the transfer's end finishes the command."""
        pinned = self.pinned
        blocks = range(cmd.start_block, cmd.end_block)
        if not pinned:
            self.cache.access(blocks)
        else:
            self.cache.access([b for b in blocks if b not in pinned])
        self.bus.transfer(cmd.n_blocks * self.block_size, self._finish, cmd)

    def _finish(self, cmd: DiskCommand) -> None:
        """Close the command's lifecycle span and fire its continuation."""
        if cmd.trace_span:
            self.tracer.end(
                self.trace_track,
                "write" if cmd.is_write else "read",
                cmd.trace_span,
                cached=cmd.served_from_cache,
            )
            cmd.trace_span = 0
        cmd.finish(self.sim.now)

    def _fail_async(self, cmd: DiskCommand, error: str) -> None:
        """Fail ``cmd`` without media or bus work (e.g. offline disk).

        Asynchronous completion keeps the continuation discipline: no
        caller observes completion inside its own ``submit()`` frame.
        """
        cmd.error = error
        self.stats.failed_commands += 1
        if self.tracer.enabled:
            self.tracer.instant(self.trace_track, "fault.reject", error=error)
        self.sim.schedule(0.0, self._finish, cmd)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def attach_faults(self, injector, retry, slow_factor: float = 1.0) -> None:
        """Enable fault handling: consult ``injector``, retry per ``retry``.

        Also forwards the injector (and the profile's slow-response
        stretch factor) to the drive.
        """
        self.faults = injector
        self.retry = retry
        self.drive.attach_faults(injector, slow_factor)

    @property
    def offline(self) -> bool:
        """Whether this disk is inside a whole-disk failure window."""
        return self.faults is not None and self.faults.failed

    def fault_transition(self, event: str, disk: int) -> None:
        """Fault-runtime listener: react to this disk failing/recovering.

        On failure every queued job is failed upward (an in-flight media
        operation is allowed to finish — its completion handler sees
        ``offline`` and fails rather than retrying); on recovery the
        service loop restarts for anything queued meanwhile.
        """
        if disk != self.disk_id:
            return
        if event == "fail":
            self._cancel_wait()
            self._last_read_stream = -1
            if self.tracer.enabled:
                self.tracer.instant(self.trace_track, "fault.disk-failed")
            while self.scheduler:
                req = self.scheduler.pop(self.drive.head_cylinder)
                if req is None:  # pragma: no cover - defensive
                    break
                self._abort_job(req.payload, DISK_FAILED)
        elif event == "recover":
            if self.tracer.enabled:
                self.tracer.instant(self.trace_track, "fault.disk-recovered")
            self._kick()

    def _abort_job(self, job: MediaJob, error: str) -> None:
        """Fail a queued/retried job upward without touching the media."""
        cmd = job.cmd
        if job.kind == MediaJob.READ:
            assert cmd is not None
            cmd.error = error
            self.stats.failed_commands += 1
            self._finish(cmd)  # no data: completes without the bus
            return
        if cmd is not None and cmd.error is None:  # first failed write run
            cmd.error = error
            self.stats.failed_commands += 1
        if job.on_done is not None:
            job.on_done()

    def _retry_media(self, job: MediaJob, error: str) -> bool:
        """Schedule a bounded-backoff retry of ``job``; False if exhausted."""
        retry = self.retry
        if retry is None or job.attempts >= retry.max_retries or self.offline:
            return False
        job.attempts += 1
        self.stats.media_retries += 1
        backoff = retry.backoff_ms(job.attempts)
        if self.tracer.enabled:
            self.tracer.instant(
                self.trace_track,
                "fault.retry",
                error=error,
                attempt=job.attempts,
                backoff_ms=backoff,
            )
        self.sim.schedule(backoff, self._requeue_job, job)
        return True

    def _requeue_job(self, job: MediaJob) -> None:
        """Backoff expiry: put the job back in line (unless now offline)."""
        if self.offline:
            self._abort_job(job, DISK_FAILED)
            return
        self.scheduler.push(
            self._geometry.cylinder_of(job.start), job, self.sim.now
        )
        self._kick()

    def _media_error(
        self, job: MediaJob, duration: float, error: Optional[str]
    ) -> Optional[str]:
        """Classify a media completion; returns the effective error.

        Counts transient errors, converts an over-deadline completion
        into a timeout when the retry policy sets one, and returns
        ``None`` for a clean completion.
        """
        retry = self.retry
        if (
            error is None
            and retry is not None
            and retry.command_timeout_ms > 0
            and duration > retry.command_timeout_ms
        ):
            error = TIMEOUT
            self.stats.command_timeouts += 1
        elif error == MEDIA_ERROR:
            self.stats.media_errors += 1
        return error

    # ------------------------------------------------------------------
    # the media job queue
    # ------------------------------------------------------------------

    def _enqueue_read(self, cmd: DiskCommand, misses: List[int]) -> None:
        """Queue a host read whose ``misses`` must come off the media."""
        cylinder = self._geometry.cylinder_of(misses[0])
        span_len = misses[-1] + 1 - misses[0]
        job = MediaJob(MediaJob.READ, cmd, misses[0], span_len)
        # Anticipatory fast path: this is exactly the request the media
        # has been held idle for — dispatch it ahead of the queue.
        if (
            self._wait_event is not None
            and cmd.stream_id == self._last_read_stream
            and not self.drive.busy
        ):
            self._cancel_wait()
            self._dispatch_read(job)
            return
        self.scheduler.push(cylinder, job, self.sim.now)
        self._kick()

    def _enqueue_runs(
        self,
        runs: Sequence[Tuple[int, int]],
        kind: int,
        cmd: Optional[DiskCommand],
        on_all_done: Optional[Callable[[], None]],
    ) -> None:
        """Queue a batch of media runs with a fan-in completion.

        ``on_all_done`` fires synchronously when the last run's media
        operation lands (or is aborted). ``runs`` must be non-empty.
        """
        remaining = len(runs)

        def _run_done() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0 and on_all_done is not None:
                on_all_done()

        for start, length in runs:
            job = MediaJob(kind, cmd, start, length, on_done=_run_done)
            self.scheduler.push(
                self._geometry.cylinder_of(start), job, self.sim.now
            )
        self._kick()

    def _enqueue_internal(
        self,
        kind: int,
        start: int,
        n_blocks: int,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Queue one controller-internal media run (rebuild streams)."""
        job = MediaJob(kind, None, start, n_blocks, on_done)
        self.scheduler.push(self._geometry.cylinder_of(start), job, self.sim.now)
        self._kick()

    def _kick(self) -> None:
        """Dispatch queued jobs while the media has a free channel.

        On a single-channel mechanical drive the first dispatch marks
        the media busy and ends the loop — the historical serial
        service loop. Multi-channel devices (flash) keep dispatching
        until every channel is occupied or the queue drains.
        """
        while not self.drive.busy and self.scheduler:
            if self._should_anticipate():
                return
            req = self.scheduler.pop(self.drive.head_cylinder)
            if req is None:  # pragma: no cover - defensive
                break
            if self.tracer.enabled:
                self.tracer.instant(
                    self.trace_track,
                    "queue.dispatch",
                    wait_ms=self.sim.now - req.enqueued_at,
                    depth=len(self.scheduler),
                )
            job: MediaJob = req.payload
            if job.kind == MediaJob.READ:
                self._dispatch_read(job)
            else:
                self._dispatch_rest(job)

    def _should_anticipate(self) -> bool:
        """Whether to hold the media idle waiting for the last reader.

        True while the anticipation window is open and the scheduler's
        best candidate belongs to a different stream; arranges a wake-up
        at the window's end. A candidate from the anticipated stream
        closes the window and dispatches immediately.
        """
        if self.anticipatory_wait_ms <= 0 or self._last_read_stream < 0:
            return False
        now = self.sim.now
        if now >= self._anticipate_deadline:
            self._cancel_wait()
            self._last_read_stream = -1
            return False
        candidate = self.scheduler.peek(self.drive.head_cylinder)
        job: Optional[MediaJob] = candidate.payload if candidate else None
        if (
            job is not None
            and job.kind == MediaJob.READ
            and job.cmd is not None
            and job.cmd.stream_id == self._last_read_stream
        ):
            self._cancel_wait()
            return False  # the awaited request arrived: dispatch it
        if self._wait_event is None:
            self.stats.anticipation_waits += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    self.trace_track,
                    "anticipate.wait",
                    stream=self._last_read_stream,
                    window_ms=self._anticipate_deadline - now,
                )
            self._wait_event = self.sim.schedule(
                self._anticipate_deadline - now, self._end_anticipation
            )
        return True

    def _end_anticipation(self) -> None:
        self._wait_event = None
        self._last_read_stream = -1
        self._kick()

    def _cancel_wait(self) -> None:
        # _end_anticipation clears _wait_event before doing anything
        # else, but Simulator.cancel also tolerates fired handles, so a
        # stale reference here cannot corrupt the event queue's count.
        if self._wait_event is not None:
            self.sim.cancel(self._wait_event)
            self._wait_event = None

    def _dispatch_read(self, job: MediaJob) -> None:
        """Start the media read for ``job``, extended by read-ahead.

        The media read covers the missing span recorded at enqueue time
        (the cache was consulted at arrival only) plus whatever the
        read-ahead policy adds.
        """
        cmd = job.cmd
        assert cmd is not None
        span_start = job.start
        span_len = job.n_blocks
        read_size = self.readahead.read_size(span_start, span_len, self._disk_blocks)
        self.stats.readahead_blocks += read_size - span_len
        if self.tracer.enabled and read_size > span_len:
            self.tracer.instant(
                self.trace_track,
                "readahead.extend",
                requested=span_len,
                extra=read_size - span_len,
            )
        self.stats.media_reads += 1
        self.stats.media_blocks_read += read_size

        def _done(error: Optional[str] = None) -> None:
            error = self._media_error(job, duration, error)
            if error is not None:
                if not self._retry_media(job, error):
                    self._abort_job(job, DISK_FAILED if self.offline else error)
                self._kick()  # media is free during the backoff
                return
            self._fill_from_media(span_start, read_size, cmd.stream_id)
            if self.anticipatory_wait_ms > 0 and cmd.stream_id >= 0:
                self._last_read_stream = cmd.stream_id
                self._anticipate_deadline = (
                    self.sim.now + self.anticipatory_wait_ms
                )
            self._deliver(cmd)
            self._kick()

        duration = self.drive.execute(span_start, read_size, False, _done)

    def _dispatch_rest(self, job: MediaJob) -> None:
        """Start a media write run or an internal (flush/pin) operation."""
        is_write = job.kind in (MediaJob.WRITE_RUN, MediaJob.INTERNAL_WRITE)
        if is_write:
            self.stats.media_writes += 1
            self.stats.media_blocks_written += job.n_blocks
        else:
            self.stats.media_reads += 1
            self.stats.media_blocks_read += job.n_blocks

        def _done(error: Optional[str] = None) -> None:
            error = self._media_error(job, duration, error)
            if error is not None:
                if not self._retry_media(job, error):
                    self._abort_job(job, DISK_FAILED if self.offline else error)
                self._kick()
                return
            if job.on_done is not None:
                job.on_done()
            self._kick()

        duration = self.drive.execute(job.start, job.n_blocks, is_write, _done)

    @property
    def queue_length(self) -> int:
        """Media operations waiting behind the current one."""
        return len(self.scheduler)

    def sync_drive_times(self) -> None:
        """Copy the drive's per-phase busy-time totals into ``stats``;
        idempotent (assignment, not accumulation)."""
        drive = self.drive
        stats = self.stats
        stats.seek_ms = drive.seek_time_total
        stats.rotation_ms = drive.rotation_time_total
        stats.transfer_ms = drive.transfer_time_total
        stats.overhead_ms = drive.overhead_time_total
        stats.media_busy_ms = drive.busy_time
