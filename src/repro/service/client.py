"""A bundled fio-style load client for the block service.

``python -m repro.service.client --port P --tenants alice,bob`` opens
one connection per tenant and drives a closed-loop window of mixed
random reads/writes against the service, then reports per-tenant
throughput, BUSY-shed counts and the *server-measured* (simulated)
latency percentiles. ``--json`` emits the same numbers as one JSON
document for scripted assertions (the CI smoke test parses it).

The op mix and offsets are derived from ``--seed`` before any request
is sent, so two runs against equally-configured servers issue the
identical workload — scheduling nondeterminism lives only in arrival
interleaving, which is precisely what the service's admission control
is there to absorb.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import nearest_rank
from repro.service.protocol import (
    ProtocolError,
    Request,
    Response,
    STATUS_BUSY,
    STATUS_OK,
    encode_frame,
    read_frame,
)


class ServiceClient:
    """One connection: send requests, await id-matched responses."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self._waiting: Dict[int, "asyncio.Future[Response]"] = {}
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self._next_id = 0

    async def connect(self, retries: int = 1, delay_s: float = 0.2) -> None:
        """Open the connection; retries cover a server still starting."""
        last: Optional[Exception] = None
        for _ in range(max(1, retries)):
            try:
                self.reader, self.writer = await asyncio.open_connection(
                    self.host, self.port
                )
                self._reader_task = asyncio.ensure_future(self._read_loop())
                return
            except (ConnectionError, OSError) as exc:
                last = exc
                await asyncio.sleep(delay_s)
        raise ReproError(
            f"cannot connect to service at {self.host}:{self.port}: {last}"
        )

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def _read_loop(self) -> None:
        assert self.reader is not None
        try:
            while True:
                payload = await read_frame(self.reader)
                if payload is None:
                    break
                response = Response.from_payload(payload)
                future = self._waiting.pop(response.req_id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ProtocolError, ConnectionError, OSError) as exc:
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(
                        ReproError(f"connection lost: {exc}")
                    )
            self._waiting.clear()

    async def request(self, request: Request) -> Response:
        """Send one request and await its reply."""
        assert self.writer is not None
        future: "asyncio.Future[Response]" = (
            asyncio.get_running_loop().create_future()
        )
        self._waiting[request.req_id] = future
        self.writer.write(encode_frame(request.to_payload()))
        await self.writer.drain()
        return await future

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- convenience ops ----------------------------------------------

    async def stats(self, tenant: str = "default") -> Dict[str, Any]:
        """Fetch the server's STATS document."""
        response = await self.request(
            Request("STATS", tenant, self.next_id())
        )
        if not response.ok:
            raise ReproError(f"STATS failed: {response.error}")
        return response.data

    async def pin(self, tenant: str, start: int, blocks: int) -> Response:
        return await self.request(
            Request("PIN", tenant, self.next_id(), start, blocks)
        )


async def run_tenant(
    host: str,
    port: int,
    tenant: str,
    requests: int,
    blocks: int,
    write_frac: float,
    window: int,
    seed: int,
    pin_blocks: int = 0,
    retries: int = 25,
) -> Dict[str, Any]:
    """Drive one tenant's closed-loop burst; returns its result dict."""
    client = ServiceClient(host, port)
    await client.connect(retries=retries)
    try:
        capacity = int((await client.stats(tenant))["capacity_blocks"])
        span = max(1, capacity - blocks)
        rng = random.Random(seed)
        # Deterministic workload, decided before the first send.
        plan: List[Tuple[str, int]] = [
            (
                "WRITE" if rng.random() < write_frac else "READ",
                rng.randrange(span),
            )
            for _ in range(requests)
        ]
        pinned = 0
        if pin_blocks > 0:
            response = await client.pin(
                tenant, 0, min(pin_blocks, capacity)
            )
            if response.ok:
                pinned = int(response.data.get("pinned", 0))
        latencies: List[float] = []
        queue_waits: List[float] = []
        busy = 0
        errors = 0
        window_sem = asyncio.Semaphore(max(1, window))

        async def issue(op: str, start: int) -> None:
            nonlocal busy, errors
            async with window_sem:
                response = await client.request(
                    Request(op, tenant, client.next_id(), start, blocks)
                )
                if response.status == STATUS_OK:
                    latencies.append(response.latency_ms)
                    queue_waits.append(response.queue_ms)
                elif response.status == STATUS_BUSY:
                    busy += 1
                else:
                    errors += 1

        wall0 = time.monotonic()
        await asyncio.gather(*(issue(op, start) for op, start in plan))
        wall_s = time.monotonic() - wall0
        ordered = sorted(latencies)
        return {
            "tenant": tenant,
            "requests": requests,
            "ok": len(latencies),
            "busy": busy,
            "errors": errors,
            "pinned": pinned,
            "wall_s": wall_s,
            "mean_ms": sum(ordered) / len(ordered) if ordered else 0.0,
            "p50_ms": nearest_rank(ordered, 50.0),
            "p95_ms": nearest_rank(ordered, 95.0),
            "p99_ms": nearest_rank(ordered, 99.0),
            "max_queue_ms": max(queue_waits) if queue_waits else 0.0,
        }
    finally:
        await client.close()


async def run_load(
    host: str,
    port: int,
    tenants: List[str],
    requests: int,
    blocks: int,
    write_frac: float,
    window: int,
    seed: int,
    pin_blocks: int = 0,
    retries: int = 25,
) -> Dict[str, Any]:
    """All tenants concurrently, plus a final server STATS snapshot."""
    results = await asyncio.gather(
        *(
            run_tenant(
                host,
                port,
                tenant,
                requests,
                blocks,
                write_frac,
                window,
                seed + i,
                pin_blocks=pin_blocks,
                retries=retries,
            )
            for i, tenant in enumerate(tenants)
        )
    )
    stats_client = ServiceClient(host, port)
    await stats_client.connect(retries=retries)
    try:
        server = await stats_client.stats(tenants[0])
    finally:
        await stats_client.close()
    return {
        "tenants": {r["tenant"]: r for r in results},
        "total_ok": sum(r["ok"] for r in results),
        "total_busy": sum(r["busy"] for r in results),
        "total_errors": sum(r["errors"] for r in results),
        "server": server,
    }


def _parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="fio-style load client for the simulated block service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--tenants", default="default",
        help="comma-separated tenant names (one connection each)",
    )
    parser.add_argument("--requests", type=int, default=100,
                        help="requests per tenant")
    parser.add_argument("--blocks", type=int, default=8,
                        help="blocks per request")
    parser.add_argument("--write-frac", type=float, default=0.25)
    parser.add_argument(
        "--window", type=int, default=16,
        help="closed-loop outstanding-request window per tenant "
        "(exceed the server's max-inflight + max-queue to see BUSY)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--pin", type=int, default=0,
        help="pin this many leading blocks before the burst",
    )
    parser.add_argument(
        "--connect-retries", type=int, default=25,
        help="connection attempts (0.2 s apart) while the server starts",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of a table")
    return parser.parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    """Console entry point (``python -m repro.service.client``)."""
    args = _parse_args(argv)
    tenants = [t.strip() for t in args.tenants.split(",") if t.strip()]
    if not tenants:
        print("no tenants given", file=sys.stderr)
        return 2
    try:
        result = asyncio.run(
            run_load(
                args.host,
                args.port,
                tenants,
                args.requests,
                args.blocks,
                args.write_frac,
                args.window,
                args.seed,
                pin_blocks=args.pin,
                retries=args.connect_retries,
            )
        )
    except ReproError as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        for name, r in result["tenants"].items():
            print(
                f"{name}: ok={r['ok']} busy={r['busy']} errors={r['errors']} "
                f"p50={r['p50_ms']:.2f}ms p95={r['p95_ms']:.2f}ms "
                f"p99={r['p99_ms']:.2f}ms (sim) wall={r['wall_s']:.2f}s"
            )
        print(
            f"total: ok={result['total_ok']} busy={result['total_busy']} "
            f"errors={result['total_errors']}"
        )
    return 0 if result["total_errors"] == 0 and result["total_ok"] > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
