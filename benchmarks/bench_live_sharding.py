"""Live sharded runtime: real wall-clock throughput over loopback sockets.

`bench_sharded_runtime.py` proves the sharding design scales on the
simulation's virtual clock.  This benchmark deploys the *same objects* —
router, workers, read-only model — as a live runtime
(:class:`~repro.runtime.aio_live.AsyncLiveShardedRuntime` on an
:class:`~repro.network.aio.AsyncSocketNetwork`, every worker a task on
one event loop) on real loopback sockets, in two sweeps:

* the small sweep: 1 / 2 / 4 shards under ``CLIENTS`` OS-socket clients;
* the 1k sweep: 1 / 2 / 4 / 8 shards under ``AIO_CLIENTS`` (default
  1000) concurrent clients — the C10K-direction load one event loop
  carries.

Every translated send charges ``LIVE_PROCESSING_DELAY`` (5 ms) of
*modelled* compute, so the speedups count how many of those timers the
workers run in parallel, not CPU.  Both sweeps assert:

* every client is served at every shard count, nothing unrouted;
* the raw bytes each client receives are **identical to the simulated
  twin** of the same topology (same loopback host/ports, same pinned
  transaction identifiers) — going live changes when things happen, never
  what is said;
* small sweep: wall-clock throughput at 4 shards is at least 1.5x the
  single-shard row;
* 1k sweep: throughput keeps scaling past 4 shards (the 8-shard row beats
  the 4-shard row's single-shard speedup) and the 8-shard row's absolute
  throughput strictly exceeds the small sweep's 4-shard row.

Results land in ``BENCH_live_sharding.json`` (CI uploads them alongside
the simulated sweeps).  Skipped automatically where loopback sockets
cannot be bound.
"""

from __future__ import annotations

import os

import pytest

from repro.evaluation.harness import run_live_sharding
from repro.evaluation.tables import format_live_sharding
from repro.network.sockets import loopback_available

#: Concurrent OS-socket clients of the small sweep.
CLIENTS = int(os.environ.get("REPRO_BENCH_LIVE_CLIENTS", "24"))

#: Concurrent clients of the 1k sweep — a single event loop carries all of
#: them, so the default is the 1k-concurrency acceptance load.
AIO_CLIENTS = int(os.environ.get("REPRO_BENCH_AIO_CLIENTS", "1000"))

#: Shard counts of the small sweep.
WORKER_COUNTS = (1, 2, 4)

#: Shard counts of the 1k sweep — the runtime must keep scaling past 4.
AIO_WORKER_COUNTS = (1, 2, 4, 8)

#: The swept case: SLP clients, Bonjour service — UDP end to end, so the
#: measurement is the runtime's own parallelism, not TCP handshake cost.
CASE = 2

#: Wall-clock budget per 1k-sweep row: the single-shard row serialises
#: ``AIO_CLIENTS`` translations at 5 ms each (~5 s at the default load).
AIO_TIMEOUT = float(os.environ.get("REPRO_BENCH_AIO_TIMEOUT", "60"))


pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)


def test_live_sharding_scaling(capsys, benchmark, bench_results):
    def sweep():
        small_rows = run_live_sharding(
            case=CASE, clients=CLIENTS, worker_counts=WORKER_COUNTS
        )
        big_rows = run_live_sharding(
            case=CASE,
            clients=AIO_CLIENTS,
            worker_counts=AIO_WORKER_COUNTS,
            timeout=AIO_TIMEOUT,
        )
        return small_rows, big_rows

    small_rows, big_rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = small_rows + big_rows
    with capsys.disabled():
        print()
        print(format_live_sharding(rows))
    bench_results(
        "live_sharding",
        [row.as_row() for row in rows],
        case=CASE,
        clients=CLIENTS,
        aio_clients=AIO_CLIENTS,
        worker_counts=list(WORKER_COUNTS),
        aio_worker_counts=list(AIO_WORKER_COUNTS),
    )

    by_workers = {row.workers: row for row in small_rows}
    big_by_workers = {row.workers: row for row in big_rows}

    # Completeness at every shard count in both sweeps: all clients
    # served, nothing dropped, and the translated bytes equal the
    # simulated twin's.
    for row in small_rows:
        assert row.completed == CLIENTS
        assert row.unrouted == 0
        assert sum(row.worker_sessions) == CLIENTS
        assert row.outputs_match_simulated
    for row in big_rows:
        assert row.completed == AIO_CLIENTS
        assert row.unrouted == 0
        assert sum(row.worker_sessions) == AIO_CLIENTS
        assert row.outputs_match_simulated

    # The small-sweep criterion: >= 1.5x wall-clock throughput at 4
    # shards.  Wall-clock rows carry scheduler jitter, so no
    # monotonicity assertion beyond the headline ratio.
    assert by_workers[4].throughput >= 1.5 * by_workers[1].throughput

    # The 1k-sweep criteria: the runtime sustains the 1k load, keeps
    # scaling past 4 shards, and its 8-shard row beats the small sweep's
    # best (4-shard) row in absolute sessions/s.
    assert big_by_workers[8].speedup > big_by_workers[4].speedup
    assert big_by_workers[8].throughput > by_workers[4].throughput
