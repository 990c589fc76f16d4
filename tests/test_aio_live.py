"""Tests for the asyncio-native live runtime (`repro.runtime.aio_live`).

The live runtime must keep the simulated runtime's contract — same
deploy/scale/drain choreography, same loss-free guarantees, and
byte-identical bridge outputs against the simulated twin — while running
every worker as a task on one event loop.
"""

from __future__ import annotations

import time

import pytest

from repro.core.errors import ConfigurationError, EngineError
from repro.network.simulated import SimulatedNetwork
from repro.network.sockets import loopback_available
from repro.evaluation.workloads import live_sharded_scenario, live_twin_scenario
from repro.runtime import aio_live

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)


@pytest.mark.parametrize("workers", [1, 3])
def test_aio_outputs_are_byte_identical_to_the_simulated_twin(workers):
    """The acceptance invariant, on the event-loop substrate.

    Same case, same clients, same shard count: every raw translated byte
    a live client receives over real sockets must equal what its twin
    received on the deterministic simulation — at any shard count.
    """
    live = live_sharded_scenario(2, clients=6, workers=workers)
    result = live.run(timeout=20.0)
    assert result.all_found
    live_bytes = live.raw_responses_by_client

    twin = live_twin_scenario(2, clients=6, workers=workers)
    twin_result = twin.run()
    assert twin_result.all_found
    twin_bytes = {c.name: tuple(c.raw_responses) for c in twin.clients}
    assert live_bytes == twin_bytes


def test_aio_scale_up_and_drain_down_is_loss_free():
    """Growing then shrinking the pool must not abandon sessions."""
    live = live_sharded_scenario(2, clients=10, workers=2)
    runtime = live.runtime
    runtime.scale_to(4)
    assert runtime.worker_count == 4
    runtime.scale_to(2)
    assert runtime.worker_count == 2
    result = live.run(timeout=20.0)
    assert result.all_found
    assert not runtime.evicted_sessions
    assert not runtime.worker_errors


def test_aio_wedge_stalls_only_the_victim_worker():
    """``wedge_worker`` awaits an ``asyncio.sleep`` on the victim's queue.

    A blocking ``time.sleep`` would stall the shared event loop — every
    worker, the router, and the sockets.  The awaited sleep suspends only
    the victim's drain task: other workers keep answering pings while the
    victim's heartbeat goes stale.
    """
    live = live_sharded_scenario(2, clients=4, workers=3)
    runtime = live.runtime
    try:
        victim = runtime._worker_ids[0]
        runtime.wedge_worker(victim, 0.6)
        time.sleep(0.2)
        runtime.ping_workers()
        time.sleep(0.1)
        now = time.monotonic()
        beats = [loop.heartbeat_at for loop in runtime._loops]
        # The victim's drain task is suspended: its ping is still queued.
        assert now - beats[0] > 0.25
        # Everyone else served the ping just fine.
        assert all(now - beat < 0.25 for beat in beats[1:])
    finally:
        time.sleep(0.5)  # let the wedge expire before teardown
        runtime.undeploy()
        live.network.close()


def test_aio_wedge_validates_worker_id():
    live = live_sharded_scenario(2, clients=2, workers=2)
    try:
        with pytest.raises(ConfigurationError):
            live.runtime.wedge_worker(99, 0.1)
        with pytest.raises(ConfigurationError):
            live.runtime.wedge_worker(live.runtime._worker_ids[0], -1.0)
    finally:
        live.runtime.undeploy()
        live.network.close()


def test_aio_runtime_rejects_a_non_asyncio_network():
    """Deploying the live runtime on any other engine is a config error."""
    from repro.evaluation.workloads import _live_bridge

    runtime = aio_live.AsyncLiveShardedRuntime.from_bridge(
        _live_bridge(2, 0.0), workers=1
    )
    with pytest.raises(ConfigurationError):
        runtime.deploy(SimulatedNetwork())


def test_timed_out_control_mutation_raises_and_leaves_routing_unchanged(
    monkeypatch,
):
    """A mutation the wedged loop cannot run must not run off-loop.

    Only reads may fall back to executing on the calling thread: a
    mutation that changed the ring from a control thread could interleave
    with the loop resuming mid-change.  With the loop blocked past the
    marshal timeout, ``begin_drain`` must raise and leave the ring, the
    drain marks and the sticky table exactly as they were.
    """
    monkeypatch.setattr(aio_live, "CONTROL_MARSHAL_TIMEOUT", 0.05)
    live = live_sharded_scenario(2, clients=4, workers=2)
    runtime, network = live.runtime, live.network
    router = runtime.router
    try:
        started = [
            (client, client.start_lookup(network, live.target))
            for client in live.clients
        ]
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not all(
            client.lookup_result(key) is not None for client, key in started
        ):
            time.sleep(0.01)
        keys = [("probe", index) for index in range(64)]
        ring_before = [router.shard_for_key(key) for key in keys]
        sticky_before = router.sticky_sessions
        victim = runtime.worker_ids[0]

        network.loop.call_soon_threadsafe(time.sleep, 0.5)
        with pytest.raises(EngineError):
            router.begin_drain([victim])
        time.sleep(0.6)  # let the blocking callback finish

        assert router.draining_ids == set()
        assert router.active_worker_count == 2
        assert [router.shard_for_key(key) for key in keys] == ring_before
        assert router.sticky_sessions == sticky_before
        # The read still falls back rather than failing blind.
        network.loop.call_soon_threadsafe(time.sleep, 0.3)
        assert router.metrics().routed_datagrams >= 4
        time.sleep(0.4)
    finally:
        runtime.undeploy()
        network.close()


def test_aio_metrics_stay_lean_without_latency():
    """`metrics(include_latency=False)` skips histogram work on the hot path."""
    live = live_sharded_scenario(2, clients=4, workers=2)
    try:
        lean = live.runtime.metrics(include_latency=False)
        assert len(lean.workers) == 2
        assert lean.latency == ()
    finally:
        live.runtime.undeploy()
        live.network.close()
