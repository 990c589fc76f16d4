"""Bounded session history: windows stay small, counters stay exact.

A bridge's memory must not grow with the sessions it has served.  The
engine, the sharded runtime (drain-retired workers included) and the
legacy services keep only a window of recent records
(:mod:`repro.core.history`), and every count comes from a counter.  The
scenario tests shrink the window so a few dozen sessions overflow it.
"""

from __future__ import annotations

import pytest

from case2_utils import attach_clients, deploy_case2
from repro.core import history
from repro.core.history import HISTORY_WINDOW, append_bounded, extend_bounded
from repro.evaluation.harness import measure_connector_case
from repro.evaluation.workloads import concurrent_scenario
from repro.network.addressing import Endpoint, Transport
from repro.network.latency import LatencyModel
from repro.protocols.mdns import BonjourResponder

SMALL_WINDOW = 4


@pytest.fixture
def small_window(monkeypatch):
    monkeypatch.setattr(history, "HISTORY_WINDOW", SMALL_WINDOW)
    return SMALL_WINDOW


def _bounded(records, window):
    return len(records) < 2 * window


class TestHistoryHelpers:
    def test_append_keeps_the_most_recent_window(self):
        records = []
        for item in range(3 * HISTORY_WINDOW + 5):
            append_bounded(records, item)
            assert len(records) < 2 * HISTORY_WINDOW
        assert len(records) >= HISTORY_WINDOW
        assert records[-1] == 3 * HISTORY_WINDOW + 4
        assert records == list(range(records[0], 3 * HISTORY_WINDOW + 5))

    def test_extend_trims_the_same_way(self):
        records = list(range(HISTORY_WINDOW))
        extend_bounded(records, range(HISTORY_WINDOW, 2 * HISTORY_WINDOW))
        assert records == list(range(HISTORY_WINDOW, 2 * HISTORY_WINDOW))


class TestSimulatedBridge:
    def test_windows_stay_bounded_and_counters_exact(self, small_window, fast_latencies):
        scenario = concurrent_scenario(2, clients=30, latencies=fast_latencies)
        result = scenario.run()
        assert result.completed == 30
        engine = scenario.bridge.engine
        assert engine.completed_count == 30
        assert scenario.bridge.completed_count == 30
        assert _bounded(engine.sessions, small_window)
        assert len(engine.sessions) >= small_window
        # The window holds the latest completions, in completion order.
        finished = [record.finished_at for record in engine.sessions]
        assert finished == sorted(finished)

    def test_fig12_harness_refuses_more_repetitions_than_the_window(self):
        with pytest.raises(ValueError, match="record window"):
            measure_connector_case(2, repetitions=HISTORY_WINDOW + 1)


class TestShardedRuntime:
    def test_windows_bounded_and_counts_exact_through_a_drain(
        self, small_window, network
    ):
        runtime = deploy_case2(network, workers=2, serialize=False, session_timeout=0.5)
        responder = BonjourResponder(latency=LatencyModel(0.01, 0.01))
        network.attach(responder)

        def lookups(count, xid_base):
            clients = attach_clients(network, count, xid_base=xid_base)
            for client in clients:
                client.start_lookup(network)
            network.run()
            for client in clients:
                network.detach(client)

        # Batch 1 on both workers, then drain-retire worker 1.
        lookups(30, xid_base=1000)
        victim = runtime.workers[1]
        assert victim.completed_count > small_window
        retired = victim.completed_count
        runtime.remove_worker(1)
        network.run()
        assert runtime.worker_ids == [0]

        # Batch 2 on the survivor, then a batch nobody answers.
        lookups(30, xid_base=5000)
        network.detach(responder)
        lookups(12, xid_base=9000)

        assert runtime.completed_count == 60
        assert runtime.evicted_count == 12
        assert sum(runtime.worker_session_counts()) + retired == 60
        metrics = runtime.metrics(include_latency=False)
        for row, worker in zip(metrics.workers, runtime.workers):
            assert row.completed_sessions == worker.completed_count
            assert row.evicted_sessions == worker.evicted_count
        assert metrics.workers[0].completed_sessions == 60 - retired
        assert metrics.workers[0].evicted_sessions == 12

        for engine in [victim] + runtime.workers:
            assert _bounded(engine.sessions, small_window)
            assert _bounded(engine.evicted_sessions, small_window)
        pools = runtime.worker_count + 1  # live workers plus the retired pool
        assert len(runtime.sessions) < pools * 2 * small_window
        assert len(runtime.evicted_sessions) < pools * 2 * small_window
        assert _bounded(responder.handled, small_window)


class TestParseFailures:
    def test_reject_log_stays_bounded_and_reject_count_exact(
        self, small_window, network
    ):
        """Junk aimed at a worker fills its ``parse_failures`` window, not
        memory: the log keeps the window (the drain-retired aggregate
        too) while ``garbage_rejects`` counts every reject."""
        runtime = deploy_case2(network, workers=2, serialize=False)
        junk_source = Endpoint("junk.local", 9999, Transport.UDP)
        rejects = 10 * small_window
        for victim in runtime.workers:
            target = victim.unicast_endpoints()[0]
            for _ in range(rejects):
                network.send(b"\xff" * 4, source=junk_source, destination=target)
        network.run()

        for worker in runtime.workers:
            assert worker.garbage_rejects == rejects
            assert _bounded(worker.parse_failures, small_window)
            assert len(worker.parse_failures) >= small_window
        runtime.remove_worker(1)
        network.run()
        assert runtime.worker_ids == [0]
        assert runtime.garbage_rejects == 2 * rejects
        assert _bounded(runtime._retired_parse_failures, small_window)
        assert len(runtime.parse_failures) < 2 * 2 * small_window
