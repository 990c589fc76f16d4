"""Tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

They use a stand-in UDP responder on loopback, never the bridge, so they
check the generator's accounting: seeded inputs, open-loop latency under a
stall, percentile sample counts, and lost or wrong replies as failures.
"""

from __future__ import annotations

import dataclasses
import os
import random
import socket
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from workload import (  # noqa: E402
    ANSWERABLE_TYPE,
    HOST,
    UNANSWERABLE_TYPE,
    WORKLOADS,
    InputStream,
    XidCounter,
    junk_datagram,
    srv_request,
    with_xid,
    xid_of,
)

#: What the stand-in responder answers, with the request's XID spliced in.
REPLY = b"\x02\x02\x00\x00\x20" + bytes(5) + b"\x00\x00" + b"reply-body-" + bytes(8)
#: Seconds after which a ``late-corrupt`` answer is sent.
LATE_S = 0.5


class Responder:
    """A loopback UDP responder with scripted stalls, drops and corruption.

    ``behaviour(n)`` is asked about the n-th request (from 0) and returns
    ``"answer"``, ``"drop"``, ``"corrupt"``, ``"twice"`` (answer, then
    answer again), ``"late-corrupt"`` (a corrupted answer after
    :data:`LATE_S`, without holding up the requests behind it) or a stall
    in seconds.
    """

    def __init__(self, behaviour) -> None:
        self.behaviour = behaviour
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        self.sock.bind((HOST, 0))
        self.sock.settimeout(0.05)
        self.port = self.sock.getsockname()[1]
        self.seen = 0
        self._timers = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                data, addr = self.sock.recvfrom(4096)
            except socket.timeout:
                continue
            action = self.behaviour(self.seen)
            self.seen += 1
            xid = xid_of(data)
            if action == "drop" or xid is None:
                continue
            if isinstance(action, float):
                time.sleep(action)
                action = "answer"
            reply = with_xid(REPLY, xid)
            if action in ("corrupt", "late-corrupt"):
                reply = reply[:-1] + b"!"
            if action == "late-corrupt":
                timer = threading.Timer(LATE_S, self.sock.sendto, (reply, addr))
                self._timers.append(timer)
                timer.start()
                continue
            self.sock.sendto(reply, addr)
            if action == "twice":
                self.sock.sendto(reply, addr)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(5.0)
        assert not self._thread.is_alive()
        for timer in self._timers:
            timer.cancel()
            timer.join(5.0)
        self.sock.close()


def generator_for(responder: Responder, rate: float = 200.0, **changes) -> run.Generator:
    workload = dataclasses.replace(WORKLOADS["slp-mdns"], open_rate=rate, **changes)
    endpoints = {"SLP": responder.port, "mDNS": responder.port}
    return run.Generator(workload, endpoints, REPLY, XidCounter(7))


# -- seeded inputs ---------------------------------------------------------
def test_same_seed_gives_same_request_bytes_and_schedule():
    hostile = WORKLOADS["slp-mdns-hostile"]

    def schedule(seed: int):
        sends = InputStream(hostile, seed, "open", XidCounter(seed)).poisson(300.0, 2.0)
        return [(s.at, s.target, s.data, s.xid, s.answerable) for s in sends]

    assert schedule(11) == schedule(11)
    assert schedule(11) != schedule(12)
    kinds = {(target, answerable) for _, target, _, _, answerable in schedule(11)}
    assert {("SLP", True), ("SLP", False), ("mDNS", True)} <= kinds


def test_xids_are_unique_within_a_run():
    counter = XidCounter(3)
    issued = [counter.next() for _ in range(60000)]
    assert len(set(issued)) == len(issued)
    assert all(0 < xid < 1 << 16 for xid in issued)


def test_requests_are_the_bytes_the_legacy_client_sends():
    from repro.protocols.slp.legacy import SLPUserAgent

    agent = SLPUserAgent(host=HOST, port=1)
    for xid in (1, 0x1234, 0xFFFF):
        for service_type in (ANSWERABLE_TYPE, UNANSWERABLE_TYPE):
            expected = agent.composer.compose(agent._srv_request(xid, service_type))
            assert srv_request(xid, service_type) == expected


def test_junk_takes_the_classify_reject_path():
    from repro.bridges.specs import BRIDGE_BUILDERS
    from repro.core.engine.automata_engine import AutomataEngine
    from repro.network.addressing import Endpoint, Transport

    bridge = BRIDGE_BUILDERS[2](host=HOST, base_port=47000, processing_delay=0.0)
    engine = AutomataEngine(bridge.merged, bridge.mdl_specs, host=HOST, base_port=47000)
    endpoints = {
        "SLP": Endpoint(HOST, 47000, Transport.UDP),
        "mDNS": Endpoint(HOST, 47001, Transport.UDP),
    }
    rng = random.Random(5)
    for _ in range(3000):
        target, data = junk_datagram(rng)
        assert engine.classify(data, endpoints[target]) is None
    assert engine.garbage_rejects > 0 and engine.discriminator_misses > 0
    assert engine.discriminator_hits == 0


# -- statistics ------------------------------------------------------------
def test_percentiles_are_reported_with_their_sample_counts():
    values = [float(v) for v in range(1, 101)]
    random.Random(1).shuffle(values)
    p99 = run.summarize(values, 0.99)
    assert p99 == {"value": 99.0, "samples": 100, "beyond": 1}
    p50 = run.summarize(values, 0.50)
    assert p50["value"] == 50.0 and p50["samples"] == 100 and p50["beyond"] == 50
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


# -- open-loop latency (coordinated omission) ------------------------------
def test_open_loop_latency_includes_a_stall_on_the_requests_queued_behind_it():
    stall = 0.3
    responder = Responder(lambda n: stall if n == 40 else "answer")
    generator = generator_for(responder, rate=200.0)
    try:
        stats = generator.run_open("open", 200.0, 1.0, seed=3)
    finally:
        generator.close()
        responder.close()
    assert stats.lost == 0 and not generator.wrong
    assert stats.completed == stats.attempted
    slow = [latency for latency in stats.latencies if latency > 0.05]
    # Requests due during the stall waited for it: a closed-loop client
    # would have recorded one slow lookup, the open loop records dozens,
    # each timed from when it was due.
    assert len(slow) >= 0.5 * 200.0 * stall * 0.5
    assert max(stats.latencies) >= 0.9 * stall
    assert sorted(stats.latencies)[len(slow) // 2] < max(stats.latencies)


# -- failures ----------------------------------------------------------------
def test_lost_and_wrong_replies_count_as_failures(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.3)

    def behaviour(n: int):
        if n % 10 == 3:
            return "drop"
        if n % 10 == 7:
            return "corrupt"
        return "answer"

    responder = Responder(behaviour)
    generator = generator_for(responder)
    try:
        stats = generator.run_open("open", 200.0, 0.5, seed=4)
    finally:
        generator.close()
        responder.close()
    dropped = sum(1 for n in range(stats.attempted) if n % 10 == 3)
    corrupted = sum(1 for n in range(stats.attempted) if n % 10 == 7)
    assert stats.lost == dropped
    assert stats.wrong == len(generator.wrong) == corrupted
    assert stats.completed == stats.attempted - dropped - corrupted
    result = {"phases": {"open": {"stats": stats}}, "gate_failures": run.check_gates(
        generator, _snapshot(), _snapshot(generator))}
    attempted, failed, failures = run.outcome([result])
    assert attempted == stats.attempted
    assert failed == dropped + corrupted
    assert failures  # the wrong replies fail the run's correctness


def test_duplicated_and_late_wrong_replies_fail_the_gates(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.3)

    def behaviour(n: int):
        if n % 10 == 2:
            return "twice"
        if n == 5:
            return "late-corrupt"
        return "answer"

    responder = Responder(behaviour)
    generator = generator_for(responder)
    try:
        stats = generator.run_open("open", 200.0, 0.5, seed=6)
        # Wait for the late reply, long after its lookup counted as lost.
        generator.sleep_until(time.perf_counter() + LATE_S)
    finally:
        generator.close()
        responder.close()
    doubled = sum(1 for n in range(stats.attempted) if n % 10 == 2)
    assert doubled > 0
    assert stats.lost == 1
    # Each duplicated lookup fails once; the late lookup is already lost.
    assert stats.wrong == doubled
    assert len(generator.wrong) == doubled + 1
    assert sum("second reply" in wrong for wrong in generator.wrong) == doubled
    assert sum("differs" in wrong for wrong in generator.wrong) == 1
    result = {"phases": {"open": {"stats": stats}}, "gate_failures": run.check_gates(
        generator, _snapshot(), _snapshot(generator))}
    attempted, failed, failures = run.outcome([result])
    assert failed == doubled + 1 <= attempted
    assert failures


def test_any_reply_to_an_unanswerable_lookup_is_a_failure(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.3)
    responder = Responder(lambda n: "answer")
    generator = generator_for(responder, unanswerable_share=0.5)
    try:
        stats = generator.run_open("open", 200.0, 0.5, seed=5)
    finally:
        generator.close()
        responder.close()
    assert stats.unanswerable > 0 and stats.lost == 0
    assert stats.wrong == len(generator.wrong) == stats.unanswerable
    assert all("unanswerable" in wrong for wrong in generator.wrong)


def _snapshot(generator: run.Generator = None) -> dict:
    sent = generator.lookups_sent if generator else 0
    junk = generator.junk_sent if generator else 0
    return {
        "routed": sent,
        "unrouted": 0,
        "generator_received": sent + junk,
        "generator_rejected": junk,
        "worker_errors": 0,
        "network_errors": 0,
        "tcp_replies_dropped": 0,
    }


def test_the_ledger_gate_catches_a_lost_datagram():
    class Sent:
        wrong: list = []
        lookups_sent = 10
        junk_sent = 4

    clean = _snapshot(Sent)
    assert run.check_gates(Sent, _snapshot(), clean) == []
    lost = dict(clean, generator_received=13, routed=9)
    assert any("ledger" in f for f in run.check_gates(Sent, _snapshot(), lost))
    unrouted = dict(clean, routed=9, unrouted=1)
    assert any("ledger" in f for f in run.check_gates(Sent, _snapshot(), unrouted))
    errors = dict(clean, worker_errors=1)
    assert run.check_gates(Sent, _snapshot(), errors) == ["worker_errors = 1"]
