#!/usr/bin/env python3
"""The bridge benchmark: open-loop load on a live Starlink bridge.

Run from the root of a checkout::

    python3 perfbench/run.py --workload slp-mdns --seed 1 --seconds 30 --trace 0

This process is the load generator.  It starts the bridge in a separate
process (``bridge.py``), drives it over loopback UDP from at most ``nproc``
sockets on one thread, checks every reply against the simulated twin, and
prints a table followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the open
phase twice, on two fresh bridges (untraced, then traced with spans around
each layer's public entry points), and reports the per-layer metrics.  The command exits
with 1 if any correctness gate fails, and with 2 if it cannot run at all.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import selectors
import socket
import signal
import statistics
import struct
import subprocess
import sys
import time
from collections import deque
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYERS  # noqa: E402
from workload import (  # noqa: E402
    ANSWERABLE_TYPE,
    CLOSED_K,
    DEADLINE_S,
    HOST,
    UNANSWERABLE_TYPE,
    WORKLOADS,
    InputStream,
    Send,
    Workload,
    XidCounter,
    srv_request,
    with_xid,
    xid_of,
)

#: Seconds to wait for a bridge to report ready or answer a command.
BRIDGE_TIMEOUT = 60.0
#: Share of ``--seconds`` given to each kind of phase in an untraced run,
#: and the number of open/closed cycles the measured part alternates in.
WARMUP_SHARE, OPEN_SHARE, CLOSED_SHARE = 0.05, 0.6, 0.35
CYCLES = 6
#: Throwaway bridges set up per cycle; ``setup_s`` is the median over them
#: and the loaded bridge.  One set-up takes under half a second, and the
#: host's noise moves single set-ups by up to half their time.
SETUPS_PER_CYCLE = 2
#: The service URL both co-hosted services advertise.
SERVICE_URL = f"http://{HOST}:9000/service".encode("ascii")
OUT_DIR = os.path.join(HERE, "out")
#: Linux socket option for nanosecond kernel receive timestamps.
SO_TIMESTAMPNS = 35
_TIMESTAMP_SPACE = socket.CMSG_SPACE(16)


def cpu_ticks() -> Tuple[int, int]:
    """(steal, total) ticks of all CPUs so far, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(value) for value in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def realtime_offset() -> float:
    """``time.time() - perf_counter()``, read with the least skew of five."""
    best = (float("inf"), 0.0)
    for _ in range(5):
        before = perf_counter()
        realtime = time.time()
        after = perf_counter()
        best = min(best, (after - before, realtime - (before + after) / 2))
    return best[1]


class GateFailure(Exception):
    """A correctness gate failed; the run's numbers are not valid."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(values: Sequence[float], q: float) -> Dict[str, float]:
    """A percentile with its sample count and the samples beyond it."""
    value = percentile(values, q)
    return {
        "value": value,
        "samples": len(values),
        "beyond": sum(1 for v in values if v > value),
    }


def calibration_ms() -> float:
    """Best of five timings of a fixed pure-Python loop, for normalising
    numbers across machines."""
    best = float("inf")
    for _ in range(5):
        started = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, perf_counter() - started)
    return best * 1e3


# ----------------------------------------------------------------------
# the simulated twin: the expected reply to each request shape
# ----------------------------------------------------------------------
def twin_reply_template(workload: Workload, port_base: int) -> bytes:
    """The twin's reply template for an answerable lookup.

    Deploys the same bridge, workers and service on the deterministic
    simulation and sends it the generator's own request bytes.  Checks
    that the reply differs between two XIDs only in the echoed XID, that
    it carries the service URL, and that the unanswerable service type
    gets no reply at all.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bridge import build_service
    from repro.bridges.specs import BRIDGE_BUILDERS
    from repro.network.addressing import Endpoint, Transport
    from repro.network.engine import NetworkNode
    from repro.network.latency import CalibratedLatencies, LatencyModel
    from repro.network.simulated import SimulatedNetwork
    from repro.runtime import ShardedRuntime

    zero = LatencyModel(0.0, 0.0)
    network = SimulatedNetwork(
        latencies=CalibratedLatencies(
            link=zero,
            slp_service=zero,
            mdns_service=zero,
            ssdp_service=zero,
            http_service=zero,
            slp_client_overhead=zero,
            mdns_client_overhead=zero,
            upnp_client_overhead=zero,
            bridge_processing=zero,
        )
    )
    bridge = BRIDGE_BUILDERS[workload.case](
        host=HOST, base_port=port_base, processing_delay=0.0
    )
    runtime = ShardedRuntime.from_bridge(
        bridge, workers=workload.workers, ephemeral_ports=False, worker_port_stride=16
    )
    runtime.deploy(network)
    network.attach(build_service(workload.case, port_base))

    class Probe(NetworkNode):
        name = "twin-probe"
        endpoint = Endpoint(HOST, port_base + 300, Transport.UDP)

        def __init__(self) -> None:
            self.replies: List[bytes] = []

        def unicast_endpoints(self):
            return [self.endpoint]

        def multicast_groups(self):
            return []

        def on_datagram(self, engine, data, source, destination):
            self.replies.append(bytes(data))

    probe = Probe()
    network.attach(probe)
    public = runtime.public_endpoints["SLP"]
    for xid in (0x1234, 0x4321):
        network.send(srv_request(xid, ANSWERABLE_TYPE), probe.endpoint, public)
        if not network.run_until(lambda: len(probe.replies) >= 1, timeout=5.0):
            raise GateFailure("the simulated twin did not answer")
        reply = probe.replies.pop()
        if xid_of(reply) != xid or SERVICE_URL not in reply:
            raise GateFailure(f"twin reply lacks its XID or the service URL: {reply!r}")
        if xid == 0x1234:
            template = reply
        elif with_xid(template, xid) != reply:
            raise GateFailure("twin replies differ in more than the XID")
    network.send(srv_request(0x5555, UNANSWERABLE_TYPE), probe.endpoint, public)
    network.run_for(1.0)
    if probe.replies:
        raise GateFailure("the twin answered the unanswerable service type")
    return template


# ----------------------------------------------------------------------
# the bridge process
# ----------------------------------------------------------------------
class BridgeProcess:
    """One ``bridge.py`` child, driven over its stdin/stdout."""

    def __init__(self, workload: Workload, trace: bool = False) -> None:
        self.workload = workload
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        self.ready: Dict[str, Any] = {}
        self.port_base = 0

    def start(self, port_base: int) -> bool:
        """Start on ``port_base``; ``False`` if a port was taken."""
        command = [
            sys.executable,
            os.path.join(HERE, "bridge.py"),
            "--workload",
            self.workload.name,
            "--port-base",
            str(port_base),
        ]
        if self.trace:
            command.append("--trace")
        self.port_base = port_base
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        message = self._read()
        if message.get("event") == "bind_error":
            self.proc.wait(BRIDGE_TIMEOUT)
            self.kill()
            return False
        if message.get("event") != "ready":
            raise RuntimeError(f"bridge did not start: {message}")
        self.ready = message
        return True

    def _read(self) -> Dict[str, Any]:
        assert self.proc is not None and self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait(BRIDGE_TIMEOUT)
            raise RuntimeError(f"bridge exited with code {code}")
        return json.loads(line)

    def command(self, **payload: Any) -> Dict[str, Any]:
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self, spans: str = "") -> None:
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.command(cmd="stop", spans=spans)
            self.proc.wait(BRIDGE_TIMEOUT)
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the child has ended and its pipes are closed."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc = None


def start_bridge(workload: Workload, trace: bool = False) -> BridgeProcess:
    """A ready bridge on a free block of loopback ports (below the
    kernel's ephemeral range, which the bridge's own late binds use)."""
    chooser = random.SystemRandom()
    for _ in range(8):
        bridge = BridgeProcess(workload, trace)
        if bridge.start(chooser.randrange(100, 300) * 100):
            return bridge
    raise RuntimeError("no free port block for the bridge")


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
class PhaseStats:
    """What the generator saw in one phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.unanswerable = 0
        self.completed = 0
        self.lost = 0
        #: Lookups failed by a bad reply: one differing from the twin, a
        #: second reply, any reply to an unanswerable lookup, or a reply
        #: with an XID never sent.  A lookup already counted lost is not
        #: counted again.
        self.wrong = 0
        self.latencies: List[float] = []
        #: perf_counter time of each completion.
        self.done_at: List[float] = []
        #: Seconds each lookup was sent after its intended time.
        self.lateness: List[float] = []
        self.window = 0.0
        self.gen_cpu = 0.0


class Generator:
    """Single-threaded UDP load generator with at most ``nproc`` sockets."""

    def __init__(self, workload: Workload, endpoints: Dict[str, int], template: bytes,
                 xids: XidCounter) -> None:
        self.workload = workload
        self.template = template
        self.xids = xids
        self.destinations = {name: (HOST, port) for name, port in endpoints.items()}
        sockets = max(1, min(2, os.cpu_count() or 1))
        self.sockets: List[socket.socket] = []
        self.selector = selectors.DefaultSelector()
        for _ in range(sockets):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            sock.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)
            sock.bind((HOST, 0))
            sock.setblocking(False)
            self.selector.register(sock, selectors.EVENT_READ)
            self.sockets.append(sock)
        self._next_socket = 0
        self._realtime_offset = realtime_offset()
        #: XID -> intended send time of each answerable lookup in flight.
        self.outstanding: Dict[int, float] = {}
        self._deadlines: deque = deque()
        #: XID -> state of each lookup sent: ``outstanding``, ``completed``,
        #: ``lost`` (no reply by the deadline), ``late`` (a lost lookup
        #: answered later, correctly), ``unanswerable`` or ``failed`` (a
        #: bad reply arrived).  Every reply after the first is bad.
        self.state: Dict[int, str] = {}
        self.lookups_sent = 0
        self.junk_sent = 0
        self.wrong: List[str] = []
        self.phase: Optional[PhaseStats] = None

    def close(self) -> None:
        self.selector.close()
        for sock in self.sockets:
            sock.close()

    # -- sending -------------------------------------------------------
    def send(self, item: Send, intended: float) -> None:
        sock = self.sockets[self._next_socket]
        self._next_socket = (self._next_socket + 1) % len(self.sockets)
        sock.sendto(item.data, self.destinations[item.target])
        now = perf_counter()
        phase = self.phase
        if item.xid is None:
            self.junk_sent += 1
            return
        self.lookups_sent += 1
        if item.answerable:
            phase.attempted += 1
            phase.lateness.append(now - intended)
            self.state[item.xid] = "outstanding"
            self.outstanding[item.xid] = intended
            self._deadlines.append((intended + DEADLINE_S, item.xid))
        else:
            phase.unanswerable += 1
            self.state[item.xid] = "unanswerable"

    # -- receiving -----------------------------------------------------
    def poll(self, timeout: float) -> None:
        """Wait up to ``timeout`` s for replies and take them all."""
        for key, _ in self.selector.select(timeout):
            self._receive(key.fileobj)

    def take_replies(self) -> None:
        """Take the replies already queued, without waiting."""
        for sock in self.sockets:
            self._receive(sock)

    def _receive(self, sock: socket.socket) -> None:
        # Each reply is timed by its kernel receive timestamp, so a reply
        # that waits in the socket buffer while the generator sleeps is
        # not charged the wait.
        while True:
            try:
                data, ancillary, _, _ = sock.recvmsg(4096, _TIMESTAMP_SPACE)
            except BlockingIOError:
                return
            arrived = None
            for level, kind, payload in ancillary:
                if level == socket.SOL_SOCKET and kind == SO_TIMESTAMPNS:
                    seconds, nanoseconds = struct.unpack("qq", payload[:16])
                    arrived = seconds + 1e-9 * nanoseconds - self._realtime_offset
            self._on_reply(data, arrived if arrived is not None else perf_counter())

    def _on_reply(self, data: bytes, now: float) -> None:
        xid = xid_of(data)
        state = self.state.get(xid) if xid is not None else None
        if state is None:
            self._bad(None, f"reply with unknown XID: {data[:32]!r}")
            return
        if state == "unanswerable":
            self._bad(xid, f"reply to unanswerable lookup {xid}")
            return
        if state in ("completed", "late", "failed"):
            self._bad(xid, f"second reply to XID {xid}: {data!r}")
            return
        correct = data == with_xid(self.template, xid)
        if state == "outstanding":
            intended = self.outstanding.pop(xid)
        if not correct:
            self._bad(xid, f"reply to XID {xid} differs from the twin: {data!r}")
            return
        if state == "lost":
            self.state[xid] = "late"  # already counted as lost
            return
        self.state[xid] = "completed"
        phase = self.phase
        phase.completed += 1
        phase.latencies.append(now - intended)
        phase.done_at.append(now)

    def _bad(self, xid: Optional[int], why: str) -> None:
        """Record a bad reply: it fails the correctness gate, and its
        lookup counts as failed unless it already has."""
        self.wrong.append(why)
        if self.state.get(xid) not in ("lost", "late", "failed"):
            self.phase.wrong += 1
        if xid is not None:
            self.state[xid] = "failed"

    def expire(self, now: float) -> None:
        deadlines = self._deadlines
        while deadlines and deadlines[0][0] < now:
            _, xid = deadlines.popleft()
            if self.outstanding.pop(xid, None) is not None:
                self.state[xid] = "lost"
                self.phase.lost += 1

    def sleep_until(self, until: float) -> None:
        """Sleep until ``until``, taking replies at least every 10 ms."""
        while True:
            self.take_replies()
            remaining = until - perf_counter()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.01))

    def drain(self) -> None:
        """Collect replies until every lookup is answered or expired."""
        while self.outstanding:
            now = perf_counter()
            self.expire(now)
            if self.outstanding:
                self.poll(0.01)
        # Unanswerable lookups and junk sent last: let the bridge see them.
        settle = perf_counter() + 0.05
        while perf_counter() < settle:
            self.poll(0.01)

    # -- phases ----------------------------------------------------------
    def run_open(self, name: str, rate: float, duration: float, seed: int) -> PhaseStats:
        """Poisson arrivals; latency from each lookup's intended send time."""
        sends = InputStream(self.workload, seed, name, self.xids).poisson(rate, duration)
        stats = self.phase = PhaseStats(name)
        cpu0 = time.process_time()
        start = perf_counter() + 0.005
        index, total = 0, len(sends)
        while index < total:
            now = perf_counter()
            while index < total and start + sends[index].at <= now:
                self.send(sends[index], start + sends[index].at)
                index += 1
            self.expire(now)
            if index < total:
                self.sleep_until(start + sends[index].at)
        self.sleep_until(start + duration)
        stats.window = duration
        self.drain()
        stats.gen_cpu = time.process_time() - cpu0
        return stats

    def run_closed(self, name: str, k: int, count: int, seed: int) -> PhaseStats:
        """``count`` answerable lookups, ``k`` outstanding at a time; a
        reply or an expiry frees a slot.  The window runs from the first
        send to the last completion."""
        stream = InputStream(self.workload, seed, name, self.xids)
        stats = self.phase = PhaseStats(name)
        cpu0 = time.process_time()
        start = perf_counter()
        while stats.attempted < count or self.outstanding:
            while stats.attempted < count and len(self.outstanding) < k:
                for item in stream.lookup():
                    self.send(item, perf_counter())
            self.poll(0.01)
            self.expire(perf_counter())
        stats.window = (stats.done_at[-1] if stats.done_at else perf_counter()) - start
        self.drain()
        stats.gen_cpu = time.process_time() - cpu0
        return stats


# ----------------------------------------------------------------------
# one run against one bridge process
# ----------------------------------------------------------------------
def check_gates(generator: Generator, first: Dict[str, Any], last: Dict[str, Any]) -> List[str]:
    """Every correctness gate that failed (empty when all hold)."""
    failures = list(generator.wrong[:5])
    if len(generator.wrong) > 5:
        failures.append(f"... {len(generator.wrong) - 5} more wrong replies")
    routed, unrouted, received, rejected = (
        last[key] - first[key]
        for key in ("routed", "unrouted", "generator_received", "generator_rejected")
    )
    sent = generator.lookups_sent + generator.junk_sent
    if (
        received != sent
        or routed != generator.lookups_sent
        or unrouted != 0
        or rejected != generator.junk_sent
    ):
        failures.append(
            f"datagram ledger: sent {generator.lookups_sent} lookups + "
            f"{generator.junk_sent} junk = {sent}; the router received {received}, "
            f"routed {routed}, left {unrouted} unrouted and rejected {rejected}"
        )
    for key in ("worker_errors", "network_errors", "tcp_replies_dropped"):
        if last[key]:
            failures.append(f"{key} = {last[key]}")
    return failures


def run_bridge(workload: Workload, seed: int, phases: Sequence[Tuple[str, str, float]],
               template: bytes, trace: bool = False) -> Dict[str, Any]:
    """Start a bridge, drive ``phases`` ((name, kind, amount)), stop it.

    An ``open`` phase lasts ``amount`` seconds; a ``closed`` phase sends
    ``amount`` answerable lookups; a ``setup`` phase times the set-up of
    ``amount`` throwaway bridges, one after another.

    Returns each phase's stats with bridge snapshots around it.
    """
    bridge = start_bridge(workload, trace)
    generator: Optional[Generator] = None
    try:
        endpoints = {
            name: bridge.port_base + offset
            for name, offset in (("SLP", 0), ("mDNS", 1))
        }
        generator = Generator(workload, endpoints, template, XidCounter(seed))
        bridge.command(cmd="sources", ports=[sock.getsockname()[1] for sock in generator.sockets])
        first = bridge.command(cmd="snapshot")
        results: Dict[str, Any] = {
            "ready": bridge.ready, "phases": {}, "setups": [bridge.ready],
        }
        for name, kind, amount in phases:
            if kind == "setup":
                # While the loaded bridge idles between segments.
                for _ in range(int(amount)):
                    results["setups"].append(throwaway_setup(workload))
                continue
            traced = trace and name != "warmup"
            if traced:
                bridge.command(cmd="trace", on=True)
            before = bridge.command(cmd="snapshot")
            if kind in ("warmup", "open"):
                stats = generator.run_open(name, workload.open_rate, amount, seed)
            else:
                stats = generator.run_closed(name, CLOSED_K, int(amount), seed)
            if traced:
                bridge.command(cmd="trace", on=False)
            after = bridge.command(cmd="snapshot")
            results["phases"][name] = {
                "kind": kind, "stats": stats, "before": before, "after": after,
            }
        last = bridge.command(cmd="snapshot")
        results["gate_failures"] = check_gates(generator, first, last)
        results["last"] = last
        spans = ""
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl")
        bridge.stop(spans)
        return results
    finally:
        if generator is not None:
            generator.close()
        bridge.kill()


def throwaway_setup(workload: Workload) -> Dict[str, Any]:
    """The ready report, with set-up times, of a throwaway bridge process."""
    bridge = start_bridge(workload)
    try:
        bridge.stop()
        return bridge.ready
    finally:
        bridge.kill()


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def segments(result: Dict[str, Any], kind: str) -> List[Dict[str, Any]]:
    """The phases of ``result`` of one kind, in run order."""
    return [phase for phase in result["phases"].values() if phase["kind"] == kind]


def bridge_cpu(phases: Sequence[Dict[str, Any]]) -> float:
    """Bridge CPU seconds spent over ``phases``."""
    return sum(phase["after"]["cpu_s"] - phase["before"]["cpu_s"] for phase in phases)


def cpu_us_per_session(phases: Sequence[Dict[str, Any]]) -> float:
    """Bridge CPU over ``phases`` per lookup completed in them."""
    completed = sum(phase["stats"].completed for phase in phases)
    return 1e6 * bridge_cpu(phases) / max(1, completed)


def latency(phases: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """p50 and p99 of the lookups completed in ``phases``, in ms."""
    latencies_ms = [1e3 * v for phase in phases for v in phase["stats"].latencies]
    return {
        "latency_p50_ms": dict(summarize(latencies_ms, 0.50), unit="ms"),
        "latency_p99_ms": dict(summarize(latencies_ms, 0.99), unit="ms"),
    }


def end_to_end(result: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(bounded, reported) metrics of an untraced run.

    The bounded ones are CPU times and memory; the wall-clock ones, which
    the host's other tenants move by more than any bound could allow, are
    reported beside them (see README.md).
    """
    opens = segments(result, "open")
    closes = segments(result, "closed")
    completed = sum(phase["stats"].completed for phase in closes)
    window = sum(phase["stats"].window for phase in closes)
    setups = result["setups"]
    bounded = {
        "cpu_us_per_session": {"value": cpu_us_per_session(opens), "unit": "us",
                               "samples": sum(p["stats"].completed for p in opens)},
        "setup_s": {"value": statistics.median(s["setup_cpu_s"] for s in setups),
                    "unit": "s", "samples": len(setups)},
        "bridge_rss_mb": {"value": result["last"]["maxrss_kb"] / 1024.0, "unit": "MB",
                          "samples": 1},
    }
    reported = {
        "sessions_per_s": {"value": completed / window, "unit": "1/s", "samples": completed},
        **latency(opens),
        "setup_wall_s": {"value": statistics.median(s["setup_wall_s"] for s in setups),
                         "unit": "s", "samples": len(setups)},
    }
    return bounded, reported


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics of the traced open phase (see README.md)."""
    phase = traced["phases"]["open"]
    stats, before, after = phase["stats"], phase["before"], phase["after"]
    trace = after["trace"]
    sessions = max(1, stats.completed)
    lookups = stats.attempted + stats.unanswerable
    totals = trace["totals"]
    wall = after["wall"] - before["wall"]

    def calls(name: str) -> float:
        return totals.get(name, [0, 0.0, 0])[0] / sessions

    def self_us(name: str) -> float:
        return 1e6 * totals.get(name, [0, 0.0, 0])[1] / sessions

    def nbytes(name: str) -> float:
        return totals.get(name, [0, 0.0, 0])[2] / sessions

    def delta(key: str) -> int:
        return after[key] - before[key]

    classify_calls = max(1, totals.get("engine.classify", [0])[0])
    completed = [
        a["completed"] - b["completed"] for a, b in zip(after["workers"], before["workers"])
    ]
    evicted = sum(a["evicted"] - b["evicted"] for a, b in zip(after["workers"], before["workers"]))
    busy = trace["worker_busy"]
    waits_us = [1e6 * w for w in trace["queue_waits"]] or [0.0]
    lags_us = [1e6 * lag for lag in after["loop_lags"]] or [0.0]
    traced_cpu = cpu_us_per_session([phase])
    untraced_cpu = cpu_us_per_session([untraced["phases"]["open"]])
    layer_self: Dict[str, float] = {}
    for name, (count, seconds, _) in totals.items():
        layer = LAYERS[name]
        layer_self[layer] = layer_self.get(layer, 0.0) + 1e6 * seconds / sessions
    attributed = sum(layer_self.values())

    metrics: Dict[str, Tuple[float, str]] = {
        "network.send.calls_per_session": (calls("network.send"), "count"),
        "network.send.self_us_per_session": (self_us("network.send"), "us"),
        "network.bind_endpoint.calls_per_session": (calls("network.bind_endpoint"), "count"),
        # A share, not microseconds: it is exactly 0 on the workloads that
        # never bind, and a time that reads the same on every run would
        # look like a fixed value.
        "network.bind_endpoint.cpu_frac": (
            (self_us("network.bind_endpoint") + self_us("network.unbind_endpoint"))
            / traced_cpu, "frac"),
        "network.recv.self_us_per_session": (self_us("network.recv"), "us"),
        "network.loop.self_us_per_session": (self_us("network.loop"), "us"),
        "network.errors": (
            delta("network_errors") + delta("tcp_replies_dropped"), "count"),
        "network.loop_lag_p99_us": (percentile(lags_us, 0.99), "us"),
        "runtime.router.on_datagram.calls_per_session": (
            calls("runtime.router.on_datagram"), "count"),
        "runtime.router.on_datagram.self_us_per_session": (
            self_us("runtime.router.on_datagram"), "us"),
        "runtime.job.self_us_per_session": (
            self_us("runtime.job") + self_us("runtime.post")
            + self_us("runtime.forwarder.on_datagram"), "us"),
        "runtime.queue_wait.p50_us": (percentile(waits_us, 0.50), "us"),
        "runtime.queue_wait.p99_us": (percentile(waits_us, 0.99), "us"),
        "runtime.worker.busy_frac_max": (
            max(busy.values()) / wall if busy else 0.0, "frac"),
        "runtime.sessions_skew": (
            max(completed) / statistics.mean(completed) if sum(completed) else 0.0, "ratio"),
        "engine.classify.calls_per_session": (calls("engine.classify"), "count"),
        "engine.classify.self_us_per_session": (self_us("engine.classify"), "us"),
        "engine.classify.reject_frac": (delta("garbage_rejects") / classify_calls, "frac"),
        "engine.discriminator.miss_frac": (
            delta("discriminator_misses") / classify_calls, "frac"),
        "engine.dispatch.calls_per_session": (calls("engine.dispatch"), "count"),
        "engine.dispatch.self_us_per_session": (self_us("engine.dispatch"), "us"),
        "engine.on_datagram.self_us_per_session": (self_us("engine.on_datagram"), "us"),
        "engine.sessions.open_peak": (after["open_peak"], "count"),
        "engine.sessions.evicted_per_lookup": (evicted / max(1, lookups), "ratio"),
        "translation.apply.self_us_per_session": (self_us("translation.apply"), "us"),
        "mdl.parse.calls_per_session": (calls("mdl.parse"), "count"),
        "mdl.parse.self_us_per_session": (self_us("mdl.parse"), "us"),
        "mdl.parse.bytes_per_session": (nbytes("mdl.parse"), "bytes"),
        "mdl.compose.calls_per_session": (calls("mdl.compose"), "count"),
        "mdl.compose.self_us_per_session": (self_us("mdl.compose"), "us"),
        "mdl.compose.bytes_per_session": (nbytes("mdl.compose"), "bytes"),
        "mdl.compiled_frac": (
            trace["compiled_calls"] / max(1, trace["codec_calls"]), "frac"),
        "protocols.service.self_us_per_session": (self_us("protocols.service"), "us"),
        "gen.lag_p99_ms": (1e3 * percentile(stats.lateness or [0.0], 0.99), "ms"),
        "gen.cpu_busy_frac": (stats.gen_cpu / max(1e-9, stats.window), "frac"),
        "trace.cpu_us_per_session": (traced_cpu, "us"),
        "unattributed_us_per_session": (traced_cpu - attributed, "us"),
        "trace.overhead_frac": (traced_cpu / untraced_cpu - 1.0, "frac"),
    }
    for layer in sorted(set(LAYERS.values())):
        metrics[f"layer.{layer}.self_us_per_session"] = (layer_self.get(layer, 0.0), "us")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def context(workload: Workload, ready: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "event_loop": ready.get("event_loop"),
        "uvloop": ready.get("uvloop"),
        "open_rate": workload.open_rate,
        "closed_k": CLOSED_K,
        "workers": workload.workers,
        "calibration_ms": calibration_ms(),
        "network": "loopback",
        "modelled_compute": {"processing_delay": 0.0, "routing_delay": 0.0},
    }


def print_table(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    for name, entry in metrics.items():
        extra = ""
        if "samples" in entry:
            extra = f"  (n={entry['samples']}"
            if "beyond" in entry:
                extra += f", {entry['beyond']} beyond"
            extra += ")"
        print(f"  {name:<48} {entry['value']:>14.4f} {entry['unit']:<6}{extra}")


def print_closure(metrics: Dict[str, Dict[str, Any]]) -> None:
    print("attribution closure (us per session):")
    total = 0.0
    for name, entry in metrics.items():
        if name.startswith("layer."):
            print(f"  {name[6:].replace('.self_us_per_session', ''):<30} {entry['value']:>10.2f}")
            total += entry["value"]
    unattributed = metrics["unattributed_us_per_session"]["value"]
    print(f"  {'unattributed':<30} {unattributed:>10.2f}")
    print(f"  {'= traced cpu_us_per_session':<30} {total + unattributed:>10.2f}"
          f"   (measured {metrics['trace.cpu_us_per_session']['value']:.2f})")
    print(f"  trace.overhead_frac = {metrics['trace.overhead_frac']['value']:.4f}")


def outcome(results: Sequence[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, gate failures) over every phase of every run."""
    attempted = failed = 0
    failures: List[str] = []
    for result in results:
        for phase in result["phases"].values():
            stats = phase["stats"]
            attempted += stats.attempted
            failed += stats.lost + stats.wrong
        failures.extend(result["gate_failures"])
    return attempted, failed, failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Starlink bridge benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its bridge processes (``finally``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seconds = args.seconds
    try:
        template = twin_reply_template(workload, 20000)
    except GateFailure as exc:
        print(f"perfbench: twin gate failed: {exc}", file=sys.stderr)
        return 1
    steal_before = cpu_ticks()
    if args.trace:
        # The same seeded open phase twice: untraced for the reference CPU
        # cost, then traced for the per-layer attribution.
        phases = [("warmup", "warmup", 0.1 * seconds), ("open", "open", 0.4 * seconds)]
        untraced = run_bridge(workload, args.seed, phases, template)
        traced = run_bridge(workload, args.seed, phases, template, trace=True)
        runs = [untraced, traced]
        metrics = per_layer(untraced, traced)
        reported = latency([untraced["phases"]["open"]])
        metrics.update({f"e2e.{name}": {"value": entry["value"], "unit": entry["unit"]}
                        for name, entry in reported.items()})
        ready = traced["ready"]
    else:
        # Open and closed segments alternate, so that each metric samples
        # the whole run rather than one stretch of it: on a shared host the
        # CPU's speed drifts over seconds.  Set-up is timed between them.
        phases = [("warmup", "warmup", WARMUP_SHARE * seconds)]
        for cycle in range(1, CYCLES + 1):
            phases.append((f"open{cycle}", "open", OPEN_SHARE * seconds / CYCLES))
            phases.append((f"closed{cycle}", "closed",
                           CLOSED_SHARE * seconds * workload.closed_rate / CYCLES))
            phases.append((f"setup{cycle}", "setup", SETUPS_PER_CYCLE))
        result = run_bridge(workload, args.seed, phases, template)
        runs = [result]
        metrics, reported = end_to_end(result)
        ready = result["ready"]
    attempted, failed, failures = outcome(runs)
    reported["failed_frac"] = {"value": failed / max(1, attempted), "unit": "frac",
                               "samples": attempted}
    correct = not failures
    run_context = context(workload, ready)
    steal_after = cpu_ticks()
    run_context["host_steal_frac"] = (steal_after[0] - steal_before[0]) / max(
        1, steal_after[1] - steal_before[1])
    print(f"perfbench {workload.name} seed={args.seed} seconds={seconds:g} trace={args.trace}")
    print("context: " + json.dumps(run_context, sort_keys=True))
    print_table("metrics:", metrics)
    print_table("reported, not bounded (wall clock, untraced run):", reported)
    if args.trace:
        print_closure(metrics)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload.name}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w", encoding="utf-8") as out:
        json.dump({"context": run_context, "metrics": metrics, "reported": reported,
                   "attempted": attempted, "failed": failed, "gate_failures": failures},
                  out, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
