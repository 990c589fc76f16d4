"""The bridge process of the benchmark.

Deploys one Starlink bridge -- an ``AsyncLiveShardedRuntime`` on an
``AsyncSocketNetwork`` with zero modelled compute -- together with the
legacy service it translates to, then answers control commands, one JSON
object per line, on stdin/stdout:

* ``{"cmd": "sources", "ports": [...]}`` -- the generator's source ports;
* ``{"cmd": "snapshot"}`` -- CPU time, peak RSS and the runtime's counters;
* ``{"cmd": "trace", "on": true|false}`` -- start/stop recording spans
  (only when started with ``--trace``);
* ``{"cmd": "stop", "spans": path}`` -- tear down, write the spans (traced
  runs, when a path is given), exit.

The first line it prints is ``{"event": "ready", ...}`` with the set-up
time: from process start until the models are built, the codecs
compiled, the runtime deployed and every socket bound, as CPU seconds
(``setup_cpu_s``) and as wall seconds from before the program is imported
(``setup_wall_s``).  The load generator (``run.py``) runs in another process.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from typing import Any, Callable, Dict, List  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

from workload import HOST, SERVICE_PORT_OFFSET, WORKLOADS  # noqa: E402

#: Seconds between event-loop lag probes (traced runs only).
LAG_PROBE_INTERVAL = 0.005


def emit(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def build_service(case: int, port_base: int):
    from repro.network.latency import LatencyModel
    from repro.protocols.mdns import BonjourResponder
    from repro.protocols.upnp import UPnPDevice

    instant = LatencyModel(0.0, 0.0)
    port = port_base + SERVICE_PORT_OFFSET
    if case == 2:
        return BonjourResponder(host=HOST, port=port, latency=instant)
    if case == 1:
        return UPnPDevice(
            host=HOST,
            ssdp_port=port,
            http_port=port + 1,
            ssdp_latency=instant,
            http_latency=instant,
        )
    raise ValueError(f"no co-hosted service for case {case}")


class SourceLedger:
    """Counts, per datagram the router receives from a generator socket,
    whether its classify rejected it.

    The only shim in untraced runs: the router's own counters do not say
    where a datagram came from, and the bridge's translated multicasts
    loop back into its public endpoints too, so rejections alone cannot
    be matched against what the generator sent.
    """

    def __init__(self) -> None:
        self.ports: set = set()
        self.received = 0
        self.rejected = 0

    def install(self, router_class: Any) -> None:
        on_datagram = router_class.on_datagram
        ledger = self

        def counted(router: Any, engine: Any, data: bytes, source: Any, destination: Any) -> None:
            if source.port not in ledger.ports:
                return on_datagram(router, engine, data, source, destination)
            failures = len(router.parse_failures)
            try:
                return on_datagram(router, engine, data, source, destination)
            finally:
                ledger.received += 1
                ledger.rejected += len(router.parse_failures) > failures

        router_class.on_datagram = counted


class Bridge:
    """The deployed bridge, its co-hosted service and the control commands."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.bridges.specs import BRIDGE_BUILDERS
        from repro.network.aio import AsyncSocketNetwork
        from repro.runtime.aio_live import AsyncLiveShardedRuntime, AsyncShardRouter

        workload = WORKLOADS[args.workload]
        self.ledger = SourceLedger()
        self.ledger.install(AsyncShardRouter)
        self.tracer = None
        if args.trace:
            import spans

            self.tracer = spans.SpanTracer()
            spans.install(self.tracer)
        bridge = BRIDGE_BUILDERS[workload.case](
            host=HOST, base_port=args.port_base, processing_delay=0.0
        )
        bridge.validate()
        overrides: Dict[str, Any] = {"routing_delay": 0.0}
        if workload.session_timeout is not None:
            overrides["session_timeout"] = workload.session_timeout
        runtime = AsyncLiveShardedRuntime.from_bridge(
            bridge, workers=workload.workers, **overrides
        )
        modelled = [runtime.processing_delay, runtime.routing_delay] + [
            worker.processing_delay for worker in runtime.workers
        ]
        if any(delay != 0.0 for delay in modelled):
            raise SystemExit(f"modelled compute must be zero, got {modelled}")
        self.network = AsyncSocketNetwork(host=HOST)
        self.runtime = runtime
        self.service = build_service(workload.case, args.port_base)
        runtime.deploy(self.network)
        self.network.attach(self.service)
        self.stopping = False
        self.lags: List[float] = []
        self.open_peak = 0
        if self.tracer is not None:
            self.on_loop(lambda: setattr(self.tracer, "loop_thread", threading.get_ident()))
            self.network.loop.call_soon_threadsafe(self._schedule_probe)
        # One loop round trip: the transports installed at bind time are
        # in place before the generator sends.
        self.on_loop(lambda: None)

    def on_loop(self, fn: Callable[[], Any]) -> Any:
        async def call() -> Any:
            return fn()

        return asyncio.run_coroutine_threadsafe(call(), self.network.loop).result(10.0)

    # -- traced runs: loop-lag probe and session-table peak ------------------
    def _schedule_probe(self) -> None:
        loop = self.network.loop
        due = loop.time() + LAG_PROBE_INTERVAL
        loop.call_later(LAG_PROBE_INTERVAL, self._probe, due)

    def _probe(self, due: float) -> None:
        if self.tracer.active:
            self.lags.append(self.network.loop.time() - due)
            open_sessions = sum(len(w.active_sessions) for w in self.runtime.workers)
            self.open_peak = max(self.open_peak, open_sessions)
        if not self.stopping:
            self._schedule_probe()

    # -- commands ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        def read() -> Dict[str, Any]:
            runtime = self.runtime
            metrics = runtime.metrics(include_latency=False)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            snap: Dict[str, Any] = {
                "wall": time.perf_counter(),
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kb": usage.ru_maxrss,
                "routed": metrics.router.routed_datagrams,
                "unrouted": runtime.unrouted_datagrams,
                "generator_received": self.ledger.received,
                "generator_rejected": self.ledger.rejected,
                "garbage_rejects": runtime.router_garbage_rejects + runtime.garbage_rejects,
                "discriminator_misses": (
                    runtime.router_discriminator_misses + runtime.discriminator_misses
                ),
                "worker_errors": len(runtime.worker_errors),
                "network_errors": len(self.network.errors),
                "tcp_replies_dropped": self.network.tcp_replies_dropped,
                "workers": [
                    {"completed": row.completed_sessions, "evicted": row.evicted_sessions}
                    for row in metrics.workers
                ],
            }
            if self.tracer is not None:
                snap["trace"] = self.tracer.summary()
                snap["loop_lags"] = list(self.lags)
                snap["open_peak"] = self.open_peak
            return snap

        return self.on_loop(read)

    def set_trace(self, on: bool) -> None:
        def toggle() -> None:
            if on:
                self.tracer.reset()
                self.lags.clear()
                self.open_peak = 0
            self.tracer.active = on

        self.on_loop(toggle)

    def stop(self, spans_path: str) -> None:
        self.stopping = True
        self.runtime.undeploy()
        self.network.close()
        if self.tracer is not None and spans_path:
            self.tracer.dump(spans_path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--port-base", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    from repro.core.errors import NetworkError

    try:
        bridge = Bridge(args)
    except (OSError, NetworkError) as exc:
        emit({"event": "bind_error", "error": str(exc)})
        return 3
    usage = resource.getrusage(resource.RUSAGE_SELF)
    emit(
        {
            "event": "ready",
            "setup_wall_s": time.perf_counter() - _STARTED,
            "setup_cpu_s": usage.ru_utime + usage.ru_stime,
            "event_loop": type(bridge.network.loop).__module__
            + "."
            + type(bridge.network.loop).__name__,
            "uvloop": bridge.network.uvloop_active,
        }
    )
    for line in sys.stdin:
        command = json.loads(line)
        name = command["cmd"]
        if name == "snapshot":
            emit(bridge.snapshot())
        elif name == "sources":
            bridge.on_loop(lambda: bridge.ledger.ports.update(command["ports"]))
            emit({"event": "ok"})
        elif name == "trace":
            bridge.set_trace(bool(command["on"]))
            emit({"event": "ok"})
        elif name == "stop":
            bridge.stop(command.get("spans", ""))
            emit({"event": "stopped"})
            return 0
        else:
            emit({"event": "error", "error": f"unknown command {name!r}"})
    bridge.stop("")
    return 0


if __name__ == "__main__":
    sys.exit(main())
