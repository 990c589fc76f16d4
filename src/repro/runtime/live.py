"""Per-worker node adapters of the live sharded runtime.

:class:`~repro.runtime.aio_live.AsyncLiveShardedRuntime` deploys the
*same objects* as the simulated
:class:`~repro.runtime.runtime.ShardedRuntime` — the same read-only merged
automaton, the same worker :class:`AutomataEngine` instances, the same
sticky :class:`~repro.runtime.sharding.HashRing` routing — on an
:class:`~repro.network.aio.AsyncSocketNetwork`.  Each worker engine runs
behind a worker loop (a queue drained by a task on the network's event
loop), and three small adapters connect it to the network without ever
running the engine outside that queue:

* :class:`_WorkerEngineView` — the network as the worker sees it: sends
  pass straight through, ``call_later`` callbacks are re-posted onto the
  worker's queue, and per-session ephemeral sockets are bound on behalf
  of the loop's forwarder;
* :class:`_LoopForwarder` — owner of a worker's late-bound (ephemeral)
  sockets, posting every datagram they receive onto the worker's queue;
* :class:`_WorkerShell` — the node actually attached for one worker,
  owning its unicast endpoints and posting their datagrams likewise.

The constants below are the live runtime's port layout and teardown and
drain bounds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

from ..network.addressing import Endpoint
from ..network.engine import NetworkEngine, NetworkNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .aio_live import AsyncWorkerLoop

#: Sentinel shutting a worker loop down.
_STOP = object()

#: Default port distance between the router's public range and each
#: worker's range on the socket engine, where everything shares one real
#: host address and only ports distinguish the nodes.
DEFAULT_WORKER_PORT_STRIDE = 16

#: Seconds undeploy waits for each worker loop to drain and exit before
#: recording the straggler as an error.
UNDEPLOY_JOIN_TIMEOUT = 5.0

#: Wall seconds a live drain waits between completion checks (the worker
#: loops also notify after every job, so this is only the fallback).
LIVE_DRAIN_POLL_INTERVAL = 0.02

#: Default wall-clock bound on a live drain before ``scale_to`` gives up
#: and restores full ring membership.  Generous: idle-session eviction
#: (default 30 s) guarantees progress well inside it.
DEFAULT_LIVE_DRAIN_TIMEOUT = 60.0


class _WorkerEngineView(NetworkEngine):
    """The network engine as one worker sees it: sends pass through,
    callbacks come home.

    ``call_later`` re-posts the callback onto the worker's queue when the
    delay expires, so everything the engine schedules (eviction sweeps)
    executes as a job of the worker's own loop.
    """

    def __init__(self, network: NetworkEngine, loop: "AsyncWorkerLoop") -> None:
        self._network = network
        self._loop = loop

    def now(self) -> float:
        return self._network.now()

    def send(
        self,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
        delay: float = 0.0,
    ) -> None:
        self._network.send(data, source=source, destination=destination, delay=delay)

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        self._network.call_later(delay, lambda: self._loop.post(callback))

    @property
    def kernel_ephemeral_ports(self) -> bool:
        """Whether the substrate assigns ephemeral ports itself (bind to 0)."""
        return bool(getattr(self._network, "kernel_ephemeral_ports", False))

    def bind_endpoint(self, node: NetworkNode, endpoint: Endpoint):
        """Bind a per-session ephemeral endpoint, datagrams coming home.

        The socket is registered to the loop's forwarder node, so replies
        received on it are posted onto the worker's queue.  Returns the
        actually-bound :class:`Endpoint`, or ``None`` when the substrate
        cannot bind late.
        """
        bind = getattr(self._network, "bind_endpoint", None)
        if bind is None:
            return None
        return bind(self._loop.forwarder, endpoint)

    def unbind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> None:
        unbind = getattr(self._network, "unbind_endpoint", None)
        if unbind is not None:
            unbind(self._loop.forwarder, endpoint)

    def attach(self, node: NetworkNode) -> None:  # pragma: no cover - delegation
        self._network.attach(node)

    def detach(self, node: NetworkNode) -> None:  # pragma: no cover - delegation
        self._network.detach(node)


class _LoopForwarder(NetworkNode):
    """Owner of a worker's late-bound (ephemeral) sockets: every datagram
    received on them is posted onto the worker's queue."""

    def __init__(self, loop: "AsyncWorkerLoop") -> None:
        self._loop = loop
        self.name = f"{loop.worker.name}.ephemeral"

    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        loop = self._loop
        loop.post(
            lambda: loop.worker.on_datagram(loop.view, data, source, destination)
        )


class _WorkerShell(NetworkNode):
    """The node actually attached to the socket engine for one worker.

    It owns the worker's unicast endpoints (so upstream replies land on
    real sockets) but forwards every datagram onto the worker's queue; the
    worker engine itself never runs outside its loop.
    """

    def __init__(self, loop: "AsyncWorkerLoop") -> None:
        self._loop = loop
        self.name = f"{loop.worker.name}.shell"

    def unicast_endpoints(self) -> List[Endpoint]:
        return self._loop.worker.unicast_endpoints()

    def multicast_groups(self) -> List[Endpoint]:
        # Workers behind a router never join groups; the router owns them.
        return []

    def on_attached(self, engine: NetworkEngine) -> None:
        self._loop.worker.on_attached(self._loop.view)

    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        loop = self._loop
        loop.post(
            lambda: loop.worker.on_datagram(loop.view, data, source, destination)
        )
