"""Shared socket helpers for the live network engine.

:class:`~repro.network.aio.AsyncSocketNetwork` runs the framework's
:class:`~repro.network.engine.NetworkNode` abstraction over real BSD
sockets on the loopback interface.  This module holds what that engine,
its fault-injecting subclass and the live tests share: the UDP bind
helper, the loopback probe every live test, benchmark and example gates
on, the seeded :class:`FaultPlan`, and the engine constants.
"""

from __future__ import annotations

import random
import socket
from typing import List

from ..core.errors import ConfigurationError

__all__ = [
    "DEFAULT_TCP_REPLY_TIMEOUT",
    "FaultPlan",
    "loopback_available",
    "bind_udp_socket",
]


def bind_udp_socket(host: str, port: int) -> socket.socket:
    """A UDP socket bound to ``(host, port)``; port 0 lets the kernel pick.

    Fixed ports set ``SO_REUSEADDR`` (quick rebinding).  Kernel-assigned
    ports must not: Linux may then hand out a port that another
    ``SO_REUSEADDR`` socket still holds, and two live sessions would share
    one ephemeral return address, so one of them never sees its reply.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    if port != 0:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock


def loopback_available() -> bool:
    """Whether this environment permits loopback UDP *and* TCP sockets.

    Some sandboxes and minimal containers forbid them; the live tests,
    benchmarks and examples probe with this and skip themselves.  The
    gated code binds UDP sockets, binds TCP listeners *and* dials TCP
    connections, so the probe exercises all three — a sandbox that allows
    UDP but blocks TCP (or allows binds but blocks connects) must fail it.
    """
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            with socket.create_connection(
                ("127.0.0.1", server.getsockname()[1]), timeout=1.0
            ):
                pass
        finally:
            server.close()
        return True
    except OSError:
        return False


#: Bytes read per UDP datagram / TCP chunk.
_RECV_BUFFER = 65536
#: Seconds an accepted TCP connection may go quiet before its request is
#: considered complete.
_TCP_IDLE_TIMEOUT = 0.2

#: Seconds an accepted TCP connection stays open waiting for the owning
#: node's (possibly delayed) reply before the engine gives up and closes it.
DEFAULT_TCP_REPLY_TIMEOUT = 5.0


class FaultPlan:
    """Deterministic per-window fault decisions for
    :class:`~repro.network.aio.AsyncFaultyNetwork`.

    One plan governs one loss window: it is seeded from ``(seed, window)``
    so the decision sequence depends only on the seed, the window index
    and the order of sends *inside* the window — never on how many
    datagrams flowed before the window opened (live runs have
    nondeterministic background traffic between windows).  Same seed and
    window → byte-for-byte the same verdict trace, which is what the
    determinism tests pin.
    """

    #: Verdicts a draw can return, in probability order.
    VERDICTS = ("drop", "dup", "reorder", "pass")

    def __init__(
        self,
        seed: int,
        window: int = 0,
        loss: float = 0.35,
        duplicate: float = 0.15,
        reorder: float = 0.15,
    ) -> None:
        for name, rate in (("loss", loss), ("duplicate", duplicate), ("reorder", reorder)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} rate must be in [0, 1], got {rate!r}")
        if loss + duplicate + reorder > 1.0:
            raise ConfigurationError(
                "loss + duplicate + reorder rates must not exceed 1.0, got "
                f"{loss + duplicate + reorder}"
            )
        self.seed = seed
        self.window = window
        self.loss = loss
        self.duplicate = duplicate
        self.reorder = reorder
        self._rng = random.Random(f"fault-plan:{seed}:{window}")
        #: The verdicts drawn so far, in order (the deterministic trace).
        self.decisions: List[str] = []

    def draw(self) -> str:
        """The verdict for the next datagram: drop | dup | reorder | pass."""
        roll = self._rng.random()
        if roll < self.loss:
            verdict = "drop"
        elif roll < self.loss + self.duplicate:
            verdict = "dup"
        elif roll < self.loss + self.duplicate + self.reorder:
            verdict = "reorder"
        else:
            verdict = "pass"
        self.decisions.append(verdict)
        return verdict
