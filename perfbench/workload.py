"""Workload definitions and seeded input generation for the bridge benchmark.

Everything the load generator sends is built here from ``--seed`` alone, as
raw bytes, without importing the program under test: the same seed gives
the same request bytes and the same arrival schedule, and a change to the
program's codecs cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

HOST = "127.0.0.1"

#: SLP service types.  The co-hosted legacy service answers the first; the
#: bridge translates the second like any lookup, but no service ever
#: answers it, so its session idles until eviction.
ANSWERABLE_TYPE = "service:test"
UNANSWERABLE_TYPE = "service:absent"

#: Seconds a lookup may wait for its reply before it counts as failed.
#: Lookups are never re-sent.
DEADLINE_S = 2.0

#: Offset and width of the SLP XID in both SrvRqst and SrvRply.
XID_OFFSET = 10
XID_END = 12

#: Port offsets from the deployment's port base.  Public endpoints sit at
#: ``base + 0..2`` and the workers at ``base + 16 * (id + 1)`` (the live
#: runtime's default stride); the legacy service sits above them.
SERVICE_PORT_OFFSET = 200

#: Lookups kept outstanding in every workload's ``closed`` phase.
CLOSED_K = 32


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the deployment it runs against."""

    name: str
    #: Case number of :data:`repro.bridges.specs.BRIDGE_BUILDERS`.
    case: int
    workers: int
    #: Poisson arrival rate of the ``open`` phase, lookups/s (about a
    #: third of the closed-loop saturation measured on a 2-core host).
    open_rate: float
    #: Closed-loop saturation measured on a 2-core host, lookups/s; sizes
    #: the ``closed`` phases so a run does a fixed amount of work.
    closed_rate: float
    #: Junk datagrams (garbage and wrong-protocol) sent per lookup.
    junk_per_lookup: int = 0
    #: Share of lookups asking for :data:`UNANSWERABLE_TYPE`.
    unanswerable_share: float = 0.0
    #: ``session_timeout`` passed to ``from_bridge`` (``None``: default).
    session_timeout: Optional[float] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("slp-mdns", case=2, workers=2, open_rate=350.0,
                 closed_rate=1050.0),
        Workload("slp-upnp-tcp", case=1, workers=4, open_rate=140.0,
                 closed_rate=420.0),
        Workload(
            "slp-mdns-hostile",
            case=2,
            workers=2,
            open_rate=260.0,
            closed_rate=790.0,
            junk_per_lookup=2,
            unanswerable_share=0.1,
            session_timeout=0.5,
        ),
    )
}


def srv_request(xid: int, service_type: str) -> bytes:
    """An SLPv2 SrvRqst (RFC 2608 §8.1), language ``en``, empty lists."""
    lang = b"en"
    body = (
        struct.pack("!H", 0)  # previous-responder list
        + struct.pack("!H", len(service_type))
        + service_type.encode("ascii")
        + struct.pack("!H", 0)  # scope list
        + struct.pack("!H", 0)  # predicate
    )
    length = 14 + len(lang) + len(body)
    header = (
        bytes([2, 1])
        + length.to_bytes(3, "big")
        + struct.pack("!H", 0)  # flags
        + (0).to_bytes(3, "big")  # next extension offset
        + struct.pack("!H", xid)
        + struct.pack("!H", len(lang))
        + lang
    )
    return header + body


def with_xid(template: bytes, xid: int) -> bytes:
    """``template`` with its SLP XID replaced by ``xid``."""
    return template[:XID_OFFSET] + struct.pack("!H", xid) + template[XID_END:]


def xid_of(datagram: bytes) -> Optional[int]:
    if len(datagram) < XID_END:
        return None
    return struct.unpack_from("!H", datagram, XID_OFFSET)[0]


# -- hostile junk --------------------------------------------------------
# Each kind is built so that no parser of the targeted endpoint can accept
# it: the first-bytes discriminators reject the first four outright (SLP
# keys on the function-id byte, DNS on the flags word); the truncated
# request passes the SLP discriminator and fails the trial parse.
JUNK_KINDS = ("random-slp", "msearch-slp", "dns-slp", "random-mdns", "truncated-slp")


def _not_in(rng: random.Random, excluded: Tuple[int, ...], bound: int) -> int:
    value = rng.randrange(bound)
    while value in excluded:
        value = rng.randrange(bound)
    return value


def junk_datagram(rng: random.Random) -> Tuple[str, bytes]:
    """One seeded junk datagram and the public automaton it is aimed at."""
    kind = JUNK_KINDS[rng.randrange(len(JUNK_KINDS))]
    if kind == "random-slp":
        data = bytearray(rng.randbytes(rng.randrange(2, 65)))
        data[1] = _not_in(rng, (1, 2), 256)
        return "SLP", bytes(data)
    if kind == "msearch-slp":
        return "SLP", (
            "M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\n"
            'MAN: "ssdp:discover"\r\nMX: 3\r\n'
            f"ST: urn:schemas-upnp-org:service:t{rng.randrange(1000)}:1\r\n\r\n"
        ).encode("ascii")
    if kind == "dns-slp":
        ident = (rng.randrange(256) << 8) | _not_in(rng, (1, 2), 256)
        name = b"\x05_test\x04_tcp\x05local\x00"
        return "SLP", struct.pack("!6H", ident, 0, 1, 0, 0, 0) + name + struct.pack("!2H", 16, 1)
    if kind == "random-mdns":
        data = bytearray(rng.randbytes(rng.randrange(4, 65)))
        flags = _not_in(rng, (0x0000, 0x8400), 1 << 16)
        data[2:4] = struct.pack("!H", flags)
        return "mDNS", bytes(data)
    request = srv_request(rng.randrange(1, 1 << 16), ANSWERABLE_TYPE)
    return "SLP", request[: rng.randrange(2, 14)]


# -- schedules -------------------------------------------------------------
@dataclass
class Send:
    """One datagram the generator will send."""

    #: Seconds from the phase start (open phase only; 0.0 in closed).
    at: float
    #: Public automaton the datagram is aimed at (``SLP``/``mDNS``).
    target: str
    data: bytes
    #: XID of a lookup, ``None`` for junk.
    xid: Optional[int] = None
    answerable: bool = True


class InputStream:
    """Seeded lookups and junk for one phase of one run.

    XIDs are drawn from one per-run counter so they are unique across
    phases and sockets: the bridge keys sessions on (client host, XID),
    and all generator sockets share one host.
    """

    def __init__(self, workload: Workload, seed: int, phase: str, xids: "XidCounter") -> None:
        self.workload = workload
        self.rng = random.Random(f"{seed}:{workload.name}:{phase}")
        self.xids = xids

    def lookup(self, at: float = 0.0) -> List[Send]:
        """The next lookup, plus the junk that rides with it."""
        w = self.workload
        answerable = not (self.rng.random() < w.unanswerable_share)
        xid = self.xids.next()
        service_type = ANSWERABLE_TYPE if answerable else UNANSWERABLE_TYPE
        sends = [Send(at, "SLP", srv_request(xid, service_type), xid, answerable)]
        for _ in range(w.junk_per_lookup):
            target, data = junk_datagram(self.rng)
            sends.append(Send(at, target, data))
        return sends

    def poisson(self, rate: float, duration: float) -> List[Send]:
        """Open-loop arrivals: exponential gaps at ``rate`` for ``duration`` s."""
        sends: List[Send] = []
        at = self.rng.expovariate(rate)
        while at < duration:
            sends.extend(self.lookup(at))
            at += self.rng.expovariate(rate)
        return sends


class XidCounter:
    """Run-wide XIDs; a run must never reuse one (see :class:`InputStream`)."""

    def __init__(self, seed: int) -> None:
        self._next = 1 + random.Random(f"xid:{seed}").randrange(1 << 15)
        self._issued = 0

    def next(self) -> int:
        if self._issued >= (1 << 16) - 2:
            raise RuntimeError("XID space exhausted: shorten the run")
        self._issued += 1
        xid = self._next
        self._next = self._next % ((1 << 16) - 1) + 1
        return xid
