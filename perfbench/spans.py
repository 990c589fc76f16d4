"""In-memory span tracing of the bridge process, from outside ``src/``.

:func:`install` wraps public entry points of each layer of the program in
timing shims.  A span records its name, start, end, enclosing span, the
span that caused it (a worker job links to the ``AsyncWorkerLoop.post``
that queued it) and the id of the inbound datagram it serves.  A span's
self time is its duration minus the spans nested inside it.  Spans are
kept in memory and written out by :meth:`SpanTracer.dump` at the end.

Only the event-loop thread is traced: every wrapped call the benchmark
drives runs there, and calls from any other thread pass straight through.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Span name -> layer, for the attribution closure table.
LAYERS = {
    "network.loop": "repro.network",
    "network.recv": "repro.network",
    "network.send": "repro.network",
    "network.bind_endpoint": "repro.network",
    "network.unbind_endpoint": "repro.network",
    "runtime.router.on_datagram": "repro.runtime",
    "runtime.forwarder.on_datagram": "repro.runtime",
    "runtime.post": "repro.runtime",
    "runtime.job": "repro.runtime",
    "engine.on_datagram": "repro.core.engine",
    "engine.classify": "repro.core.engine",
    "engine.dispatch": "repro.core.engine",
    "translation.apply": "repro.core.translation",
    "mdl.parse": "repro.core.mdl",
    "mdl.compose": "repro.core.mdl",
    "protocols.service": "repro.protocols",
}


class SpanTracer:
    """Span recording for one bridge process (loop thread only)."""

    def __init__(self) -> None:
        #: Spans and counters are kept only while ``active``.
        self.active = False
        self.loop_thread: Optional[int] = None
        #: Open spans: [child_seconds, span_id, datagram_id].
        self._stack: List[list] = []
        #: Inside the co-hosted service: nested calls fold into its span.
        self._folding = 0
        #: Inside a codec call: only the outermost one is a span.
        self._in_codec = False
        self._next_span = 1
        self._next_datagram = 1
        #: (id, name, datagram, parent, link, start, end, self) tuples.
        self.spans: List[tuple] = []
        #: name -> [calls, self seconds, bytes]
        self.totals: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.queue_waits: List[float] = []
        #: worker name -> seconds spent running its jobs.
        self.worker_busy: Dict[str, float] = defaultdict(float)
        self.compiled_calls = 0
        self.codec_calls = 0

    def _traced(self) -> bool:
        return threading.get_ident() == self.loop_thread and not self._folding

    def run(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        link: int = 0,
        datagram: int = 0,
        nbytes: int = 0,
    ) -> Any:
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_span
        self._next_span += 1
        if not datagram:
            datagram = parent[2] if parent is not None else self._new_datagram()
        frame = [0.0, span_id, datagram]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[0] += duration
            if self.active:
                own = duration - frame[0]
                total = self.totals[name]
                total[0] += 1
                total[1] += own
                total[2] += nbytes
                self.spans.append(
                    (
                        span_id,
                        name,
                        datagram,
                        parent[1] if parent is not None else 0,
                        link,
                        start,
                        end,
                        own,
                    )
                )

    def _new_datagram(self) -> int:
        datagram = self._next_datagram
        self._next_datagram += 1
        return datagram

    def current(self) -> tuple:
        """(span id, datagram id) of the innermost open span."""
        if not self._stack:
            return 0, 0
        frame = self._stack[-1]
        return frame[1], frame[2]

    # -- wrappers ------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any],
             new_datagram: bool = False) -> Callable[..., Any]:
        """A plain span; ``new_datagram`` starts a new inbound datagram id."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer._traced():
                return fn(*args, **kwargs)
            datagram = tracer._new_datagram() if new_datagram else 0
            return tracer.run(name, fn, args, kwargs, datagram=datagram)

        return wrapper

    def wrap_codec(self, name: str, fn: Callable[..., Any], compiled: bool) -> Callable[..., Any]:
        """A codec entry point: counts compiled vs interpreted, sizes bytes.

        Only the outermost codec call is a span, so a compiled codec that
        delegates to an interpreter is one call, not two.
        """
        tracer = self
        parse = name == "mdl.parse"

        @functools.wraps(fn)
        def wrapper(codec: Any, payload: Any, *args: Any, **kwargs: Any) -> Any:
            if not tracer._traced() or tracer._in_codec:
                return fn(codec, payload, *args, **kwargs)
            tracer._in_codec = True
            try:
                if tracer.active:
                    tracer.codec_calls += 1
                    tracer.compiled_calls += compiled
                result = tracer.run(name, fn, (codec, payload) + args, kwargs,
                                    nbytes=len(payload) if parse else 0)
                if not parse and tracer.active:
                    tracer.totals[name][2] += len(result)
                return result
            finally:
                tracer._in_codec = False

        return wrapper

    def wrap_fold(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A span whose nested calls are folded into its own self time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer._traced():
                return fn(*args, **kwargs)

            def folded() -> Any:
                tracer._folding += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._folding -= 1

            return tracer.run(name, folded, (), {})

        return wrapper

    def wrap_post(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``AsyncWorkerLoop.post``: the queued job becomes a linked span."""
        tracer = self

        @functools.wraps(fn)
        def post(loop: Any, job: Callable[[], Any], *args: Any, **kwargs: Any) -> Any:
            if not tracer._traced():
                return fn(loop, job, *args, **kwargs)
            worker = loop.worker.name

            def enqueue() -> Any:
                link, datagram = tracer.current()
                posted = perf_counter()

                def traced_job() -> Any:
                    if not tracer._traced():
                        return job()
                    started = perf_counter()
                    if tracer.active:
                        tracer.queue_waits.append(started - posted)
                    try:
                        return tracer.run("runtime.job", job, (), {}, link=link,
                                          datagram=datagram)
                    finally:
                        if tracer.active:
                            tracer.worker_busy[worker] += perf_counter() - started

                return fn(loop, traced_job, *args, **kwargs)

            return tracer.run("runtime.post", enqueue, (), {})

        return post

    # -- results -------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.totals.clear()
        self.queue_waits.clear()
        self.worker_busy.clear()
        self.compiled_calls = 0
        self.codec_calls = 0

    def summary(self) -> Dict[str, Any]:
        return {
            "totals": {name: list(values) for name, values in self.totals.items()},
            "queue_waits": list(self.queue_waits),
            "worker_busy": dict(self.worker_busy),
            "compiled_calls": self.compiled_calls,
            "codec_calls": self.codec_calls,
            "span_count": len(self.spans),
        }

    def dump(self, path: str) -> None:
        """Write every recorded span, one JSON array per line."""
        fields = ["id", "name", "datagram", "parent", "link", "start", "end", "self"]
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def install(tracer: SpanTracer) -> None:
    """Wrap each layer's public entry points; call before deploying."""
    from repro.core.engine.automata_engine import AutomataEngine
    from repro.core.mdl import binary, compiled, text
    from repro.core.translation.logic import TranslationLogic
    from repro.network import aio
    from repro.protocols.common import LegacyService
    from repro.protocols.upnp.legacy import UPnPDevice
    from repro.runtime import live
    from repro.runtime.aio_live import AsyncShardRouter, AsyncWorkerLoop

    def patch(owner: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        setattr(owner, attr, make(getattr(owner, attr)))

    # Every callback the event loop runs: asyncio's own cost (selector
    # events, transports, streams, TCP connection tasks) is this span's
    # self time.
    patch(asyncio.events.Handle, "_run", lambda fn: tracer.wrap("network.loop", fn))
    patch(aio._UdpProtocol, "datagram_received",
          lambda fn: tracer.wrap("network.recv", fn, new_datagram=True))
    net = aio.AsyncSocketNetwork
    patch(net, "send", lambda fn: tracer.wrap("network.send", fn))
    patch(net, "bind_endpoint", lambda fn: tracer.wrap("network.bind_endpoint", fn))
    patch(net, "unbind_endpoint", lambda fn: tracer.wrap("network.unbind_endpoint", fn))

    patch(AsyncShardRouter, "on_datagram", lambda fn: tracer.wrap("runtime.router.on_datagram", fn))
    patch(live._LoopForwarder, "on_datagram",
          lambda fn: tracer.wrap("runtime.forwarder.on_datagram", fn))
    patch(AsyncWorkerLoop, "post", tracer.wrap_post)

    patch(AutomataEngine, "on_datagram", lambda fn: tracer.wrap("engine.on_datagram", fn))
    patch(AutomataEngine, "classify", lambda fn: tracer.wrap("engine.classify", fn))
    patch(AutomataEngine, "dispatch", lambda fn: tracer.wrap("engine.dispatch", fn))
    patch(TranslationLogic, "apply", lambda fn: tracer.wrap("translation.apply", fn))

    for cls, is_compiled in (
        (compiled.CompiledBinaryParser, True),
        (compiled.CompiledTextParser, True),
        (binary.BinaryMessageParser, False),
        (text.TextMessageParser, False),
    ):
        patch(cls, "parse", lambda fn, c=is_compiled: tracer.wrap_codec("mdl.parse", fn, c))
    for cls, is_compiled in (
        (compiled.CompiledBinaryComposer, True),
        (compiled.CompiledTextComposer, True),
        (binary.BinaryMessageComposer, False),
        (text.TextMessageComposer, False),
    ):
        patch(cls, "compose", lambda fn, c=is_compiled: tracer.wrap_codec("mdl.compose", fn, c))

    patch(LegacyService, "on_datagram", lambda fn: tracer.wrap_fold("protocols.service", fn))
    patch(UPnPDevice, "on_datagram", lambda fn: tracer.wrap_fold("protocols.service", fn))
