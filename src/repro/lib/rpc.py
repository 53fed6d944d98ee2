"""The ``rpc`` library: remote procedure calls over the restricted socket.

"Communication between remote processes can also use ... RPCs, as this is
the most common paradigm for distributed applications.  Communications use
the sandboxed socket layer.  Errors (timeouts) are reported to the caller."

The service-side object is :class:`RpcService`: it registers named handlers
and dispatches incoming ``rpc`` messages addressed to its endpoint.  The
client side offers two calling conventions mirroring the paper's API:

* ``call`` — *synchronous* from the application's point of view: the
  returned :class:`~repro.sim.futures.Future` is meant to be ``yield``-ed by
  the calling coroutine, which resumes with the remote return value (or has
  :class:`RpcTimeout`/:class:`RpcError` raised at the yield point);
* ``a_call`` — *asynchronous*: the future is observed via callbacks (or
  simply ignored, fire-and-forget);
* ``send`` — *one-way*: the handler runs at the callee and nothing answers,
  not even an error, so a lost or refused message is the caller's to notice.

``call`` and ``a_call`` take per-call ``timeout`` and ``retries``.  Retries reuse the same call
identifier, so a late reply to an earlier attempt still completes the call
(at-least-once, idempotent-handler semantics — exactly what UDP RPC gives
the original system).  All traffic flows through the
:class:`~repro.lib.sbsocket.RestrictedSocket`, never the raw network, so
socket policies apply uniformly to RPC traffic.

The service learns how long its peers take to answer, with TCP's
estimator (RFC 6298, Jacobson/Karels): every reply to a call answered on its
*first* attempt is one round-trip sample (Karn's rule: after a
retransmission the reply may answer either attempt, so it is never
sampled).  Each peer host gets a smoothed round trip of its own; a host's
first sample also feeds one service-wide smoothed round trip and variation,
the estimate for a host not heard from yet.  The service publishes the
retransmission timeouts they give in ``rto`` (host ip -> seconds) and
``rto_default`` (any other host; ``inf`` until two hosts answered), and keeps
nothing else per host: a host's smoothed round trip is its ``rto`` less
``RTO_GRAIN``.  Callers choose whether to wait that long: a call's
``timeout`` is what it was given.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Dict, Optional

from repro.lib.sbsocket import RestrictedSocket, SocketRestrictionError
from repro.lib.serializer import _approx_size, envelope_size
from repro.net.address import Address, NodeRef
from repro.net.message import Message
from repro.sim.events_api import Events
from repro.sim.futures import Future, FutureState
from repro.sim.kernel import ScheduledEvent
from repro.sim.process import Process


#: no retransmission timeout is shorter (seconds): two nodes of one host
#: answer each other in well under a millisecond
RTO_FLOOR = 0.2
#: the margin over a heard-from host's smoothed round trip (seconds; the
#: testbeds fix a host pair's delay, so it covers no variation), and the
#: least margin for a host not heard from
RTO_GRAIN = 0.05


class RpcError(Exception):
    """A remote handler raised, the method is unknown, or sending failed."""


class RpcTimeout(RpcError):
    """The call received no reply within its timeout (after all retries)."""


@dataclass(slots=True)
class RpcStats:
    """Per-service counters (exposed to the daemon and to tests)."""

    calls_sent: int = 0
    calls_received: int = 0
    replies_sent: int = 0
    replies_received: int = 0
    retries: int = 0
    timeouts: int = 0
    remote_errors: int = 0
    send_failures: int = 0


#: payload keys — kept short since they travel in every RPC message
_CALL, _REPLY, _SEND = "call", "reply", "send"
_PENDING = FutureState.PENDING
_INFINITY = float("inf")
#: Wire sizes of the three envelope shapes with their per-message slots empty:
#: a message's size is its shape's constant plus the sizes of what fills the
#: slots, computed once per call or reply instead of re-walked on every send.
_CALL_SIZE = envelope_size({"rpc": _CALL, "id": None, "method": "", "args": None})
_OK_SIZE = envelope_size({"rpc": _REPLY, "id": None, "ok": True, "value": None})
_ERROR_SIZE = envelope_size({"rpc": _REPLY, "id": None, "ok": False, "error": ""})
_SEND_SIZE = envelope_size({"rpc": _SEND, "method": "", "args": None})


class RpcService:
    """Bidirectional RPC endpoint bound to one restricted socket.

    Parameters
    ----------
    socket:
        The instance's :class:`RestrictedSocket`; the service starts
        listening on it immediately.
    events:
        The instance's :class:`Events` API, used to run generator handlers
        as coroutines and to track timeout timers on the app context.

    A call's ``retries`` counts *re*-transmissions: ``retries=2`` means up
    to three attempts, each waiting ``timeout`` seconds for the reply.

    The round-trip estimate (see the module docstring) is read through
    ``rto`` and ``rto_default``.  A heard-from host's timeout is
    ``max(RTO_FLOOR, srtt + RTO_GRAIN)``, so a smoothed round trip below
    ``RTO_FLOOR - RTO_GRAIN`` is taken as that: the testbeds give every host
    pair a fixed delay, and the spread *between* hosts is no variation of
    one host's round trip.  Any other host's is ``max(RTO_FLOOR, srtt +
    max(RTO_GRAIN, 4 * rttvar))`` of the service-wide pair, which is that
    spread; one host shows none, so until a second host answers, any other
    host is given the caller's whole timeout.
    """

    __slots__ = ("socket", "events", "sim", "_stats", "_handlers", "_pending", "_call_ids",
                 "_metrics", "_tracer", "rto", "rto_default", "_srtt", "_rttvar")

    def __init__(self, socket: RestrictedSocket, events: Events):
        self.socket = socket
        self.events = events
        self.sim = events.sim
        # Per-instance counters materialise on first touch (services that
        # only ever answer pings pay nothing until then).
        self._stats: Optional[RpcStats] = None
        #: application handlers (the built-ins live in :meth:`_builtin`, not
        #: in every instance's table)
        self._handlers: Dict[str, Callable[..., Any]] = {}
        #: call_id -> in-flight _PendingCall
        self._pending: Dict[int, "_PendingCall"] = {}
        # Call ids are per-service: uniqueness is only needed to match replies
        # in our own _pending table, and a process-wide counter would leak
        # nondeterministic payload sizes across co-hosted seeded simulations.
        self._call_ids = 0
        #: host ip -> retransmission timeout (seconds) of the hosts sampled
        self.rto: Dict[str, float] = {}
        #: the timeout for a host not in ``rto``: infinite until two hosts
        #: answered
        self.rto_default = _INFINITY
        #: smoothed round trip and variation over the hosts' first samples
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        # Observability (repro.obs): the tracer is discovered from the
        # simulator; the per-job metrics registry is bound by the daemon at
        # spawn (the service itself does not know its job).  Both stay None
        # unless explicitly enabled — the hot paths pay one pointer test.
        self._metrics = None
        obs = getattr(events.sim, "_obs", None)
        self._tracer = obs.tracer if obs is not None else None
        socket.listen(self._on_message)
        events.context.add_cleanup(self._cancel_pending)

    def bind_metrics(self, registry) -> None:
        """Attach the job's metrics registry (wired by ``Splayd.spawn``)."""
        self._metrics = registry

    @property
    def stats(self) -> RpcStats:
        if self._stats is None:
            self._stats = RpcStats()
        return self._stats

    # ------------------------------------------------------------ server side
    def register(self, name: str, handler: Callable[..., Any]) -> None:
        """Expose ``handler`` under ``name``; generators run as coroutines."""
        self._handlers[name] = handler

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if type(payload) is not dict:
            return  # not RPC traffic; other listeners may handle it
        rpc = payload.get("rpc")
        if rpc == _CALL:
            self._serve_call(message, payload, message.src)
        elif rpc == _REPLY:
            self._accept_reply(payload, message.src.ip)
        elif rpc == _SEND:
            self._serve_call(message, payload, None)

    def _serve_call(self, message: Message, payload: dict,
                    reply_to: Optional[Address]) -> None:
        """Run the handler; answer ``reply_to`` (``None``: a one-way call)."""
        stats = self._stats or self.stats  # the property allocates
        stats.calls_received += 1
        call_id = payload.get("id")
        method = payload.get("method", "")
        args = payload.get("args", [])
        handler = self._handlers.get(method) or self._builtin(method)
        if handler is None:
            self._send_reply(reply_to, method, call_id, ok=False,
                             error=f"unknown method: {method}")
            return
        try:
            result = handler(*args)
        except Exception as exc:  # noqa: BLE001 - shipped back to the caller
            self._handler_raised(method, exc)
            self._send_reply(reply_to, method, call_id, ok=False, error=repr(exc))
            return
        tracer = self._tracer
        if type(result) is GeneratorType:
            # Coroutine handler: run it on the app context, reply when done.
            # The reply is its done-callback from the start, so a handler
            # failing in its first (in-place) step is an answer, not an
            # unobserved failure.
            started = self.sim._now
            context = self.events.context
            process = Process(self.sim, result, name=f"{context.name}.rpc.{method}")

            def _finish(fut: Future) -> None:
                if tracer is not None:
                    tracer.add(self.socket.local.ip, f"serve.{method}",
                               started, self.sim.now - started, cat="rpc")
                if fut.state is FutureState.DONE:
                    self._send_reply(reply_to, method, call_id, ok=True,
                                     value=fut.result())
                elif fut.state is FutureState.FAILED:
                    self._send_reply(reply_to, method, call_id, ok=False,
                                     error=repr(fut.exception()))
                # Cancelled (instance killed): no reply — the caller times out,
                # exactly as with a crashed remote process.

            process.done.add_done_callback(_finish)
            context.track_process(process.start())
        else:
            if tracer is not None:
                # Synchronous handler: zero-duration span at the serve instant.
                tracer.add(self.socket.local.ip, f"serve.{method}",
                           self.sim.now, 0.0, cat="rpc")
            self._send_reply(reply_to, method, call_id, ok=True, value=result)

    def _builtin(self, method: str) -> Optional[Callable[..., Any]]:
        """The handler every service has unless the application registered the name."""
        return _pong if method == "__ping__" else None

    def _handler_raised(self, method: str, exc: Exception) -> None:
        """A handler raised when called: a bug, not a remote outcome.

        The caller still gets an :class:`RpcError`, but the error is also
        counted where a failing message handler is (``handler_errors`` of the
        network's stats), so a run cannot pass a broken handler off as a dead
        node.  A coroutine handler that fails *after* it started (a nested
        call timed out, a transfer was aborted, a lookup found no route)
        reports that outcome to its caller and is not counted.
        """
        self.socket.network.stats.record_error(f"{self.socket.local} rpc {method}: {exc!r}")

    def _send_reply(self, dst: Address, method: str, call_id: Any, ok: bool,
                    value: Any = None, error: Optional[str] = None) -> None:
        if dst is None:
            return  # a one-way call (``send``) is never answered
        # The caller chose the id: anything but an int is sized the long way.
        size = len(str(call_id)) if type(call_id) is int else _approx_size(call_id)
        if ok:
            payload = {"rpc": _REPLY, "id": call_id, "ok": True, "value": value}
            size += _OK_SIZE + _approx_size(value)
        else:
            payload = {"rpc": _REPLY, "id": call_id, "ok": False, "error": error}
            size += _ERROR_SIZE + len(error)
        stats = self._stats  # allocated by _serve_call, the only way here
        try:
            self.socket.send(dst, payload, size)
            stats.replies_sent += 1
        except SocketRestrictionError:
            # The instance died or hit its budget mid-reply; the caller will
            # observe a timeout, as with any crashed peer.
            stats.send_failures += 1
            return
        if self._metrics is not None:
            self._metrics.inc(f"rpc.bytes.{method}.reply", size)

    # ------------------------------------------------------------ client side
    def a_call(self, dst: "Address | NodeRef | dict | str", method: str, *args: Any,
               timeout: float = 3.0, retries: int = 1) -> Future:
        """Asynchronous variant of :meth:`call` (observe the future, or ignore it)."""
        attempts = retries + 1
        self._call_ids = call_id = self._call_ids + 1
        result = Future()
        args = list(args)
        payload = {"rpc": _CALL, "id": call_id, "method": method, "args": args}
        size = _CALL_SIZE + len(str(call_id)) + len(method) + _approx_size(args)
        _PendingCall(self, dst, method, payload, size, result,
                     timeout, attempts, call_id).attempt()
        return result

    #: ``call`` is the *synchronous* convention from the application's point
    #: of view: the returned future is meant to be ``yield``-ed, so the
    #: calling coroutine resumes with the remote return value (or has
    #: :class:`RpcTimeout`/:class:`RpcError` raised at the yield point).  It
    #: is the very same implementation as :meth:`a_call` — a forwarding
    #: wrapper here cost a measurable slice of every RPC at 10k nodes.
    call = a_call

    def send(self, dst: "Address | NodeRef | dict | str", method: str, *args: Any) -> None:
        """One-way call: ``method`` runs at ``dst``, and no reply, result or
        error comes back.  The message carries no call id."""
        args = list(args)
        stats = self._stats or self.stats  # the property allocates
        stats.calls_sent += 1
        size = _SEND_SIZE + len(method) + _approx_size(args)
        try:
            self.socket.send(dst, {"rpc": _SEND, "method": method, "args": args}, size)
        except SocketRestrictionError:
            stats.send_failures += 1
            return
        if self._metrics is not None:
            self._metrics.inc(f"rpc.bytes.{method}", size)

    def ping(self, dst: "Address | NodeRef | dict | str", timeout: float = 3.0) -> Future:
        """Liveness probe: the future completes with ``True``/``False`` (never raises)."""
        result = Future(name="rpc.ping")
        inner = self.a_call(dst, "__ping__", timeout=timeout, retries=0)
        inner.add_done_callback(
            lambda fut: result.set_result(fut.state is FutureState.DONE))
        return result

    def _accept_reply(self, payload: dict, host: str) -> None:
        pending = self._pending.pop(payload.get("id"), None)
        if pending is None:
            return  # duplicate reply after a retry already completed the call
        if pending.attempts_left == pending.attempts - 1:
            # Answered on the first attempt: one round-trip sample (Karn's
            # rule keeps retransmitted calls out).
            sample = self.sim._now - pending.sent_at
            rto = self.rto.get(host)
            if rto is None:
                # The first reply of a host is also a sample of the round
                # trip to a host not heard from before: the service-wide pair.
                # One host tells nothing of the spread between hosts, so
                # rto_default stays infinite until a second one answers.
                srtt = sample
                if self._srtt is None:
                    self._srtt, self._rttvar = sample, 0.5 * sample
                else:
                    self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
                    self._srtt = 0.875 * self._srtt + 0.125 * sample
                    self.rto_default = max(
                        RTO_FLOOR, self._srtt + max(RTO_GRAIN, 4.0 * self._rttvar))
            else:
                srtt = 0.875 * (rto - RTO_GRAIN) + 0.125 * sample
            self.rto[host] = max(RTO_FLOOR, srtt + RTO_GRAIN)
        future, timer = pending.result, pending.timer
        # Drop the event back-reference before cancelling: the timer's
        # callback is a bound method holding this _PendingCall, so keeping
        # ``.timer`` set would close a call <-> event cycle that only the
        # cyclic collector frees; broken, reference counting frees both.
        pending.timer = None
        if timer is not None:
            timer.cancel()
        stats = self._stats  # allocated when the call was sent
        stats.replies_received += 1
        if self._metrics is not None or self._tracer is not None:
            self._observe_round_trip(pending)
        if payload.get("ok"):
            future.set_result(payload.get("value"))
        else:
            stats.remote_errors += 1
            future.set_exception(RpcError(str(payload.get("error"))))

    def _observe_round_trip(self, pending: "_PendingCall") -> None:
        """Latency histogram + client span for one completed call (cold path)."""
        elapsed = self.sim._now - pending.sent_at
        if self._metrics is not None:
            self._metrics.observe(f"rpc.latency_s.{pending.method}", elapsed)
        tracer = self._tracer
        if tracer is not None:
            args = ({"issued_by": pending.issued_by}
                    if pending.issued_by is not None else None)
            tracer.add(self.socket.local.ip, f"rpc.{pending.method}",
                       pending.sent_at, elapsed, cat="rpc", args=args)

    def _cancel_pending(self) -> None:
        """Instance teardown: cancel timers and outstanding calls, and let
        the handlers (bound methods of the application) go."""
        self._handlers.clear()
        pending, self._pending = self._pending, {}
        for call in pending.values():
            timer, call.timer = call.timer, None
            if timer is not None:
                timer.cancel()
            call.result.cancel()

    @property
    def pending_calls(self) -> int:
        return len(self._pending)


class _PendingCall:
    """One in-flight client call: retry/timeout state without per-call closures.

    ``a_call`` used to close over a state dict and two nested functions;
    building those per call dominated the RPC client path at 10k nodes.  A
    slotted object with two bound-method callbacks carries the same state.
    """

    __slots__ = ("service", "dst", "method", "payload", "size", "result",
                 "timeout", "attempts", "attempts_left", "call_id", "timer",
                 "sent_at", "issued_by")

    def __init__(self, service: RpcService, dst: Any, method: str, payload: dict,
                 size: int, result: Future, timeout: float, attempts: int, call_id: int):
        self.service = service
        self.dst = dst
        self.method = method
        self.payload = payload
        #: wire size of ``payload``, the same for every retransmission
        self.size = size
        self.result = result
        self.timeout = timeout
        self.attempts = attempts
        self.attempts_left = attempts
        self.call_id = call_id
        #: current timeout timer (replaced on every attempt)
        self.timer: Optional[ScheduledEvent] = None
        #: first-attempt issue time — round-trip latency is measured from
        #: here, so retries lengthen (not reset) the observed latency
        self.sent_at = service.sim._now
        # Provenance of the issuing event (tracing only: string formatting
        # per call is not free, so it stays None when the tracer is off).
        tracer = service._tracer
        self.issued_by = tracer.current_label() if tracer is not None else None

    def attempt(self) -> None:
        result = self.result
        if result._state is not _PENDING:
            return
        service = self.service
        stats = service._stats or service.stats  # the property allocates
        self.attempts_left -= 1
        if self.attempts_left < self.attempts - 1:
            stats.retries += 1
        stats.calls_sent += 1
        try:
            service.socket.send(self.dst, self.payload, self.size)
        except SocketRestrictionError as exc:
            stats.send_failures += 1
            service._pending.pop(self.call_id, None)
            result.set_exception(RpcError(f"{self.method} to {self.dst}: {exc}"))
            return
        self.timer = service.sim.schedule(self.timeout, self.on_timeout)
        service._pending[self.call_id] = self
        if service._metrics is not None:
            service._metrics.inc(f"rpc.bytes.{self.method}", self.size)

    def on_timeout(self) -> None:
        # The firing event holds our bound method; clear the back-reference
        # so the call <-> event cycle breaks and reference counting frees the
        # event once it has fired (attempt() installs a fresh timer on retry).
        self.timer = None
        result = self.result
        if result._state is not _PENDING:
            return
        if self.attempts_left > 0:
            self.attempt()
            return
        service = self.service
        service._stats.timeouts += 1
        service._pending.pop(self.call_id, None)
        if service._metrics is not None:
            service._metrics.inc(f"rpc.timeout.{self.method}")
        tracer = service._tracer
        if tracer is not None:
            tracer.add(service.socket.local.ip, f"rpc.{self.method}.timeout",
                       self.sent_at, service.sim._now - self.sent_at, cat="rpc",
                       args=({"issued_by": self.issued_by}
                             if self.issued_by is not None else None))
        result.set_exception(RpcTimeout(
            f"{self.method} to {self.dst} timed out after "
            f"{service.sim._now - self.sent_at:.4g}s "
            f"({self.attempts} x {self.timeout:.4g}s)"))


def _pong() -> bool:
    return True

