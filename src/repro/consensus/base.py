"""The sans-I/O contract between protocols and their runtime.

A consensus protocol is a plain state machine: it receives events
(``propose``, ``on_message``, timer callbacks) and produces effects
through its :class:`Env` (send / broadcast / set a timer / deliver a
command to the application).  Nothing in a protocol touches sockets,
clocks, or threads, so the *same object* runs under the deterministic
simulator (:mod:`repro.sim`) and the asyncio runtime
(:mod:`repro.runtime`).
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Callable, Optional

from repro.consensus.commands import Command


def classic_quorum_size(n: int) -> int:
    """Classic (majority) quorum: ``floor(N/2) + 1``."""
    if n < 1:
        raise ValueError("need at least one node")
    return n // 2 + 1


def fast_quorum_size(n: int) -> int:
    """Fast Paxos / Generalized Paxos fast quorum: ``floor(2N/3) + 1``."""
    if n < 1:
        raise ValueError("need at least one node")
    return (2 * n) // 3 + 1


def epaxos_fast_quorum_size(n: int) -> int:
    """EPaxos fast quorum: ``F + floor((F+1)/2)`` where ``N = 2F + 1``.

    For N <= 5 this equals the classic majority (the 'optimized EPaxos'
    quorum), which is why EPaxos tracks M2Paxos up to 5-7 nodes in the
    paper's Figure 3 and then falls behind.
    """
    if n < 1:
        raise ValueError("need at least one node")
    f = (n - 1) // 2
    return f + (f + 1) // 2


class Message:
    """Base class for protocol messages.

    Subclasses are dataclasses; :meth:`size_bytes` derives an
    approximate wire size from the fields so the network model can
    charge transmission time (this is how dependency metadata makes
    EPaxos/GenPaxos messages bigger, one of the effects the paper
    measures).  A message and the containers it holds are immutable
    once handed to ``env.send``: its size, its frame size and its
    commands' encoded bodies are each computed once and kept on the
    object.
    """

    TAG_BYTES = 4

    def size_bytes(self) -> int:
        # Cached: messages are immutable and broadcast to N receivers,
        # so the recursive estimate runs once per message, not per send.
        cached = self.__dict__.get("_cached_size")
        if cached is None:
            cached = self.TAG_BYTES + _estimate_size(self)
            object.__setattr__(self, "_cached_size", cached)
        return cached


_SIZERS: dict[type, object] = {}
"""Exact type -> how to size a value of it: an ``int`` (fixed-size
scalars) or a callable.  :func:`_sizer_for` fills it the first time a
type is seen, so the ``isinstance`` ladder runs once per class instead
of once per value."""


def _estimate_size(value: object) -> int:
    """Recursive size estimate for message payloads."""
    sizer = _SIZERS.get(type(value))
    if sizer is None:
        sizer = _sizer_for(type(value))
    return sizer if sizer.__class__ is int else sizer(value)


def _size_items(values, total: int = 4) -> int:
    """``total`` (a collection's 4-byte length prefix) plus the
    estimate of every element of ``values``."""
    get = _SIZERS.get
    for value in values:
        sizer = get(type(value))
        if sizer is None:
            sizer = _sizer_for(type(value))
        total += sizer if sizer.__class__ is int else sizer(value)
    return total


def _sizer_for(cls: type) -> object:
    """Resolve and remember the sizer of ``cls``: the first test that
    matches wins, in the order the estimate has always applied them, so
    a subclass (a ``Command`` subclass, a named tuple) is sized as its
    base is."""
    sizer: object = 8  # numbers, and anything unrecognised
    if cls is type(None) or issubclass(cls, bool):
        sizer = 1
    elif issubclass(cls, (int, float)):
        pass
    elif issubclass(cls, str):
        sizer = len
    elif issubclass(cls, Command):
        sizer = cls.size_bytes
    elif issubclass(cls, (list, tuple, set, frozenset)):
        sizer = _size_items
    elif issubclass(cls, dict):
        sizer = lambda value: _size_items(value.values(), _size_items(value))  # noqa: E731
    elif hasattr(cls, "__dataclass_fields__"):
        names = tuple(f.name for f in fields(cls))
        sizer = lambda value: _size_items(  # noqa: E731
            [getattr(value, name) for name in names], 0
        )
    _SIZERS[cls] = sizer
    return sizer


@dataclass(frozen=True)
class ProtocolCosts:
    """CPU cost parameters charged by the simulator per message.

    ``base_cost``: CPU seconds to parse + handle one message (on the
    latency-critical path).
    ``serial_fraction``: share of CPU work executed under the node's
    global lock (see :mod:`repro.sim.cpu`).  The paper attributes
    EPaxos's poor core scaling to synchronisation on shared dependency
    metadata -- expressed here as a high serial fraction.
    ``per_conflict_cost``: extra CPU per tracked dependency (EPaxos and
    Generalized Paxos pay this; M2Paxos and Multi-Paxos do not).
    ``propose_cost``: per-command client-handling / coordination work
    charged at the proposer as CPU *occupancy* (it loads the cores and
    so caps throughput, but is pipelined off the latency path).  This
    is the term that makes multi-leader protocols scale with N: it is
    the only per-command cost that divides across nodes.
    ``send_cost``: CPU occupancy per message sent unbatched
    (serialisation + one syscall each).
    ``batched_send_cost``: CPU occupancy per *coalesced write* when
    batching is on -- the outbox flushes one write per destination per
    event, and most of its overhead (event-loop wakeup, context) is
    already inside ``base_cost``, so only a small residual is charged.

    The absolute values are calibrated for the simulator, not for any
    particular hardware: only ratios between protocols and the shape of
    the resulting curves are meaningful (see DESIGN.md, Substitutions).
    """

    base_cost: float = 160e-6
    serial_fraction: float = 0.05
    per_conflict_cost: float = 0.0
    propose_cost: float = 8e-3
    propose_serial_fraction: float = 0.02
    send_cost: float = 4e-6
    batched_send_cost: float = 0.25e-6
    # Extra CPU per additional command carried by one multi-command
    # message (batched Accept/Decide rounds): handling a batch is
    # cheaper than handling its commands separately, but not free.
    # Zero (the default) keeps single-command timing bit-identical.
    per_command_cost: float = 0.0


class TimerHandle(ABC):
    """Cancellable timer returned by :meth:`Env.set_timer_at`."""

    @abstractmethod
    def cancel(self) -> None: ...


# ----------------------------------------------------------------------
# Storage interface
# ----------------------------------------------------------------------


class StorageFull(RuntimeError):
    """The node's durable store cannot accept more data.

    Raised by :meth:`Storage.append` (modelled capacity) or by a commit
    flush (real ``ENOSPC`` / write failure).  The hosting node treats it
    as fail-stop: the event's outbox is discarded -- a node that cannot
    persist must not acknowledge -- and the node crashes."""


@dataclass
class Recovered:
    """What a storage scan found: the newest valid snapshot payload (or
    ``None``) plus the log records appended after it, in log order."""

    snapshot: Optional[bytes]
    records: "list[tuple[int, bytes]]"

    @property
    def empty(self) -> bool:
        return self.snapshot is None and not self.records


class Storage(ABC):
    """Durable-log contract between an :class:`Env` and a node's disk.

    The env calls :meth:`append` while a protocol handler runs (records
    buffer in memory) and :meth:`commit` when the event ends, passing a
    ``release`` closure holding the event's buffered sends and deferred
    deliveries.  The storage decides *when* the closure runs: after a
    synchronous flush+fsync (``fsync_wait == 0``), or later from a
    group-commit timer that fsyncs many events' records with one
    syscall.  Because every effect of the event is inside ``release``,
    persist-before-ack falls out of the env's outbox discipline -- no
    protocol code schedules I/O.

    Implementations: :class:`NullStorage` (no durability, today's
    default), :class:`repro.storage.MemStorage` (deterministic, for
    sim/chaos byte-identical checks), :class:`repro.storage.DiskStorage`
    (real files + fsync)."""

    durable: bool = True
    """Whether a restart can rebuild protocol state via :meth:`recover`."""

    @property
    def defers(self) -> bool:
        """True when commits may run their release later (group-commit)."""
        return False

    @property
    def dirty(self) -> bool:
        """True when records are buffered but not yet persisted."""
        return False

    @abstractmethod
    def append(self, rtype: int, payload: bytes) -> None:
        """Buffer one log record for the current event.  May raise
        :class:`StorageFull`."""

    @abstractmethod
    def commit(self, release: Callable[[], None]) -> None:
        """Persist buffered records, then run ``release`` (immediately,
        or from a group-commit timer).  ``release`` must run exactly
        once unless the node crashes first."""

    @abstractmethod
    def recover(self) -> Recovered:
        """Scan the store: newest valid snapshot + log tail after it."""

    @abstractmethod
    def snapshot(self, payload: bytes) -> None:
        """Persist ``payload`` as a snapshot covering every record
        flushed so far, then truncate the covered log."""

    def attach(self, env: "Env", snapshot_source: Callable[[], Optional[bytes]]) -> None:
        """Wire the hosting env (timer scheduling, observability) and a
        callable yielding the bound protocol's snapshot payload."""

    def discard_pending(self) -> None:
        """Drop buffered records and queued releases (crash semantics:
        whatever was not fsynced is gone)."""

    def wipe(self) -> None:
        """Erase the store entirely (amnesia restart)."""

    def close(self) -> None:
        """Release OS resources (file handles)."""


class NullStorage(Storage):
    """No durability: appends vanish, commits release immediately.

    This is the seed behaviour -- with it bound (the default), event
    ordering and decision logs are byte-identical to a build without a
    storage layer."""

    durable = False

    def append(self, rtype: int, payload: bytes) -> None:
        pass

    def commit(self, release: Callable[[], None]) -> None:
        release()

    def recover(self) -> Recovered:
        return Recovered(None, [])

    def snapshot(self, payload: bytes) -> None:
        pass


NULL_STORAGE = NullStorage()
"""Shared default: stateless, so one instance serves every env."""


FlushHook = Callable[[int, "list[tuple[int, Message]]", "dict[int, list[Message]]"], None]


class EnvObserver:
    """Observability hook contract (all methods optional no-ops).

    An observer attached with :meth:`Env.add_observer` sees the full
    event stream of one node, substrate-independently: proposals,
    handler entry/exit (with measured Python CPU), outbox flushes,
    application deliveries, and the protocols' structured *notes*
    (``path`` / ``quorum`` / ``decide`` / ``epoch_bump`` /
    ``owner_handoff`` / ``outbox_depth``).  The span layer in
    :mod:`repro.obs` is built entirely on this interface.

    Two class attributes let an observer *decline* traffic it would
    ignore, because at saturation the cost of observability is
    dominated by the sheer number of observer calls per command, not
    by what the hooks do:

    - ``note_kinds``: the set of note kinds this observer consumes, or
      ``None`` for all of them.  :meth:`Env.observe` dispatches each
      kind only to observers subscribed to it, so a high-frequency
      note an observer would discard costs it nothing.
    - ``wants_handler_timing``: when no attached observer wants it,
      :meth:`Dispatcher.on_message` skips the enter/exit bracket and
      its two clock reads entirely.
    - ``deliver_scope``: ``"all"`` sees every application delivery;
      ``"proposer"`` only deliveries of commands this node proposed
      (the client-visible completions).  An observer that derives
      per-node delivery totals by other means (e.g. pulling the
      substrate's own delivery log at sampling time) declares
      ``"proposer"`` and skips two thirds of the fan-out.
    """

    note_kinds: Optional[frozenset] = None
    wants_handler_timing: bool = True
    deliver_scope: str = "all"

    def on_propose(self, node_id: int, command: Command) -> None: ...

    def on_handler_enter(
        self, node_id: int, sender: int, message: "Message"
    ) -> None: ...

    def on_handler_exit(
        self, node_id: int, sender: int, message: "Message", cpu_seconds: float
    ) -> None: ...

    def on_flush(
        self,
        node_id: int,
        queued: "list[tuple[int, Message]]",
        batches: "dict[int, list[Message]]",
    ) -> None: ...

    def on_deliver(self, node_id: int, command: Command) -> None: ...

    def on_note(self, node_id: int, kind: str, fields: dict) -> None: ...


class Env(ABC):
    """Effects interface a protocol uses to interact with the world.

    Sends are collected in an **outbox** while a protocol event (one
    message handler, proposal, or timer callback) is running, and
    flushed as per-destination batches when the outermost event ends.
    Substrates implement :meth:`_transmit` (one message, immediately)
    and may override :meth:`_flush` to exploit the batch structure
    (amortised CPU charging in the simulator, coalesced writes in the
    asyncio runtime).  Outside any event -- tests poking a protocol
    directly -- ``send`` degenerates to an immediate ``_transmit``, so
    the protocol's observable behaviour is unchanged.
    """

    node_id: int
    n_nodes: int

    storage: Storage = NULL_STORAGE
    """The node's durable store; hosting nodes replace this at boot."""

    # Lazily materialised per instance: Env implementations do not all
    # call ``super().__init__()``, so plain class attributes provide the
    # defaults until the first event begins.
    _event_depth: int = 0
    _outbox: Optional[list[tuple[int, Message]]] = None
    _held: Optional[list[tuple[int, Message]]] = None  # see run_releases
    _flush_hooks: Optional[list[FlushHook]] = None
    _observers: Optional[list[EnvObserver]] = None
    _pending_deliveries: Optional[list[Command]] = None
    # Derived observer routing, rebuilt whenever the observer list
    # changes: note kind -> subscribed observers (lazily per kind), and
    # the subset of observers that want handler CPU timing.
    _note_subs: Optional[dict] = None
    _timing_observers: Optional[list[EnvObserver]] = None
    _deliver_all: Optional[list[EnvObserver]] = None
    _deliver_proposer: Optional[list[EnvObserver]] = None

    @property
    def nodes(self) -> range:
        """All node identifiers, ``0 .. n_nodes - 1``."""
        return range(self.n_nodes)

    def send(self, dst: int, message: Message) -> None:
        """Send ``message`` to node ``dst`` (may be ``self.node_id``).

        Buffered in the outbox while an event is running; transmitted
        immediately otherwise."""
        if self._event_depth > 0:
            self._outbox.append((dst, message))
        else:
            self._transmit(dst, message)

    def broadcast(self, message: Message, include_self: bool = True) -> None:
        """Send ``message`` to every node ("to all p_k in Pi")."""
        for dst in self.nodes:
            if include_self or dst != self.node_id:
                self.send(dst, message)

    # ------------------------------------------------------------------
    # Outbox pipeline
    # ------------------------------------------------------------------

    def begin_event(self) -> None:
        """Enter a protocol event: buffer sends until :meth:`end_event`.

        Events nest (a handler may deliver a command whose listener
        proposes synchronously); only the outermost exit flushes."""
        if self._outbox is None:
            self._outbox = []
        self._event_depth += 1

    def end_event(self, discard: bool = False) -> None:
        """Leave a protocol event; commit + flush the outbox at depth
        zero.

        The event's effects (buffered sends, deliveries deferred by a
        group-committing storage) are wrapped in a ``release`` closure
        handed to :meth:`Storage.commit`, which runs it once the event's
        log records are durable -- immediately for :class:`NullStorage`
        and synchronous stores, later from a group-commit timer
        otherwise.  This is persist-before-ack for every protocol, with
        no storage code in any handler.

        ``discard=True`` (the event failed with :class:`StorageFull`)
        drops the outbox and pending records instead: a node that could
        not persist must not acknowledge."""
        self._event_depth -= 1
        if self._event_depth > 0:
            return
        # Detach unconditionally: the release closure must own its
        # delivery list, never alias the live buffer a later event
        # appends to.
        deliveries = self._pending_deliveries
        self._pending_deliveries = None
        storage = self.storage
        if discard:
            if self._outbox:
                self._outbox.clear()
            storage.discard_pending()
            return
        queued = self._outbox
        if not queued and not deliveries and not storage.dirty:
            return
        if queued:
            self._outbox = []
        else:
            queued = []

        def release() -> None:
            if deliveries:
                for command in deliveries:
                    self._do_deliver(command)
            if not queued:
                return
            if self._held is not None:
                self._held += queued
            else:
                self._flush_queued(queued)

        storage.commit(release)

    def run_releases(self, releases: "list[Callable[[], None]]") -> None:
        """Run one group-commit window's ``releases`` in commit order,
        holding their sends, then flush the concatenation once: every
        delivery runs before any send, per-destination issue order is
        kept, and a raising release leaves nothing held."""
        held = self._held = []
        try:
            for release in releases:
                release()
        finally:
            self._held = None
            if held:
                self._flush_queued(held)

    def _flush_queued(self, queued: list[tuple[int, Message]]) -> None:
        batches: dict[int, list[Message]] = {}
        for dst, message in queued:
            batch = batches.get(dst)
            if batch is None:
                batches[dst] = [message]
            else:
                batch.append(message)
        if self._flush_hooks:
            for hook in self._flush_hooks:
                hook(self.node_id, queued, batches)
        if self._observers:
            for observer in self._observers:
                observer.on_flush(self.node_id, queued, batches)
        self._flush(queued, batches)

    def add_flush_hook(self, hook: FlushHook) -> None:
        """Observe every flush: ``hook(node_id, queued, batches)`` with
        ``queued`` the sends in issue order and ``batches`` grouped per
        destination.  This is the single choke point metrics and tracing
        attach to."""
        if self._flush_hooks is None:
            self._flush_hooks = []
        self._flush_hooks.append(hook)

    def remove_flush_hook(self, hook: FlushHook) -> None:
        """Detach a hook added with :meth:`add_flush_hook` (no-op if
        absent, so teardown paths can be unconditional)."""
        if self._flush_hooks and hook in self._flush_hooks:
            self._flush_hooks.remove(hook)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def add_observer(self, observer: EnvObserver) -> None:
        """Attach an :class:`EnvObserver` to this node's event stream."""
        if self._observers is None:
            self._observers = []
        self._observers.append(observer)
        self._observers_changed()

    def remove_observer(self, observer: EnvObserver) -> None:
        if self._observers and observer in self._observers:
            self._observers.remove(observer)
            self._observers_changed()

    def _observers_changed(self) -> None:
        """Rebuild the derived routing after an attach/detach.

        ``getattr`` defaults keep duck-typed observers (tests often
        attach bare objects) on the everything-subscribed behaviour."""
        self._note_subs = None
        timing = [
            o
            for o in self._observers
            if getattr(o, "wants_handler_timing", True)
        ]
        self._timing_observers = timing or None
        self._deliver_all = [
            o
            for o in self._observers
            if getattr(o, "deliver_scope", "all") == "all"
        ]
        proposer = [
            o
            for o in self._observers
            if getattr(o, "deliver_scope", "all") == "proposer"
        ]
        self._deliver_proposer = proposer or None

    def observe(self, kind: str, **fields) -> None:
        """Emit one structured note to the observers subscribed to it.

        This is the channel protocols use to report what generic hooks
        cannot see: decision-path classifications, quorum/decide
        milestones, epoch bumps, ownership handoffs.  Free when no
        observer is attached.  Observers declaring ``note_kinds`` are
        skipped for kinds outside their set -- under saturation most
        note traffic is high-frequency kinds (``decide``, ``quorum``)
        that only the trace layer wants, so the per-kind subscriber
        list keeps live metrics from paying for tracing's appetite."""
        observers = self._observers
        if not observers:
            return
        subs_map = self._note_subs
        if subs_map is None:
            subs_map = self._note_subs = {}
        subs = subs_map.get(kind)
        if subs is None:
            subs = subs_map[kind] = [
                o
                for o in observers
                if (kinds := getattr(o, "note_kinds", None)) is None
                or kind in kinds
            ]
        for observer in subs:
            observer.on_note(self.node_id, kind, fields)

    def observe_propose(self, command: Command) -> None:
        """Called by the hosting node at C-PROPOSE submission time."""
        if self._observers:
            for observer in self._observers:
                observer.on_propose(self.node_id, command)

    @abstractmethod
    def _transmit(self, dst: int, message: Message) -> None:
        """Actually move one message toward ``dst`` (substrate-specific)."""

    def _flush(
        self,
        queued: list[tuple[int, Message]],
        batches: dict[int, list[Message]],
    ) -> None:
        """Emit one event's buffered sends.  The default preserves issue
        order; substrates override to batch per destination."""
        for dst, message in queued:
            self._transmit(dst, message)

    @abstractmethod
    def set_timer_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` at time ``when`` (on :meth:`now`'s clock)
        unless cancelled: the substrate's one timer primitive."""

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` after ``delay`` seconds unless cancelled.
        Both loops compute ``now + delay`` themselves, so this fires at
        the same float a native relative timer would."""
        return self.set_timer_at(self.now() + delay, callback)

    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual under the simulator)."""

    def deliver(self, command: Command) -> None:
        """Hand a decided command to the application (C-DECIDE append).

        Under a group-committing storage the delivery is deferred with
        the event's sends and runs from the commit's release -- the
        application must not observe a decision that a crash could still
        erase.  Otherwise (and outside events) it is immediate."""
        if self._event_depth > 0 and self.storage.defers:
            if self._pending_deliveries is None:
                self._pending_deliveries = []
            self._pending_deliveries.append(command)
            return
        self._do_deliver(command)

    def _do_deliver(self, command: Command) -> None:
        """Observer fan-out + substrate hand-off (shared by both the
        immediate and the deferred-release delivery paths).  Observers
        scoped to proposer deliveries are skipped for the replicated
        copies (see :attr:`EnvObserver.deliver_scope`)."""
        if self._observers:
            for observer in self._deliver_all:
                observer.on_deliver(self.node_id, command)
            proposer_subs = self._deliver_proposer
            if proposer_subs is not None and command.proposer == self.node_id:
                for observer in proposer_subs:
                    observer.on_deliver(self.node_id, command)
        self._deliver(command)

    @abstractmethod
    def _deliver(self, command: Command) -> None:
        """Substrate-specific delivery (append + listener fan-out)."""

    def deliver_read(self, command: Command, result: object) -> None:
        """Hand a locally-served (leased) read result to the application.

        Served reads never enter the decision log: they are answered
        from the owner's already-appended state, and only at the owner,
        so routing them through :meth:`deliver` would make this node's
        delivered sequence diverge from every other node's.  Substrates
        keep a separate read log and listener list; envs without one
        (unit-test stubs) drop the result."""
        self._deliver_read(command, result)

    def _deliver_read(self, command: Command, result: object) -> None:
        """Substrate-specific read delivery (default: drop)."""

    @property
    @abstractmethod
    def rng(self) -> random.Random:
        """Per-node seeded random stream (timeout jitter etc.)."""


def handles(*message_types: type) -> Callable:
    """Mark a method as the handler for the given :class:`Message` types.

    :class:`Dispatcher` collects marked methods into a per-class handler
    table; ``on_message`` then routes by exact message type instead of
    an isinstance chain.
    """

    def mark(fn: Callable) -> Callable:
        fn.__dispatch_messages__ = message_types
        return fn

    return mark


class Dispatcher:
    """Mixin: table-driven message dispatch.

    ``__init_subclass__`` walks the MRO collecting methods marked with
    :func:`handles` into ``dispatch_table`` (subclasses override their
    bases), giving every protocol O(1) routing and one shared error
    path for unknown message types.
    """

    dispatch_table: dict[type, Callable] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        table: dict[type, Callable] = {}
        for base in reversed(cls.__mro__):
            for attr in vars(base).values():
                for message_type in getattr(attr, "__dispatch_messages__", ()):
                    table[message_type] = attr
        cls.dispatch_table = table

    def on_message(self, sender: int, message: Message) -> None:
        """Route ``message`` to its registered handler.

        When an attached observer wants handler timing
        (:attr:`EnvObserver.wants_handler_timing`), the handler is
        bracketed with entry/exit notifications carrying the measured
        Python CPU time -- the per-handler attribution the obs layer
        aggregates.  Otherwise this is a plain table lookup: observers
        that fold events into counters have no use for the bracket, so
        they should not pay for its two clock reads per message."""
        handler = self.dispatch_table.get(type(message))
        if handler is None:
            raise TypeError(f"unexpected message: {message!r}")
        env = getattr(self, "env", None)
        observers = env._timing_observers if env is not None else None
        if not observers:
            handler(self, sender, message)
            return
        node_id = env.node_id
        for observer in observers:
            observer.on_handler_enter(node_id, sender, message)
        started = time.perf_counter()
        try:
            handler(self, sender, message)
        finally:
            cpu = time.perf_counter() - started
            for observer in observers:
                observer.on_handler_exit(node_id, sender, message, cpu)


class Protocol(Dispatcher, ABC):
    """A consensus protocol state machine.

    Lifecycle: construct, :meth:`bind` to an :class:`Env`, then feed
    events.  A protocol must be usable with any Env implementation.
    Message handlers are registered with :func:`handles`; inbound
    messages arrive through the inherited table-driven ``on_message``.
    """

    costs = ProtocolCosts()

    def __init__(self) -> None:
        self.env: Optional[Env] = None

    def bind(self, env: Env) -> None:
        if self.env is not None:
            raise RuntimeError("protocol already bound")
        self.env = env

    def on_start(self) -> None:
        """Called once after bind; override to start leader election etc."""

    @abstractmethod
    def propose(self, command: Command) -> None:
        """C-PROPOSE: submit ``command`` for ordering."""

    # ------------------------------------------------------------------
    # Observability notes
    # ------------------------------------------------------------------

    def note(self, kind: str, **fields) -> None:
        """Report a structured observation to the env's observers."""
        if self.env is not None:
            self.env.observe(kind, **fields)

    def note_path(self, command: Command, path: str, hops: int = 0) -> None:
        """Classify the decision path taken for ``command``.

        ``path`` is ``"fast"`` / ``"forward"`` / ``"slow"`` /
        ``"acquisition"`` (see :data:`repro.obs.span.PATH_SEVERITY`);
        repeated classifications escalate, never downgrade.  Protocols
        call this next to their stats counters so the span layer and the
        ad-hoc counters can be cross-checked against each other.

        ``"fast"`` is never emitted: it is the default every consumer
        assumes for a command with no path note (the span layer's
        ``resolved_path``, the telemetry collector's pending entries),
        and under a healthy workload it is the classification of nearly
        every command -- the one decision-path note worth a per-command
        emission is the exception, not the rule."""
        if path != "fast" and self.env is not None:
            self.env.observe("path", cid=command.cid, path=path, hops=hops)

    def processing_cost(self, message: Optional[Message]) -> tuple[float, float]:
        """``(cpu_seconds, serial_fraction)`` to charge for one event.

        ``message`` is None for propose/timer events.  Protocols with
        data-dependent costs (EPaxos dependency computation) override
        this.
        """
        return self.costs.base_cost, self.costs.serial_fraction

    def occupancy_cost(self, message: Message) -> tuple[float, float]:
        """``(cpu_seconds, serial_fraction)`` of extra CPU occupancy for
        handling ``message``: work that loads the cores (capping
        throughput) without delaying the handler itself.  Used e.g. for
        the Multi-Paxos leader's per-command coordination work.
        Default: none."""
        return 0.0, 0.0

    # ------------------------------------------------------------------
    # Durable-state hooks (storage-backed recovery)
    # ------------------------------------------------------------------

    def snapshot_payload(self) -> Optional[bytes]:
        """Serialise the protocol's durable state for a snapshot.

        Called by the storage layer at a commit boundary (never mid-
        handler, so the state is consistent).  ``None`` (the default)
        means the protocol does not support snapshots; the storage then
        keeps its full log."""
        return None

    def restore_snapshot(self, payload: bytes) -> None:
        """Rebuild durable state from a :meth:`snapshot_payload` blob.

        Called on a fresh, bound, not-yet-started instance during
        storage recovery, before the log tail is replayed."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support storage recovery"
        )

    def apply_log_record(self, rtype: int, payload: bytes) -> None:
        """Re-apply one durable log record during recovery replay.

        Records arrive in log order; applying them after
        :meth:`restore_snapshot` must reproduce the pre-crash durable
        state -- including re-delivering decided commands through the
        env, so the application log is rebuilt byte-identically."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support storage recovery"
        )
