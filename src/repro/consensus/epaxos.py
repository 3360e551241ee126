"""EPaxos baseline (Moraru et al., SOSP 2013).

The strongest competitor in the paper's evaluation.  Every replica
leads its own instance space ``(replica, slot)``.  Ordering information
is carried as *dependencies*: the set of instances holding conflicting
commands, plus a sequence number used to break cycles at execution.

- **Fast path** (two delays): the command leader broadcasts
  ``PreAccept``; if a fast quorum (``F + floor((F+1)/2)``) returns the
  leader's attributes unchanged, the command commits immediately.
- **Slow path** (four delays): attribute conflicts send the union of
  dependencies through a classic Paxos-Accept round first.
- **Execution**: committed instances form a dependency graph; strongly
  connected components are executed in reverse topological order,
  members ordered by sequence number.  Execution order is the delivery
  order.

Costs the paper attributes to EPaxos and modelled here: fast quorums
larger than a majority for N > 5; dependency computation on the
critical path (``per_conflict_cost``); synchronisation on shared
conflict metadata (high ``serial_fraction``); dependency sets inside
messages (bigger wire sizes under contention).

Recovery (explicit prepare) is implemented in the simplified
common-case form: a replica that suspects an instance's leader collects
the instance state from a majority and finishes with the strongest
state found: a committed one, else the accepted attributes of the
highest accepted ballot (the classic Paxos rule of
:func:`repro.core.quorum.highest_ballot`; each replica records and
reports the ballot it accepted at), else a preaccepted one.  The paper's
evaluation never crashes replicas, and neither do the benchmarks; the
fault-tolerance tests exercise this path only in the shapes the
simplified rules handle correctly (no partially-formed fast quorum at
the crash point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from repro.consensus.base import (
    Message,
    handles,
    Protocol,
    ProtocolCosts,
)
from repro.consensus.commands import Command
from repro.core.quorum import (
    classic_quorum,
    epaxos_fast_quorum,
    highest_ballot,
    next_ballot,
)

EpInstanceId = tuple[int, int]
"""``(replica, slot)``."""

PREACCEPTED = "preaccepted"
ACCEPTED = "accepted"
COMMITTED = "committed"
EXECUTED = "executed"


@dataclass(frozen=True)
class EpPreAccept(Message):
    instance: EpInstanceId
    ballot: int
    command: Command
    seq: int
    deps: frozenset[EpInstanceId]


@dataclass(frozen=True)
class EpPreAcceptReply(Message):
    instance: EpInstanceId
    ballot: int
    ok: bool
    seq: int
    deps: frozenset[EpInstanceId]
    changed: bool


@dataclass(frozen=True)
class EpAccept(Message):
    instance: EpInstanceId
    ballot: int
    command: Command
    seq: int
    deps: frozenset[EpInstanceId]


@dataclass(frozen=True)
class EpAcceptReply(Message):
    instance: EpInstanceId
    ballot: int
    ok: bool


@dataclass(frozen=True)
class EpCommit(Message):
    instance: EpInstanceId
    command: Command
    seq: int
    deps: frozenset[EpInstanceId]


@dataclass(frozen=True)
class EpPrepare(Message):
    instance: EpInstanceId
    ballot: int


@dataclass(frozen=True)
class EpPrepareReply(Message):
    instance: EpInstanceId
    ballot: int
    ok: bool
    status: Optional[str] = None
    command: Optional[Command] = None
    seq: int = 0
    deps: frozenset[EpInstanceId] = frozenset()
    # The ballot at which an ``ACCEPTED`` status's attributes were accepted.
    accepted_ballot: int = 0


@dataclass
class _EpInstance:
    """Replica-local record of one instance."""

    command: Optional[Command] = None
    seq: int = 0
    deps: frozenset[EpInstanceId] = frozenset()
    status: str = PREACCEPTED
    ballot: int = 0
    accepted_ballot: int = 0
    # Leader-side bookkeeping.
    replies: list[EpPreAcceptReply] = field(default_factory=list)
    accept_votes: set[int] = field(default_factory=set)
    prepare_replies: dict[int, EpPrepareReply] = field(default_factory=dict)
    leading: bool = False


@dataclass(frozen=True)
class EPaxosConfig:
    # Must comfortably exceed worst-case commit latency (including
    # saturation queueing): the simplified recovery assumes the instance
    # leader is actually gone, as real EPaxos deployments tune it.
    commit_timeout: float = 3.0


class EPaxos(Protocol):
    """One EPaxos replica."""

    # High serial fraction: dependency metadata is shared between local
    # threads, the contention the paper's Figure 4 attributes EPaxos's
    # poor core scaling to.
    costs = ProtocolCosts(
        base_cost=160e-6,
        serial_fraction=0.45,
        per_conflict_cost=16e-6,
    )

    def __init__(self, config: Optional[EPaxosConfig] = None) -> None:
        super().__init__()
        self.config = config or EPaxosConfig()
        self.instances: dict[EpInstanceId, _EpInstance] = {}
        self.next_slot = 1
        # Conflict index: for each object, the highest slot of each
        # replica's instance space that touches it.  Tracking the latest
        # *per replica* (not one global latest) is what guarantees that
        # of any two conflicting committed instances, at least one has
        # the other in its dependencies.
        self._latest: dict[str, dict[int, int]] = {}
        self._max_seq: dict[str, int] = {}
        self._executed: set[EpInstanceId] = set()
        self._waiting: dict[EpInstanceId, set[EpInstanceId]] = {}
        self._timeout_armed: set[EpInstanceId] = set()
        self.stats = {"fast_path": 0, "slow_path": 0, "committed": 0, "recoveries": 0}

    def bind(self, env) -> None:
        super().bind(env)
        self.quorum = classic_quorum(env.n_nodes)
        self.fast_quorum = epaxos_fast_quorum(env.n_nodes)

    # ------------------------------------------------------------------
    # Phase 1: PreAccept
    # ------------------------------------------------------------------

    def propose(self, command: Command) -> None:
        instance_id = (self.env.node_id, self.next_slot)
        self.next_slot += 1
        seq, deps = self._attributes(command, exclude=instance_id)
        record = _EpInstance(
            command=command, seq=seq, deps=deps, status=PREACCEPTED, leading=True
        )
        self.instances[instance_id] = record
        self._index(instance_id, command, seq)
        self.env.broadcast(
            EpPreAccept(
                instance=instance_id, ballot=0, command=command, seq=seq, deps=deps
            ),
            include_self=False,
        )
        self._arm_commit_timeout(instance_id)

    def _attributes(
        self, command: Command, exclude: EpInstanceId
    ) -> tuple[int, frozenset[EpInstanceId]]:
        """Compute ``(seq, deps)`` from the local conflict index."""
        deps = set()
        seq = 1
        for obj in command.ls:
            for replica, slot in self._latest.get(obj, {}).items():
                dep = (replica, slot)
                if dep != exclude:
                    deps.add(dep)
            seq = max(seq, self._max_seq.get(obj, 0) + 1)
        return seq, frozenset(deps)

    def _index(self, instance_id: EpInstanceId, command: Command, seq: int) -> None:
        replica, slot = instance_id
        for obj in command.ls:
            per_replica = self._latest.setdefault(obj, {})
            if slot > per_replica.get(replica, 0):
                per_replica[replica] = slot
            self._max_seq[obj] = max(self._max_seq.get(obj, 0), seq)

    @handles(EpPreAccept)
    def _on_preaccept(self, sender: int, msg: EpPreAccept) -> None:
        record = self.instances.setdefault(msg.instance, _EpInstance())
        if msg.ballot < record.ballot or record.status in (COMMITTED, EXECUTED):
            return
        merged_seq, merged_deps = self._merge_attributes(msg)
        record.command = msg.command
        record.seq = merged_seq
        record.deps = merged_deps
        record.status = PREACCEPTED
        record.ballot = msg.ballot
        self._index(msg.instance, msg.command, merged_seq)
        self._arm_commit_timeout(msg.instance)
        changed = merged_seq != msg.seq or merged_deps != msg.deps
        self.env.send(
            sender,
            EpPreAcceptReply(
                instance=msg.instance,
                ballot=msg.ballot,
                ok=True,
                seq=merged_seq,
                deps=merged_deps,
                changed=changed,
            ),
        )

    def _merge_attributes(
        self, msg: EpPreAccept
    ) -> tuple[int, frozenset[EpInstanceId]]:
        local_seq, local_deps = self._attributes(msg.command, exclude=msg.instance)
        return max(msg.seq, local_seq), msg.deps | local_deps

    @handles(EpPreAcceptReply)
    def _on_preaccept_reply(self, sender: int, msg: EpPreAcceptReply) -> None:
        record = self.instances.get(msg.instance)
        if (
            record is None
            or not record.leading
            or record.status != PREACCEPTED
            or msg.ballot != record.ballot
        ):
            return
        record.replies.append(msg)
        # The leader itself counts toward the fast quorum.
        if len(record.replies) + 1 < self.fast_quorum:
            return
        unchanged = all(not reply.changed for reply in record.replies)
        if unchanged:
            self.stats["fast_path"] += 1
            self.note_path(record.command, "fast")
            self._commit(msg.instance, record.command, record.seq, record.deps)
        else:
            self.stats["slow_path"] += 1
            self.note_path(record.command, "slow")
            seq = max([record.seq] + [reply.seq for reply in record.replies])
            deps = record.deps
            for reply in record.replies:
                deps = deps | reply.deps
            record.seq = seq
            record.deps = deps
            record.status = ACCEPTED
            record.accepted_ballot = record.ballot
            record.accept_votes = set()
            self.env.broadcast(
                EpAccept(
                    instance=msg.instance,
                    ballot=record.ballot,
                    command=record.command,
                    seq=seq,
                    deps=deps,
                ),
                include_self=False,
            )

    # ------------------------------------------------------------------
    # Phase 2 (slow path): Paxos-Accept on the attributes
    # ------------------------------------------------------------------

    @handles(EpAccept)
    def _on_accept(self, sender: int, msg: EpAccept) -> None:
        record = self.instances.setdefault(msg.instance, _EpInstance())
        if msg.ballot < record.ballot or record.status in (COMMITTED, EXECUTED):
            return
        record.command = msg.command
        record.seq = msg.seq
        record.deps = msg.deps
        record.status = ACCEPTED
        record.ballot = record.accepted_ballot = msg.ballot
        self._index(msg.instance, msg.command, msg.seq)
        self._arm_commit_timeout(msg.instance)
        self.env.send(
            sender, EpAcceptReply(instance=msg.instance, ballot=msg.ballot, ok=True)
        )

    @handles(EpAcceptReply)
    def _on_accept_reply(self, sender: int, msg: EpAcceptReply) -> None:
        record = self.instances.get(msg.instance)
        if (
            record is None
            or not record.leading
            or record.status != ACCEPTED
            or msg.ballot != record.ballot
            or not msg.ok
        ):
            return
        record.accept_votes.add(sender)
        if len(record.accept_votes) + 1 >= self.quorum:
            self._commit(msg.instance, record.command, record.seq, record.deps)

    # ------------------------------------------------------------------
    # Commit + execution
    # ------------------------------------------------------------------

    def _commit(
        self,
        instance_id: EpInstanceId,
        command: Command,
        seq: int,
        deps: frozenset[EpInstanceId],
    ) -> None:
        record = self.instances.setdefault(instance_id, _EpInstance())
        if record.status in (COMMITTED, EXECUTED):
            return
        record.command = command
        record.seq = seq
        record.deps = deps
        record.status = COMMITTED
        self.stats["committed"] += 1
        if not command.noop:
            self.note("decide", cid=command.cid)
        self._index(instance_id, command, seq)
        if record.leading:
            self.env.broadcast(
                EpCommit(instance=instance_id, command=command, seq=seq, deps=deps),
                include_self=False,
            )
        self._on_committed(instance_id)

    @handles(EpCommit)
    def _on_commit(self, sender: int, msg: EpCommit) -> None:
        record = self.instances.setdefault(msg.instance, _EpInstance())
        if record.status in (COMMITTED, EXECUTED):
            return
        record.command = msg.command
        record.seq = msg.seq
        record.deps = msg.deps
        record.status = COMMITTED
        self._index(msg.instance, msg.command, msg.seq)
        self._on_committed(msg.instance)

    def _on_committed(self, instance_id: EpInstanceId) -> None:
        self._try_execute(instance_id)
        for waiter in list(self._waiting.pop(instance_id, ())):
            if waiter not in self._executed:
                self._try_execute(waiter)

    def _try_execute(self, root: EpInstanceId) -> None:
        """Tarjan SCC over committed dependencies reachable from ``root``.

        If any reachable dependency is not yet committed, execution of
        ``root`` is deferred until that dependency commits.
        """
        record = self.instances.get(root)
        if record is None or record.status != COMMITTED or root in self._executed:
            return

        index_of: dict[EpInstanceId, int] = {}
        low: dict[EpInstanceId, int] = {}
        on_stack: set[EpInstanceId] = set()
        stack: list[EpInstanceId] = []
        sccs: list[list[EpInstanceId]] = []
        counter = [0]
        blocked: list[EpInstanceId] = []

        def strongconnect(v: EpInstanceId) -> None:
            index_of[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            v_record = self.instances[v]
            for w in sorted(v_record.deps):
                if w in self._executed:
                    continue
                w_record = self.instances.get(w)
                if w_record is None or w_record.status != COMMITTED:
                    blocked.append(w)
                    continue
                if w not in index_of:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif w in on_stack:
                    low[v] = min(low[v], index_of[w])
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                sccs.append(component)

        strongconnect(root)

        if blocked:
            for dep in blocked:
                self._waiting.setdefault(dep, set()).add(root)
            return

        # Tarjan emits SCCs in reverse topological order, which is the
        # execution order (dependencies first).
        for component in sccs:
            members = sorted(
                component, key=lambda iid: (self.instances[iid].seq, iid)
            )
            for instance_id in members:
                if instance_id in self._executed:
                    continue
                self._executed.add(instance_id)
                member = self.instances[instance_id]
                member.status = EXECUTED
                if member.command is not None and not member.command.noop:
                    self.env.deliver(member.command)

    # ------------------------------------------------------------------
    # Recovery (simplified explicit prepare)
    # ------------------------------------------------------------------

    def _arm_commit_timeout(self, instance_id: EpInstanceId) -> None:
        """Any replica that knows of an uncommitted instance arms a
        timeout, so a crashed command leader cannot orphan it."""
        if instance_id in self._timeout_armed:
            return
        self._timeout_armed.add(instance_id)

        def check() -> None:
            record = self.instances.get(instance_id)
            if record is not None and record.status in (COMMITTED, EXECUTED):
                return
            self._recover(instance_id)
            # Keep watching: a failed recovery (competing ballots, more
            # crashes) must be retried.
            jitter = 1.0 + 0.5 * self.env.rng.random()
            self.env.set_timer(self.config.commit_timeout * jitter, check)

        jitter = 1.0 + 0.5 * self.env.rng.random()
        self.env.set_timer(self.config.commit_timeout * jitter, check)

    def _recover(self, instance_id: EpInstanceId) -> None:
        record = self.instances.setdefault(instance_id, _EpInstance())
        self.stats["recoveries"] += 1
        record.ballot = next_ballot(
            record.ballot, self.env.node_id, self.env.n_nodes
        )
        record.prepare_replies = {}
        record.leading = True
        self.env.broadcast(
            EpPrepare(instance=instance_id, ballot=record.ballot)
        )

    @handles(EpPrepare)
    def _on_prepare(self, sender: int, msg: EpPrepare) -> None:
        record = self.instances.setdefault(msg.instance, _EpInstance())
        if msg.ballot <= record.ballot and sender != self.env.node_id:
            self.env.send(
                sender,
                EpPrepareReply(instance=msg.instance, ballot=msg.ballot, ok=False),
            )
            return
        record.ballot = max(record.ballot, msg.ballot)
        self.env.send(
            sender,
            EpPrepareReply(
                instance=msg.instance,
                ballot=msg.ballot,
                ok=True,
                status=record.status if record.command is not None else None,
                command=record.command,
                seq=record.seq,
                deps=record.deps,
                accepted_ballot=record.accepted_ballot,
            ),
        )

    @handles(EpPrepareReply)
    def _on_prepare_reply(self, sender: int, msg: EpPrepareReply) -> None:
        record = self.instances.get(msg.instance)
        if record is None or msg.ballot != record.ballot:
            return
        if record.status in (COMMITTED, EXECUTED):
            return
        if not msg.ok:
            return
        record.prepare_replies[sender] = msg
        if len(record.prepare_replies) < self.quorum:
            return
        replies = list(record.prepare_replies.values())
        record.prepare_replies = {}

        committed = next((r for r in replies if r.status in (COMMITTED, EXECUTED)), None)
        if committed is not None:
            self._commit(msg.instance, committed.command, committed.seq, committed.deps)
            self.env.broadcast(
                EpCommit(
                    instance=msg.instance,
                    command=committed.command,
                    seq=committed.seq,
                    deps=committed.deps,
                ),
                include_self=False,
            )
            return
        accepted = highest_ballot(
            (r for r in replies if r.status == ACCEPTED),
            attrgetter("accepted_ballot"),
        )
        chosen = accepted or next(
            (r for r in replies if r.status == PREACCEPTED), None
        )
        if chosen is None or chosen.command is None:
            return  # nothing to recover; the instance was never started
        record.command = chosen.command
        record.seq = chosen.seq
        record.deps = chosen.deps
        record.status = ACCEPTED
        record.accepted_ballot = record.ballot
        record.accept_votes = set()
        record.leading = True
        self.env.broadcast(
            EpAccept(
                instance=msg.instance,
                ballot=record.ballot,
                command=chosen.command,
                seq=chosen.seq,
                deps=chosen.deps,
            ),
            include_self=False,
        )

    # ------------------------------------------------------------------

    def processing_cost(self, message):
        cost = self.costs.base_cost
        if isinstance(message, (EpPreAccept, EpAccept, EpCommit)):
            cost += self.costs.per_conflict_cost * len(message.deps)
        elif isinstance(message, EpPreAcceptReply):
            cost += self.costs.per_conflict_cost * len(message.deps)
        return cost, self.costs.serial_fraction

