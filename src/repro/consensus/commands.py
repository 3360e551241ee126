"""Commands and the conflict (interference) relation.

Following Section III of the paper, a command ``c`` is defined by the
set of object identifiers it accesses, ``c.LS``.  Two commands conflict
(do not commute) iff their access sets intersect.  Generalized Consensus
may deliver non-conflicting commands in different orders on different
nodes; conflicting commands must be delivered in the same order
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional


@dataclass(frozen=True, slots=True)
class Command:
    """An opaque state-machine command.

    ``cid``: globally unique identifier (proposer id, local counter).
    ``ls``: identifiers of the objects the command accesses (``c.LS``).
    ``payload_bytes``: size of the application payload (the evaluation
    uses 16-byte payloads for synthetic commands; TPC-C commands carry
    their transaction parameters).
    ``proposer``: node that first proposed the command, used by the
    metrics layer to attribute latency.
    ``is_read``: a read-only command.  Reads never mutate state, so an
    owner holding a valid lease may answer them locally without a
    consensus round; without a lease they run as ordinary commands.

    ``_bin_body``: the codec's wire encoding, filled on first encode and
    reused by every frame that carries the command.  A cache, not part
    of the value, so ``__init__``, ``==``, ``hash`` and ``repr`` ignore
    it, and ``dataclasses.replace`` makes a command that encodes its own.
    """

    cid: tuple[int, int]
    ls: FrozenSet[str]
    payload_bytes: int = 16
    proposer: int = 0
    noop: bool = False
    is_read: bool = False
    _bin_body: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.ls:
            raise ValueError("a command must access at least one object")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")

    @staticmethod
    def make(
        proposer: int,
        seq: int,
        objects: Iterable[str],
        payload_bytes: int = 16,
        is_read: bool = False,
    ) -> "Command":
        """Convenience constructor used by workload generators."""
        return Command(
            cid=(proposer, seq),
            ls=frozenset(objects),
            payload_bytes=payload_bytes,
            proposer=proposer,
            is_read=is_read,
        )

    def conflicts(self, other: "Command") -> bool:
        """True iff the two commands access a common object."""
        return bool(self.ls & other.ls)

    def size_bytes(self) -> int:
        """Approximate wire size: id + object ids + payload."""
        return 12 + 8 * len(self.ls) + self.payload_bytes

    def __repr__(self) -> str:
        objs = ",".join(sorted(self.ls))
        return f"Cmd({self.cid[0]}.{self.cid[1]}:{objs})"


def conflict(a: Command, b: Command) -> bool:
    """Module-level alias of :meth:`Command.conflicts`."""
    return a.conflicts(b)


def make_noop(obj: str, node_id: int, seq: int) -> Command:
    """A no-op filler for a single instance.

    No-ops are used by gap recovery: they occupy a position so delivery
    can advance past it, but are never handed to the application.
    Negative sequence numbers keep their ids disjoint from real
    commands, whose workload generators count up from zero.
    """
    return Command(
        cid=(node_id, -(seq + 1)),
        ls=frozenset({obj}),
        payload_bytes=0,
        proposer=node_id,
        noop=True,
    )


@dataclass
class CStruct:
    """A command structure: the sequence a node has delivered so far.

    The Generalized Consensus C-struct of the paper is a sequence where
    commuting commands may be appended in either order.  We represent it
    as a plain list plus a set for O(1) membership tests.
    """

    commands: list[Command] = field(default_factory=list)
    _members: set[tuple[int, int]] = field(default_factory=set)

    def append(self, command: Command) -> None:
        if command.cid in self._members:
            raise ValueError(f"duplicate append: {command}")
        self.commands.append(command)
        self._members.add(command.cid)

    def __contains__(self, command: Command) -> bool:
        return command.cid in self._members

    def __len__(self) -> int:
        return len(self.commands)

    def restricted_to(self, obj: str) -> list[Command]:
        """Sub-sequence of commands accessing ``obj`` (order preserved)."""
        return [c for c in self.commands if obj in c.ls]

    def is_prefix_compatible(self, other: "CStruct") -> bool:
        """Check the *Consistency* property against another node's C-struct.

        Two C-structs are compatible iff for every object, the
        restrictions of both to that object are prefixes of one another
        (equivalently: conflicting commands appear in the same relative
        order in both).
        """
        objects = {o for c in self.commands for o in c.ls} | {
            o for c in other.commands for o in c.ls
        }
        for obj in objects:
            mine = [c.cid for c in self.restricted_to(obj)]
            theirs = [c.cid for c in other.restricted_to(obj)]
            shorter = min(len(mine), len(theirs))
            if mine[:shorter] != theirs[:shorter]:
                return False
        return True
