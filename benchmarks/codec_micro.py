"""Microseconds per encode and per decode of the three fast-path frames.

    PYTHONPATH=src python3 benchmarks/codec_micro.py

Times the recursive walk that was the codec up to PR 19 (kept as the
oracle in ``tests/test_codec_reference.py``, so pytest and hypothesis
must be importable) against the live codec, on ``Accept``, ``AckAccept``
and ``Decide`` shaped like ``tcp-sat``'s (one instance per command,
short object ids, small epochs) at a batch of 1 and of 8 commands.
Each figure is the best of seven repeats of 2,000 calls, walk and live
alternating (``Command`` bodies are interned and decoded bodies
memoised on both sides, as in a warm run).  It is a ruler for the codec
alone: what a change is worth end to end is ``benchmarks/ab_pairs.py``'s
to say.

The last two rows are the durable log's bill for one 7-command round
(``tcp-durable``'s batch): the records ``core/m2/durability.py`` wrote up
to PR 21 -- the Accept's 5-tuple, and one ``(instance, command)`` pair
per decision, each through the generic value walk -- against the one
message payload per ``Accept`` / ``Decide`` it writes now.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]

from repro.consensus.commands import Command  # noqa: E402
from repro.core.messages import Accept, AckAccept, Decide  # noqa: E402
from repro.runtime import codec  # noqa: E402
from tests.test_codec_reference import ref_decode_message, ref_encode_message  # noqa: E402

REPEATS = 7
CALLS = 2_000


def fast_path_frames(batch: int) -> list:
    """One accept round's three messages for ``batch`` commands."""
    instances = [(f"o1.{17 + 3 * i}", 3 + i % 5) for i in range(batch)]
    to_decide = {
        ins: Command.make(1, 193 + i, [ins[0]]) for i, ins in enumerate(instances)
    }
    eps = {ins: 4 for ins in instances}
    cids = {ins: command.cid for ins, command in to_decide.items()}
    return [
        Accept(req=226, to_decide=to_decide, eps=eps),
        AckAccept(req=226, coordinator=1, ok=True, cids=cids, eps=eps),
        Decide(to_decide=to_decide),
    ]


def best_pair(walk, live, *args) -> tuple[float, float]:
    """Best microseconds per call of each, the two timed alternately so
    that a slow stretch of the host falls on both."""
    best = [float("inf"), float("inf")]
    for _ in range(REPEATS):
        for side, fn in enumerate((walk, live)):
            start = perf_counter()
            for _ in range(CALLS):
                fn(*args)
            best[side] = min(best[side], (perf_counter() - start) / CALLS * 1e6)
    return best[0], best[1]


def log_records(batch: int) -> list:
    """``(name, old encode, new encode, old payload bytes)`` for one
    round's Accept and Decide records."""
    accept, _ack, decide = fast_path_frames(batch)
    ins_of = {command.cid: (ins,) for ins, command in accept.to_decide.items()}
    old_accept = (1, False, accept.eps, accept.to_decide, ins_of)
    old_decides = list(decide.to_decide.items())
    value = codec.encode_value_binary
    return [
        (
            "Accept",
            lambda: value(old_accept),
            lambda: codec.message_payload(1, accept),
            len(value(old_accept)),
        ),
        (
            "Decide",
            lambda: [value(pair) for pair in old_decides],
            lambda: codec.message_payload(1, decide),
            sum(len(value(pair)) for pair in old_decides),
        ),
    ]


def main() -> int:
    print(f"{'frame':10} {'batch':>5} {'bytes':>6} {'enc walk':>9} {'enc live':>9} {'ratio':>6} "
          f"{'dec walk':>9} {'dec live':>9} {'ratio':>6}   (us per call)")
    for batch in (1, 8):
        for message in fast_path_frames(batch):
            frame = ref_encode_message(1, message)
            assert codec.encode_message(1, message) == frame
            view = memoryview(frame)[codec.FRAME_HEADER.size:]
            assert codec.decode_message(view) == ref_decode_message(view) == (1, message)
            enc = best_pair(ref_encode_message, codec.encode_message, 1, message)
            dec = best_pair(ref_decode_message, codec.decode_message, view)
            print(f"{type(message).__name__:10} {batch:5d} {len(frame):6d} "
                  f"{enc[0]:9.2f} {enc[1]:9.2f} {enc[1] / enc[0]:6.2f} "
                  f"{dec[0]:9.2f} {dec[1]:9.2f} {dec[1] / dec[0]:6.2f}")
    print(f"\n{'log record':10} {'batch':>5} {'old B':>6} {'new B':>6} "
          f"{'enc old':>9} {'enc new':>9} {'ratio':>6}   (us per round)")
    for name, old, new, old_bytes in log_records(7):
        sender, message = codec.decode_message(new())
        assert sender == 1 and codec.encode_message(1, message)[4:] == new()
        enc = best_pair(old, new)
        print(f"{name:10} {7:5d} {old_bytes:6d} {len(new()):6d} "
              f"{enc[0]:9.2f} {enc[1]:9.2f} {enc[1] / enc[0]:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
