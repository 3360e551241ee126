"""Microseconds per encode and per decode of the three fast-path frames.

    PYTHONPATH=src python3 benchmarks/codec_micro.py

Times the recursive walk that was the codec up to PR 19 (kept as the
oracle in ``tests/test_codec_reference.py``, so pytest and hypothesis
must be importable) against the live codec, on ``Accept``, ``AckAccept``
and ``Decide`` shaped like ``tcp-sat``'s (one instance per command,
short object ids, small epochs) at a batch of 1 and of 8 commands.
Each figure is the best of seven repeats; encodes write into a fresh
buffer with the frame memo cleared, so both columns pay a full encode.
It is a ruler for the codec alone: what a change is worth end to end is
``benchmarks/ab_pairs.py``'s to say.
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


def best_us(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(CALLS):
            fn(*args)
        best = min(best, perf_counter() - start)
    return best / CALLS * 1e6


def _live_encode(sender: int, message) -> bytes:
    message.__dict__.pop("_frame", None)
    return codec.encode_message(sender, message)


def main() -> int:
    print(f"{'frame':10} {'batch':>5} {'bytes':>6} "
          f"{'enc walk':>9} {'enc live':>9} {'dec walk':>9} {'dec live':>9}   (us per call)")
    for batch in (1, 8):
        for message in fast_path_frames(batch):
            frame = ref_encode_message(1, message)
            assert _live_encode(1, message) == frame
            payload = frame[codec.FRAME_HEADER.size:]
            view = memoryview(payload)
            assert codec.decode_message(view) == ref_decode_message(view) == (1, message)
            print(f"{type(message).__name__:10} {batch:5d} {len(frame):6d} "
                  f"{best_us(ref_encode_message, 1, message):9.2f} "
                  f"{best_us(_live_encode, 1, message):9.2f} "
                  f"{best_us(ref_decode_message, view):9.2f} "
                  f"{best_us(codec.decode_message, view):9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
