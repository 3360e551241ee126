"""The T_ref estimator against a synthetic host with speed regimes."""

import random

import pytest

from perfbench.refkernel import REF_S
from perfbench.timing import PassTimer, per_chunk_median, t_ref


class FakeHost:
    """A host that runs everything ``speed(now)`` times slower than the
    reference: x1.0 or x1.4, switching every few (virtual) seconds."""

    def __init__(self, seed: int) -> None:
        self.now = 0.0
        self._rng = random.Random(seed)
        self._slow = False
        self._switch_at = self._rng.uniform(1.0, 8.0)

    def work(self, reference_seconds: float) -> float:
        """Do work worth ``reference_seconds``; returns wall seconds."""
        started = self.now
        remaining = reference_seconds
        while remaining > 0:
            speed = 1.4 if self._slow else 1.0
            until_switch = self._switch_at - self.now
            if remaining * speed <= until_switch:
                self.now += remaining * speed
                break
            self.now = self._switch_at
            remaining -= until_switch / speed
            self._slow = not self._slow
            self._switch_at = self.now + self._rng.uniform(1.0, 8.0)
        return self.now - started

    def kernel(self) -> float:
        return self.work(REF_S) * self._rng.uniform(0.99, 1.01)


@pytest.mark.parametrize("seed", range(5))
def test_t_ref_recovers_true_time_under_regime_switches(seed):
    host = FakeHost(seed)
    # Chunks get more expensive as logs grow, as in the real passes.
    truth = [0.08 + 0.004 * k for k in range(30)]
    passes = []
    raw = []
    for _ in range(5):
        timer = PassTimer(clock=lambda: host.now, kernel=host.kernel)
        for cost in truth:
            wall = host.work(cost)
            timer.add(wall, wall)  # a busy process: all of it on a CPU
        passes.append(timer.ref())
        raw.append(sum(timer.wall))
    assert t_ref(passes) == pytest.approx(sum(truth), rel=0.03)
    # The uncorrected wall times are what the rule is there to beat.
    assert max(raw) / min(raw) > 1.05


def test_per_chunk_median_rejects_one_bad_chunk():
    passes = [[1.0, 2.0, 3.0], [1.0, 9.0, 3.0], [1.0, 2.0, 3.0]]
    assert per_chunk_median(passes) == [1.0, 2.0, 3.0]
    assert t_ref(passes) == 6.0
    with pytest.raises(ValueError):
        per_chunk_median([[1.0], [1.0, 2.0]])


def test_kernel_rescales_cpu_seconds_between_its_two_readings():
    readings = iter([REF_S, 2 * REF_S, 2 * REF_S])
    timer = PassTimer(clock=lambda: 0.0, kernel=lambda: next(readings))
    timer.add(3.0, 3.0)
    timer.add(3.0, 1.0)  # 2 s waiting on a timer: not the host's doing
    assert timer.ref() == pytest.approx([3.0 / 1.5, 2.0 + 1.0 / 2.0])
    assert timer.scale(1) == pytest.approx(2.5 / 3.0)
