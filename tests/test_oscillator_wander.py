"""Oracle for the oscillator's wander replay.

``Oscillator`` integrates its rate piecewise and, whenever a read crosses
one or more wander boundaries, replays every skipped random-walk step in
order. After a fast-forward jump that is hundreds of steps per oscillator,
so the replay is written as one tight loop. This module checks it against
a naive reference that shares no code with it: the reference steps one
boundary at a time, draws each increment with ``rng.gauss(0.0, sigma)``
and clamps with ``max``/``min``, exactly as the model is specified.

The two must agree bit for bit on ``_elapsed``, ``_wander``, ``_rate``,
``_next_boundary`` and the RNG state after every operation, across read
schedules that land on boundaries and one nanosecond either side, spans of
up to 3,000 intervals, foreign draws on the same stream (so the cached
Box–Muller variate is sometimes set on entry), clamping regimes and
disabled wander. A metamorphic case checks that the wander, the rate and
the RNG state at a time T do not depend on how the reads before T were
scheduled.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clocks.hardware_clock import HardwareClock
from repro.clocks.oscillator import Oscillator, OscillatorModel
from repro.sim.kernel import Simulator
from repro.sim.timebase import MILLISECONDS, from_ppm


class ReferenceOscillator:
    """The wander model stepped one boundary at a time."""

    def __init__(self, rng: random.Random, model: OscillatorModel, start: int):
        self.rng = rng
        self.bound = from_ppm(model.max_rate_ppm)
        base = rng.gauss(0.0, from_ppm(model.base_sigma_ppm))
        self.base = max(-0.8 * self.bound, min(0.8 * self.bound, base))
        self.wander = 0.0
        self.rate = max(-self.bound, min(self.bound, self.base + self.wander))
        self.elapsed = 0.0
        self.last = start
        self.sigma = from_ppm(model.wander_step_ppm)
        self.interval = model.wander_interval
        if self.sigma == 0.0:
            self.next_boundary = float("inf")
        else:
            self.next_boundary = (start // self.interval + 1) * self.interval

    def read(self, now: int) -> None:
        while self.next_boundary <= now:
            boundary = self.next_boundary
            self.elapsed += (boundary - self.last) * (1.0 + self.rate)
            self.last = boundary
            self.wander += self.rng.gauss(0.0, self.sigma)
            self.wander = max(-self.bound, min(self.bound, self.wander))
            self.rate = max(-self.bound, min(self.bound, self.base + self.wander))
            self.next_boundary = boundary + self.interval
        if now != self.last:
            self.elapsed += (now - self.last) * (1.0 + self.rate)
            self.last = now

    def state(self):
        return (repr(self.elapsed), repr(self.wander), repr(self.rate),
                repr(self.next_boundary), self.rng.getstate())


def oscillator_state(osc: Oscillator):
    return (repr(osc._elapsed), repr(osc._wander), repr(osc._rate),
            repr(osc._next_boundary), osc.rng.getstate())


MODELS = {
    "default": OscillatorModel(),
    # Clamping: increments far above r_max saturate the walk and the rate.
    "clamp": OscillatorModel(max_rate_ppm=5.0, base_sigma_ppm=50.0,
                             wander_step_ppm=50.0),
    "clamp-7ns": OscillatorModel(max_rate_ppm=0.5, base_sigma_ppm=2.0,
                                 wander_step_ppm=400.0, wander_interval=7),
    # Degenerate bound: both clamps meet at zero, so only the sign of the
    # zero they return tells max/min apart from a careless comparison.
    "zero-bound": OscillatorModel(max_rate_ppm=0.0, wander_step_ppm=1.0,
                                  wander_interval=1_000),
    # Wander disabled: no boundary, the rate stays constant.
    "no-wander": OscillatorModel(wander_step_ppm=0.0),
    "no-wander-7ns": OscillatorModel(wander_step_ppm=0.0, wander_interval=7),
    "10ms": OscillatorModel(wander_interval=10 * MILLISECONDS),
}

#: One operation of a schedule. A read goes ``span`` boundaries past the
#: current one and lands on it, one nanosecond before or after it, or at a
#: free offset; ``via`` picks the reading entry point. ``gauss``/``random``
#: are foreign draws on the oscillator's stream, as timestamp noise and
#: residence jitter make in the simulator.
READ = st.tuples(
    st.just("read"),
    st.integers(0, 3_000),
    st.sampled_from(["on", "before", "after", "free"]),
    st.integers(0, 10**9),
    st.sampled_from(["read", "rate_error", "clock"]),
)
FOREIGN = st.tuples(st.sampled_from(["gauss", "random"]))
SCHEDULE = st.lists(st.one_of(READ, FOREIGN), min_size=1, max_size=12)


def target_time(now: int, interval: int, span: int, where: str, free: int) -> int:
    boundary = (now // interval + span) * interval
    offset = {"on": 0, "before": -1, "after": 1}.get(where, free % interval)
    return max(now, boundary + offset)


def run_pair(seed: int, model: OscillatorModel, start: int, schedule):
    """Drive the oscillator and the reference through one schedule."""
    sim = Simulator()
    sim.run_until(start)
    osc = Oscillator(sim, random.Random(seed), model)
    clock = HardwareClock(osc)
    ref = ReferenceOscillator(random.Random(seed), model, start)
    assert oscillator_state(osc) == ref.state()
    for op in schedule:
        if op[0] == "read":
            _, span, where, free, via = op
            now = target_time(sim.now, model.wander_interval, span, where, free)
            sim.run_until(now)
            if via == "read":
                osc.read()
            elif via == "rate_error":
                osc.rate_error()
            else:
                clock.time()
            ref.read(now)
        elif op[0] == "gauss":
            assert osc.rng.gauss(0.0, 1.0) == ref.rng.gauss(0.0, 1.0)
        else:
            assert osc.rng.random() == ref.rng.random()
        assert oscillator_state(osc) == ref.state(), op


@pytest.mark.parametrize("model", list(MODELS.values()), ids=list(MODELS))
class TestWanderReplayOracle:
    @given(
        seed=st.integers(0, 2**32 - 1),
        start=st.integers(0, 3 * 100 * MILLISECONDS),
        schedule=SCHEDULE,
    )
    @example(seed=1, start=0,
             schedule=[("read", 1, "on", 0, "read"),
                       ("read", 1, "before", 0, "clock"),
                       ("read", 0, "after", 0, "read"),
                       ("read", 5, "on", 0, "read")])
    @example(seed=7, start=12_345,
             schedule=[("gauss",), ("read", 3_000, "free", 4_321, "clock"),
                       ("gauss",), ("gauss",), ("read", 290, "on", 0, "read")])
    @example(seed=3, start=0,
             schedule=[("random",), ("read", 2_000, "after", 0, "rate_error")])
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_bit_for_bit(self, model, seed, start, schedule):
        run_pair(seed, model, start, schedule)

    @given(
        seed=st.integers(0, 2**32 - 1),
        span=st.integers(1, 3_000),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=10),
    )
    @settings(max_examples=10, deadline=None)
    def test_state_at_t_independent_of_read_schedule(self, model, seed, span, cuts):
        """Wander, rate and RNG state at T depend only on T."""
        interval = model.wander_interval
        end = span * interval + interval // 3
        states = []
        for reads in ([], sorted(int(c * end) for c in cuts)):
            sim = Simulator()
            osc = Oscillator(sim, random.Random(seed), model)
            for t in reads + [end]:
                sim.run_until(t)
                osc.read()
            states.append((repr(osc._wander), repr(osc._rate),
                           repr(osc._next_boundary), osc.rng.getstate()))
            assert abs(osc._elapsed - end) <= end * from_ppm(model.max_rate_ppm) + 1
        assert states[0] == states[1]
