"""Free-running oscillator model.

An oscillator converts simulated (true) time into local elapsed time. Its
instantaneous rate error is::

    rate(t) = base_offset + wander(t)          # dimensionless fraction

where ``base_offset`` is a per-device constant drawn once (manufacturing
tolerance) and ``wander`` is a bounded random walk updated lazily on every
read (thermal/aging noise). The total |rate error| is clamped to ``max_rate``
— the paper's r_max = 5 ppm bound from IEEE 802.1AS — so the drift-offset
term Γ = 2 · r_max · S of the precision bound is honoured by construction.

The model integrates rate error piecewise between reads, so reading the
oscillator is O(1) and independent of how often anyone else reads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import cos as _cos, log as _log, sin as _sin, sqrt as _sqrt

from repro.sim.kernel import Simulator
from repro.sim.rng import TWOPI
from repro.sim.timebase import MILLISECONDS, from_ppm


@dataclass(frozen=True)
class OscillatorModel:
    """Stochastic parameters of an oscillator population.

    Attributes
    ----------
    max_rate_ppm:
        Hard bound on |rate error|; 5 ppm per IEEE 802.1AS-2020 B.1.1.
    base_sigma_ppm:
        Std-dev of the constant per-device frequency offset.
    wander_step_ppm:
        Std-dev of each random-walk wander increment.
    wander_interval:
        Nominal true-time spacing of wander increments, ns.
    """

    max_rate_ppm: float = 5.0
    base_sigma_ppm: float = 2.0
    wander_step_ppm: float = 0.006
    wander_interval: int = 100 * MILLISECONDS


class Oscillator:
    """A drifting local timebase.

    ``read()`` returns the oscillator's elapsed local time in nanoseconds
    (float internally; integer at the HW-clock boundary). The simulator's
    ``now`` is the hidden true time that no component may read directly —
    only through some oscillator.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        model: OscillatorModel = OscillatorModel(),
        name: str = "osc",
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.model = model
        self.name = name
        max_frac = from_ppm(model.max_rate_ppm)
        base = rng.gauss(0.0, from_ppm(model.base_sigma_ppm))
        # Leave head-room for wander so base + wander stays clampable.
        self._base = max(-0.8 * max_frac, min(0.8 * max_frac, base))
        self._wander = 0.0
        self._last_true = sim.now
        self._elapsed = 0.0
        # Clamped rate, cached; refreshed on wander steps.
        self._rate = max(-max_frac, min(max_frac, self._base + self._wander))
        # _advance() runs on every clock read; precompute the model-derived
        # constants once instead of per call.
        self._step_sigma = from_ppm(model.wander_step_ppm)
        self._interval = model.wander_interval
        self._bound = max_frac
        # Next wander boundary strictly after _last_true, so the common
        # within-segment read is a single comparison. With wander disabled
        # there is no boundary at all.
        if self._step_sigma == 0.0:
            self._next_boundary: float = float("inf")
        else:
            interval = self._interval
            self._next_boundary = (sim.now // interval + 1) * interval

    # ------------------------------------------------------------------
    def rate_error(self) -> float:
        """Current dimensionless rate error (advances wander lazily)."""
        self._advance()
        return self._rate

    def read(self) -> float:
        """Local elapsed time in ns as of the simulator's current instant."""
        self._advance()
        return self._elapsed

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Integrate elapsed local time up to the simulator's now.

        Wander increments are applied at ``wander_interval`` boundaries of
        true time; between increments the rate is constant, so integration is
        exact piecewise-linear accumulation. The clamped rate is cached and
        only refreshed when the wander steps — clock reads are the hottest
        operation in the whole simulator.
        """
        now = self.sim.now
        last = self._last_true
        if now == last:
            return
        # Common case in a busy simulation: the next wander boundary (cached
        # as an invariant: smallest boundary strictly after _last_true) is
        # still ahead, so the whole span is one constant-rate segment. With
        # wander disabled the boundary is +inf and this is the only path.
        boundary = self._next_boundary
        if now < boundary:
            self._elapsed += (now - last) * (1.0 + self._rate)
            self._last_true = now
            return
        # Replay every boundary up to now, one wander step each. After a
        # fast-forward jump that is hundreds of steps, so the loop keeps
        # its state in locals, inlines rng.gauss(0.0, sigma) (Box–Muller,
        # as HardwareClock.timestamp does, with the stream's cached second
        # variate held in ``spare`` until the loop ends) and clamps with
        # comparisons that pick the same operand max/min would. Draws and
        # float operations keep the order of a step-at-a-time walk.
        rng = self.rng
        rand = rng.random
        sigma = self._step_sigma
        interval = self._interval
        bound = self._bound
        nbound = -bound
        base = self._base
        elapsed = self._elapsed
        wander = self._wander
        rate = self._rate
        spare = rng.gauss_next
        t = last
        while boundary <= now:
            elapsed += (boundary - t) * (1.0 + rate)
            t = boundary
            boundary += interval
            # gauss() returns 0.0 + z * sigma. Dropping the 0.0 can only
            # change the sign of a zero sum, which needs wander to be -0.0;
            # only a zero bound makes it so, and its clamp then overwrites
            # the sum.
            if spare is None:
                x2pi = rand() * TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rand()))
                wander += _cos(x2pi) * g2rad * sigma
                spare = _sin(x2pi) * g2rad
            else:
                wander += spare * sigma
                spare = None
            # Keep the walk itself bounded so it cannot saturate forever.
            if not wander < bound:
                wander = bound
            if not wander > nbound:
                wander = nbound
            rate = base + wander
            if not rate < bound:
                rate = bound
            if not rate > nbound:
                rate = nbound
        rng.gauss_next = spare
        if t != now:
            elapsed += (now - t) * (1.0 + rate)
        self._elapsed = elapsed
        self._wander = wander
        self._rate = rate
        self._last_true = now
        self._next_boundary = boundary

    def __repr__(self) -> str:
        return (
            f"Oscillator({self.name!r}, base={self._base * 1e6:+.3f} ppm, "
            f"wander={self._wander * 1e6:+.4f} ppm)"
        )
