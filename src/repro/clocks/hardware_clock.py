"""Adjustable hardware clock (PTP hardware clock, PHC).

This models the NIC's internal clock as LinuxPTP sees it through
``clock_gettime``/``clock_adjtime``: a counter driven by the free-running
oscillator, to which software can apply

* a frequency trim (``adjust_frequency``, ppb — the servo output),
* a one-shot step (``step``, ns — the servo's initial jump), and

while the hardware keeps timestamping rx/tx events with this disciplined
time (``timestamp``: a read plus white noise). The conversion from
oscillator ticks is piecewise linear: we record (oscillator reading, clock
value, trim) at each adjustment and extrapolate.

Reading the clock is the hottest operation in the simulator, and many
components read the same PHC within one simulated instant (ingress
timestamp, launch-time check, servo sample). Between events nothing moves,
so ``time()`` memoizes its result per value of the simulator's ``now`` and
invalidates on ``step``/``adjust_frequency`` — repeated reads at the same
instant skip the float rebase math entirely.
"""

from __future__ import annotations

from math import cos as _cos, log as _log, sin as _sin, sqrt as _sqrt

from repro.clocks.oscillator import Oscillator
from repro.sim.rng import TWOPI
from repro.sim.timebase import from_ppb, to_ppb


class HardwareClock:
    """A steppable, frequency-trimmable clock on top of an oscillator."""

    #: LinuxPTP default: |trim| is capped by the driver (i210: 62.5 ppm is
    #: generous; we keep a conservative cap far above any servo demand).
    MAX_TRIM_PPB = 1_000_000.0

    def __init__(self, oscillator: Oscillator, initial: int = 0, name: str = "phc") -> None:
        self.oscillator = oscillator
        self.name = name
        self._anchor_osc = oscillator.read()
        self._anchor_value = float(initial)
        self._trim = 0.0  # dimensionless fraction applied to oscillator ticks
        self._factor = 1.0  # cached 1.0 + trim
        self.steps = 0
        self.frequency_adjustments = 0
        self._cache_now: object = None  # sim.now the cached reading is for
        self._cache_value = 0
        # time() runs on every timestamp; resolve the chain once.
        self._sim = oscillator.sim
        self._osc_advance = oscillator._advance
        self._rng = oscillator.rng

    # ------------------------------------------------------------------
    # POSIX-ish interface used by the protocol stack and servo
    # ------------------------------------------------------------------
    def time(self) -> int:
        """Current clock reading in ns (``clock_gettime``)."""
        now = self._sim.now
        if now == self._cache_now:
            return self._cache_value
        # Inline of oscillator.read()'s constant-rate segment (the common
        # case between wander boundaries — see Oscillator._advance); the
        # boundary-crossing slow path stays a call.
        osc = self.oscillator
        last = osc._last_true
        if now != last:
            if now < osc._next_boundary:
                osc._elapsed += (now - last) * (1.0 + osc._rate)
                osc._last_true = now
            else:
                self._osc_advance()
        value = round(
            self._anchor_value + (osc._elapsed - self._anchor_osc) * self._factor
        )
        self._cache_now = now
        self._cache_value = value
        return value

    def timestamp(self, jitter: float) -> int:
        """A hardware timestamp: ``time()`` plus white noise of std-dev ``jitter``.

        The noise comes from the oscillator's RNG stream (the device's) and
        is drawn before the clock is read: the read may replay oscillator
        wander on the same stream, and the draw interleaving is part of the
        deterministic schedule. The draw inlines ``rng.gauss(0.0, jitter)``
        (Box–Muller with the stream's cached second variate): identical
        draws on the same state.
        """
        if jitter > 0:
            rng = self._rng
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng.random() * TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng.random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            return round(self.time() + z * jitter)
        return self.time()

    def step(self, delta: int) -> None:
        """Jump the clock by ``delta`` ns (``clock_settime`` relative)."""
        self._rebase()
        self._anchor_value += delta
        self.steps += 1
        self._cache_now = None

    def adjust_frequency(self, ppb: float) -> None:
        """Set the frequency trim in parts-per-billion (``ADJ_FREQUENCY``).

        The trim *replaces* the previous trim (kernel semantics), it does not
        accumulate.
        """
        ppb = max(-self.MAX_TRIM_PPB, min(self.MAX_TRIM_PPB, ppb))
        self._rebase()
        self._trim = from_ppb(ppb)
        self._factor = 1.0 + self._trim
        self.frequency_adjustments += 1
        self._cache_now = None

    @property
    def frequency_ppb(self) -> float:
        """Currently applied trim in ppb."""
        return to_ppb(self._trim)

    # ------------------------------------------------------------------
    def _rebase(self) -> None:
        """Fold elapsed time into the anchor before changing parameters."""
        osc = self.oscillator.read()
        self._anchor_value += (osc - self._anchor_osc) * (1.0 + self._trim)
        self._anchor_osc = osc

    def __repr__(self) -> str:
        return f"HardwareClock({self.name!r}, trim={self.frequency_ppb:+.1f} ppb)"
