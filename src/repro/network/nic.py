"""Endpoint NIC model (Intel i210-like).

The NIC owns the PTP hardware clock (PHC) that ptp4l disciplines, performs
hardware rx/tx timestamping with white noise, and supports *launch time*
transmission through an ETF-style queue: the frame leaves the wire when the
PHC reaches the requested launch time, which is how the grandmasters send
their Sync messages quasi-synchronously (§II-B).

Two transient fault modes the paper observed on real i210/igb hardware are
modelled explicitly (§III-C):

* **tx-timestamp timeout** — with a configurable probability the driver
  never surfaces the transmit timestamp; ptp4l gives up after 5 ms and the
  two-step FollowUp for that Sync is lost (2992 occurrences in the paper's
  24 h run).
* **launch deadline miss** — with a configurable probability the frame
  reaches the qdisc after its launch time and is rejected (347 occurrences).

Probabilities default to zero; the fault-injection experiments set them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import cos as _cos, log as _log, sin as _sin, sqrt as _sqrt
from typing import Callable, List, Optional

from repro.clocks.hardware_clock import HardwareClock
from repro.clocks.oscillator import Oscillator, OscillatorModel
from repro.network.packet import Packet
from repro.network.port import Port
from repro.sim.kernel import Simulator
from repro.sim.rng import HAS_GAUSS_NEXT, TWOPI
from repro.sim.timebase import MICROSECONDS, MILLISECONDS
from repro.sim.trace import TraceLog

RxHandler = Callable[[Packet, int], None]
TxTimestampCallback = Callable[[Optional[int]], None]


@dataclass(frozen=True)
class NicModel:
    """NIC timing and fault parameters.

    Attributes
    ----------
    timestamp_jitter:
        Std-dev of white noise on hardware timestamps, ns.
    tx_timestamp_latency:
        Driver latency until a successful tx timestamp surfaces, ns.
    tx_timestamp_timeout:
        ptp4l's wait before declaring ``tx_timeout`` (5 ms in the paper).
    tx_timestamp_fail_prob:
        Probability a transmit timestamp is never delivered.
    deadline_miss_prob:
        Probability a launch-time frame misses its deadline and is dropped.
    launch_tolerance:
        Scheduling tolerance for launch-time transmission, ns.
    oscillator:
        Oscillator population model for this NIC's PHC.
    """

    timestamp_jitter: float = 8.0
    tx_timestamp_latency: int = 100 * MICROSECONDS
    tx_timestamp_timeout: int = 5 * MILLISECONDS
    tx_timestamp_fail_prob: float = 0.0
    deadline_miss_prob: float = 0.0
    launch_tolerance: int = 50
    oscillator: OscillatorModel = OscillatorModel()


@dataclass
class TxRecord:
    """Outcome bookkeeping for one transmit request."""

    packet: Packet
    launch_time: Optional[int]
    transmitted: bool = False
    tx_timestamp: Optional[int] = None
    timed_out: bool = False
    deadline_missed: bool = False
    extra: dict = field(default_factory=dict)


class Nic:
    """A timestamping NIC with one port, owned by a clock synchronization VM."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rng: random.Random,
        model: NicModel = NicModel(),
        trace: Optional[TraceLog] = None,
        metrics=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.rng = rng
        self.model = model
        self.trace = trace
        self._metrics = metrics
        if metrics is not None:
            self._m_deadline_miss = metrics.counter("nic.deadline_misses")
            self._m_tx_timeout = metrics.counter("nic.tx_timestamp_timeouts")
        self.oscillator = Oscillator(sim, rng, model.oscillator, name=f"{name}.osc")
        self.clock = HardwareClock(self.oscillator, name=f"{name}.phc")
        self.port = Port(self, "p0")
        self._rx_handlers: List[RxHandler] = []
        self._rx_snapshot: tuple = ()  # immutable fan-out list for on_receive
        self.enabled = True
        self.tx_count = 0
        self.rx_count = 0
        self.tx_timestamp_timeouts = 0
        self.deadline_misses = 0
        # Hot-path bindings: every rx/tx reads the PHC with gauss noise and
        # posts follow-on events; resolve the methods and model scalars once.
        self._random = rng.random
        self._post = sim.post
        self._clock_time = self.clock.time
        self._ts_jitter = model.timestamp_jitter

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def attach_rx_handler(self, handler: RxHandler) -> None:
        """Register a consumer for (packet, hardware rx timestamp)."""
        self._rx_handlers.append(handler)
        self._rx_snapshot = tuple(self._rx_handlers)

    def detach_rx_handler(self, handler: RxHandler) -> None:
        """Remove a previously registered consumer."""
        self._rx_handlers.remove(handler)
        self._rx_snapshot = tuple(self._rx_handlers)

    def on_receive(self, port: Port, packet: Packet) -> None:
        """Port callback: hardware-timestamp and fan out to handlers.

        Iterates an immutable snapshot so handlers may attach/detach during
        delivery without copying the handler list on every packet.
        """
        if not self.enabled:
            return
        self.rx_count += 1
        rx_ts = self.timestamp()
        for handler in self._rx_snapshot:
            handler(packet, rx_ts)

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def send(
        self,
        packet: Packet,
        launch_time: Optional[int] = None,
        on_tx_timestamp: Optional[TxTimestampCallback] = None,
    ) -> TxRecord:
        """Transmit ``packet``, optionally at a PHC launch time.

        Parameters
        ----------
        packet:
            Frame to send.
        launch_time:
            If given, a PHC-timescale instant; the frame leaves when the PHC
            reaches it (ETF + hardware launch). ``None`` sends immediately.
        on_tx_timestamp:
            If given, called exactly once with the hardware transmit
            timestamp — or with ``None`` after the 5 ms timeout when the
            driver loses it (the paper's ``tx_timeout`` fault).
        """
        record = TxRecord(packet=packet, launch_time=launch_time)
        if not self.enabled:
            return record

        if launch_time is None:
            self._transmit(record, on_tx_timestamp)
            return record

        now_phc = self.clock.time()
        missed = now_phc + self.model.launch_tolerance >= launch_time
        if not missed and self.model.deadline_miss_prob > 0:
            missed = self._random() < self.model.deadline_miss_prob
        if missed:
            record.deadline_missed = True
            self.deadline_misses += 1
            if self._metrics is not None:
                self._m_deadline_miss.inc()
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "ptp4l.deadline_miss", self.name,
                    launch_time=launch_time, phc_now=now_phc,
                )
            if on_tx_timestamp is not None:
                # ptp4l learns synchronously that the qdisc rejected the frame.
                on_tx_timestamp(None)
            return record

        self._schedule_at_phc_time(launch_time, self._transmit, record, on_tx_timestamp)
        return record

    def timestamp(self) -> int:
        """Read the PHC with white timestamp noise applied."""
        jitter = self._ts_jitter
        if jitter > 0:
            # Draw the noise before reading the clock: the PHC read may
            # advance oscillator wander on the same RNG stream, and the
            # draw interleaving is part of the deterministic schedule.
            if HAS_GAUSS_NEXT:
                # Inline of rng.gauss(0.0, jitter): Box–Muller with the
                # cached second variate, identical draws on the same state.
                rng = self.rng
                z = rng.gauss_next
                rng.gauss_next = None
                if z is None:
                    x2pi = rng.random() * TWOPI
                    g2rad = _sqrt(-2.0 * _log(1.0 - rng.random()))
                    z = _cos(x2pi) * g2rad
                    rng.gauss_next = _sin(x2pi) * g2rad
                noise = z * jitter
            else:
                noise = self.rng.gauss(0.0, jitter)
            return round(self._clock_time() + noise)
        return self._clock_time()

    def set_enabled(self, enabled: bool) -> None:
        """Power the NIC data path on/off (VM fail-silent / reboot)."""
        self.enabled = enabled

    # ------------------------------------------------------------------
    def _transmit(
        self, record: TxRecord, on_tx_timestamp: Optional[TxTimestampCallback]
    ) -> None:
        if not self.enabled:
            return
        record.transmitted = True
        self.tx_count += 1
        tx_ts = self.timestamp()
        self.port.transmit(record.packet)
        if on_tx_timestamp is None:
            record.tx_timestamp = tx_ts
            return
        if (
            self.model.tx_timestamp_fail_prob > 0
            and self._random() < self.model.tx_timestamp_fail_prob
        ):
            record.timed_out = True
            self.tx_timestamp_timeouts += 1
            if self._metrics is not None:
                self._m_tx_timeout.inc()
            if self.trace is not None:
                self.trace.emit(self.sim.now, "ptp4l.tx_timeout", self.name)
            self._post(self.model.tx_timestamp_timeout, on_tx_timestamp, None)
        else:
            record.tx_timestamp = tx_ts
            self._post(self.model.tx_timestamp_latency, on_tx_timestamp, tx_ts)

    def _schedule_at_phc_time(self, phc_target: int, fn, *args) -> None:
        """Run ``fn`` when this NIC's PHC reads ``phc_target``.

        The PHC runs within ±(5 ppm + trim) of true time, so iterating
        ``sleep(remaining)`` converges geometrically; two hops land within a
        nanosecond for any realistic rate error.
        """

        def attempt(depth: int) -> None:
            remaining = phc_target - self._clock_time()
            if remaining <= self.model.launch_tolerance or depth >= 6:
                fn(*args)
                return
            self._post(max(1, round(remaining)), attempt, depth + 1)

        attempt(0)

    def __repr__(self) -> str:
        return f"Nic({self.name!r}, enabled={self.enabled})"
