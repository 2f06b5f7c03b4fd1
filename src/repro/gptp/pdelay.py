"""Peer-delay measurement (802.1AS pdelay mechanism).

Every link runs the three-message exchange

    initiator --PdelayReq-->  responder        (t1 tx @ initiator, t2 rx @ responder)
    initiator <--PdelayResp-- responder        (t3 tx @ responder, t4 rx @ initiator)
    initiator <--PdelayRespFollowUp--          (carries t3)

and the initiator computes the mean one-way delay

    D = ((t4 - t1) - r * (t3 - t2)) / 2

where ``r`` is the *neighbor rate ratio* (responder frequency / initiator
frequency) estimated from the slopes of successive (t3, t4) pairs. The
estimate feeds two consumers: slaves subtract the access-link delay when
computing GM offsets, and time-aware bridges add the ingress-link delay to
the correction field when regenerating Sync.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional, Tuple

from repro.gptp.messages import PdelayReq, PdelayResp, PdelayRespFollowUp
from repro.gptp.transport import GptpTransport
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTask
from repro.sim.timebase import MILLISECONDS, SECONDS


class PdelayResponder:
    """Answers PdelayReq on one interface."""

    def __init__(self, transport: GptpTransport) -> None:
        self.transport = transport
        self.responses = 0

    def on_request(self, message: PdelayReq, rx_ts: int) -> None:
        """Handle a request: send Resp now, RespFollowUp once t3 is known."""
        self.responses += 1
        resp = PdelayResp(
            sequence_id=message.sequence_id,
            requester=message.requester,
            responder=self.transport.name,
            request_receipt_timestamp=rx_ts,
        )

        def with_t3(t3: Optional[int]) -> None:
            if t3 is None:
                return  # tx timestamp lost; initiator discards the round
            follow = PdelayRespFollowUp(
                sequence_id=message.sequence_id,
                requester=message.requester,
                responder=self.transport.name,
                response_origin_timestamp=t3,
            )
            self.transport.send(follow)

        self.transport.send(resp, on_tx_timestamp=with_t3)


@dataclass
class _Round:
    """In-flight initiator state for one sequence id."""

    sequence_id: int
    t1: Optional[int] = None
    t2: Optional[int] = None
    t3: Optional[int] = None
    t4: Optional[int] = None

    def complete(self) -> bool:
        return None not in (self.t1, self.t2, self.t3, self.t4)


class PdelayInitiator:
    """Periodically measures the delay of one link from one end.

    Attributes
    ----------
    link_delay:
        EMA-smoothed mean one-way delay in ns, ``None`` until the first
        complete exchange.
    neighbor_rate_ratio:
        Latest responder/initiator frequency ratio estimate (1.0 until the
        slope window fills).
    """

    #: EMA weight of a fresh delay sample.
    SMOOTHING = 0.25
    #: (t3, t4) pairs kept for the rate-ratio slope.
    RATIO_WINDOW = 8

    def __init__(
        self,
        sim: Simulator,
        transport: GptpTransport,
        rng: random.Random,
        interval: int = SECONDS,
        phase: int = 20 * MILLISECONDS,
    ) -> None:
        self.sim = sim
        self.transport = transport
        self.link_delay: Optional[float] = None
        self.neighbor_rate_ratio: float = 1.0
        self.completed_rounds = 0
        self.discarded_rounds = 0
        self._seq = 0
        self._round: Optional[_Round] = None
        self._ratio_pairs: Deque[Tuple[int, int]] = deque(maxlen=self.RATIO_WINDOW)
        self._task = PeriodicTask(
            sim,
            period=interval,
            action=self._begin_round,
            phase=phase,
            jitter=interval // 10,
            rng=rng,
            name=f"pdelay.{transport.name}",
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic measurement."""
        self._task.start()

    def stop(self) -> None:
        """Stop measurement (interface going down)."""
        self._task.stop()
        self._round = None

    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        if self._round is not None:
            self.discarded_rounds += 1  # previous round never completed
        self._seq += 1
        this_round = _Round(sequence_id=self._seq)
        self._round = this_round

        def with_t1(t1: Optional[int]) -> None:
            if t1 is None:
                if self._round is this_round:
                    self._round = None
                    self.discarded_rounds += 1
                return
            this_round.t1 = t1
            self._maybe_finish(this_round)

        self.transport.send(
            PdelayReq(sequence_id=self._seq, requester=self.transport.name),
            on_tx_timestamp=with_t1,
        )

    def on_response(self, message: PdelayResp, rx_ts: int) -> None:
        """Handle PdelayResp addressed to us."""
        r = self._round
        if r is None or message.sequence_id != r.sequence_id:
            return
        r.t2 = message.request_receipt_timestamp
        r.t4 = rx_ts
        self._maybe_finish(r)

    def on_response_follow_up(self, message: PdelayRespFollowUp) -> None:
        """Handle PdelayRespFollowUp addressed to us."""
        r = self._round
        if r is None or message.sequence_id != r.sequence_id:
            return
        r.t3 = message.response_origin_timestamp
        self._maybe_finish(r)

    # ------------------------------------------------------------------
    def _maybe_finish(self, r: _Round) -> None:
        if not r.complete():
            return
        self._round = None
        self.completed_rounds += 1
        assert r.t1 is not None and r.t2 is not None
        assert r.t3 is not None and r.t4 is not None
        self._ratio_pairs.append((r.t3, r.t4))
        self._update_ratio()
        turnaround = (r.t4 - r.t1) - self.neighbor_rate_ratio * (r.t3 - r.t2)
        sample = turnaround / 2.0
        if sample < 0:
            # Timestamp noise can push a tiny delay negative; floor at zero.
            sample = 0.0
        if self.link_delay is None:
            self.link_delay = sample
        else:
            a = self.SMOOTHING
            self.link_delay = (1.0 - a) * self.link_delay + a * sample

    def _update_ratio(self) -> None:
        if len(self._ratio_pairs) < 2:
            return
        t3_first, t4_first = self._ratio_pairs[0]
        t3_last, t4_last = self._ratio_pairs[-1]
        span_local = t4_last - t4_first
        if span_local <= 0:
            return
        self.neighbor_rate_ratio = (t3_last - t3_first) / span_local

    def __repr__(self) -> str:
        return (
            f"PdelayInitiator({self.transport.name!r}, delay={self.link_delay}, "
            f"ratio={self.neighbor_rate_ratio:.9f})"
        )


def dispatch_pdelay(
    message: Any,
    rx_ts: int,
    responder: PdelayResponder,
    initiator: PdelayInitiator,
) -> None:
    """Hand a pdelay message received on one interface to its pdelay pair.

    A request goes to the responder. A response or response follow-up goes
    to the initiator, but only when its ``requester`` is this interface.
    Any other message is ignored.
    """
    if isinstance(message, PdelayReq):
        responder.on_request(message, rx_ts)
    elif isinstance(message, PdelayResp):
        if message.requester == initiator.transport.name:
            initiator.on_response(message, rx_ts)
    elif isinstance(message, PdelayRespFollowUp):
        if message.requester == initiator.transport.name:
            initiator.on_response_follow_up(message)
