"""gPTP message types.

Only the fields the architecture consumes are modelled; wire encoding is out
of scope (the simulator passes message objects as packet payloads).

The paper's multi-domain extension rides entirely on standard messages: each
gPTP domain carries its own Sync/FollowUp stream, distinguished by the
``domain`` field, exactly as multiple ptp4l instances bound to distinct
domain numbers would see on a real NIC.

All message types are value objects and must be treated as immutable —
bridges share one instance across every egress port. ``Sync`` and
``FollowUp`` are created on the per-interval hot path (thousands per
simulated second), so they are *not* ``frozen``: the frozen machinery routes
every field through ``object.__setattr__`` and makes construction ~4× more
expensive. The cold control-plane messages keep ``frozen=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._compat import SLOTTED


@dataclass(**SLOTTED)
class Sync:
    """Two-step Sync: an event message carrying no time of its own.

    Attributes
    ----------
    domain:
        gPTP domain number.
    sequence_id:
        Per-(GM, domain) sequence counter.
    gm_identity:
        Sending grandmaster's clock identity (VM name in the testbed).
    """

    domain: int
    sequence_id: int
    gm_identity: str


@dataclass(**SLOTTED)
class FollowUp:
    """FollowUp for a two-step Sync.

    Attributes
    ----------
    domain, sequence_id, gm_identity:
        Match the corresponding :class:`Sync`.
    precise_origin_timestamp:
        GM time when the Sync left the GM's NIC, ns. A *malicious* ptp4l
        (§III-B) shifts this field.
    correction_field:
        Accumulated link delays + bridge residence times since the GM, ns
        (fractional ns kept as float, as the wire format's 2^-16 scaling
        allows).
    rate_ratio:
        Cumulative (GM frequency / sender frequency) product.
    """

    domain: int
    sequence_id: int
    gm_identity: str
    precise_origin_timestamp: int
    correction_field: float
    rate_ratio: float


@dataclass(frozen=True, **SLOTTED)
class PdelayReq:
    """Peer-delay request (event message, timestamped both ends)."""

    sequence_id: int
    requester: str


@dataclass(frozen=True, **SLOTTED)
class PdelayResp:
    """Peer-delay response, carrying the request's receipt time t2."""

    sequence_id: int
    requester: str
    responder: str
    request_receipt_timestamp: int


@dataclass(frozen=True, **SLOTTED)
class PdelayRespFollowUp:
    """Peer-delay response follow-up, carrying the response's origin time t3."""

    sequence_id: int
    requester: str
    responder: str
    response_origin_timestamp: int

