"""Composable per-link network impairments.

The base :class:`~repro.network.link.Link` knows two states: perfect
bounded-jitter delivery and administratively down. Real gPTP deployments
degrade through a richer set of conditions — packet loss (random and
bursty), duplication, reordering, delay asymmetry, congestion — which are
exactly the impairments the resilience-bounds literature shows dominate
achievable synchronization accuracy. This module models them as an optional
per-link attachment:

* **Loss** — independent Bernoulli per-packet loss, or a two-state
  Gilbert–Elliott chain for bursty loss (a "bad" state entered and left
  with per-packet transition probabilities, each state with its own loss
  rate).
* **Duplication** — a second copy of the frame is delivered after an extra
  delay, never earlier than the original.
* **Reordering** — selected packets are held back by a bounded extra
  delay, letting later frames overtake them.
* **Delay asymmetry** — a constant per-direction offset, the classic
  violator of PTP's symmetric-path assumption.
* **Congestion epochs** — timed windows during which every packet picks up
  an extra uniform queueing delay (inflated jitter).

Every impairment draws from its **own dedicated RNG stream** (never the
link's): attaching an impairment cannot perturb the link's jitter sequence,
and a run with no impairment attached — or with the identity spec — is
byte-identical to one that predates this module. The spec is a frozen,
JSON-round-trippable dataclass so chaos plans can carry it declaratively
(see :mod:`repro.chaos.plan`).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.network.link import Link
    from repro.network.packet import Packet
    from repro.network.port import Port
    from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class GilbertElliottSpec:
    """Two-state bursty loss chain.

    Per packet, the chain first transitions (good→bad with ``p_enter_bad``,
    bad→good with ``p_exit_bad``), then the packet is lost with the current
    state's loss rate. The stationary realized loss rate is
    ``π_bad·loss_bad + π_good·loss_good`` with
    ``π_bad = p_enter_bad / (p_enter_bad + p_exit_bad)``.
    """

    p_enter_bad: float = 0.01
    p_exit_bad: float = 0.2
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.p_enter_bad + self.p_exit_bad <= 0.0:
            raise ValueError(
                "Gilbert-Elliott chain needs at least one positive "
                "transition probability"
            )

    def stationary_loss_rate(self) -> float:
        """Long-run fraction of packets lost."""
        pi_bad = self.p_enter_bad / (self.p_enter_bad + self.p_exit_bad)
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good


@dataclass(frozen=True)
class CongestionEpoch:
    """A timed window of inflated queueing delay.

    While ``start <= now < end``, every packet picks up an extra uniform
    delay in ``[0, extra_jitter]`` ns.
    """

    start: int
    end: int
    extra_jitter: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad congestion window [{self.start}, {self.end})")
        if self.extra_jitter < 0:
            raise ValueError("extra_jitter must be nonnegative")


@dataclass(frozen=True)
class ImpairmentSpec:
    """Declarative description of one link's impairments.

    All probabilities are per-packet; all delays are nanoseconds. The
    default instance is the identity (no impairment at all) — attaching it
    leaves runs byte-identical to an unimpaired link.

    Attributes
    ----------
    loss:
        Independent Bernoulli loss probability.
    gilbert_elliott:
        Optional bursty loss chain, applied *instead of* ``loss`` when set.
    duplicate:
        Probability a delivered packet is delivered twice; the copy arrives
        ``U(0, duplicate_delay]`` ns after the original.
    duplicate_delay:
        Upper bound of the duplicate's extra delay.
    reorder:
        Probability a packet is held back by ``U(1, reorder_delay]`` ns,
        allowing later frames to overtake it.
    reorder_delay:
        Upper bound of the hold-back delay.
    delay_a_to_b / delay_b_to_a:
        Constant per-direction delay offsets (asymmetry).
    congestion:
        Tuple of :class:`CongestionEpoch` windows.
    """

    loss: float = 0.0
    gilbert_elliott: Optional[GilbertElliottSpec] = None
    duplicate: float = 0.0
    duplicate_delay: int = 1_000
    reorder: float = 0.0
    reorder_delay: int = 5_000
    delay_a_to_b: int = 0
    delay_b_to_a: int = 0
    congestion: Tuple[CongestionEpoch, ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        for name in ("duplicate_delay", "reorder_delay",
                     "delay_a_to_b", "delay_b_to_a"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.duplicate > 0 and self.duplicate_delay < 1:
            raise ValueError("duplication needs duplicate_delay >= 1")
        if self.reorder > 0 and self.reorder_delay < 1:
            raise ValueError("reordering needs reorder_delay >= 1")
        # Normalize to a tuple so specs built from JSON lists stay hashable.
        if not isinstance(self.congestion, tuple):
            object.__setattr__(self, "congestion", tuple(self.congestion))

    @property
    def is_identity(self) -> bool:
        """Whether this spec perturbs nothing."""
        return (
            self.loss == 0.0
            and self.gilbert_elliott is None
            and self.duplicate == 0.0
            and self.reorder == 0.0
            and self.delay_a_to_b == 0
            and self.delay_b_to_a == 0
            and not self.congestion
        )

    # ------------------------------------------------------------------
    # Serialization (chaos plans carry specs through scenario JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["gilbert_elliott"] = (
            dataclasses.asdict(self.gilbert_elliott)
            if self.gilbert_elliott is not None else None
        )
        doc["congestion"] = [dataclasses.asdict(c) for c in self.congestion]
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ImpairmentSpec":
        doc = dict(doc)
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown impairment keys: {sorted(unknown)}")
        ge = doc.get("gilbert_elliott")
        if isinstance(ge, dict):
            doc["gilbert_elliott"] = GilbertElliottSpec(**ge)
        windows = doc.get("congestion")
        if windows is not None:
            doc["congestion"] = tuple(
                CongestionEpoch(**w) if isinstance(w, dict) else w
                for w in windows
            )
        return cls(**doc)


class LinkImpairment:
    """Runtime state of one link's impairments.

    Attached to a :class:`~repro.network.link.Link` via
    :meth:`Link.attach_impairment`; the link's hot path delegates here only
    when an impairment is present (one ``None`` check otherwise — the same
    guarded pattern the TraceLog and metrics registry use).

    Draw order per packet is fixed and documented so fixed-seed runs are
    reproducible: congestion jitter → loss → reorder → duplication. Each
    draw comes from the impairment's dedicated RNG stream.
    """

    def __init__(
        self,
        spec: ImpairmentSpec,
        rng: random.Random,
        link_name: str = "",
        trace: Optional["TraceLog"] = None,
        metrics=None,
    ) -> None:
        self.spec = spec
        self.rng = rng
        self.link_name = link_name
        self.trace = trace
        self.packets_seen = 0
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.packets_reordered = 0
        self.congestion_delayed = 0
        self._ge_bad = False
        self._metrics = metrics
        if metrics is not None:
            prefix = f"impairment.{link_name}" if link_name else "impairment"
            self._m_dropped = metrics.counter(f"{prefix}.dropped")
            self._m_duplicated = metrics.counter(f"{prefix}.duplicated")
            self._m_reordered = metrics.counter(f"{prefix}.reordered")
            self._m_total_dropped = metrics.counter("impairment.dropped")
            self._m_total_duplicated = metrics.counter("impairment.duplicated")
            self._m_total_reordered = metrics.counter("impairment.reordered")

    # ------------------------------------------------------------------
    def carry(
        self, link: "Link", from_port: "Port", packet: "Packet", delay: int
    ) -> None:
        """Impaired continuation of :meth:`Link.carry`.

        ``delay`` is the link's already-drawn nominal delay (base + jitter,
        drawn from the link's own stream); this method applies the
        impairments and posts zero, one, or two deliveries.
        """
        spec = self.spec
        self.packets_seen += 1
        to_b = from_port is link.a
        delay += spec.delay_a_to_b if to_b else spec.delay_b_to_a

        if spec.congestion:
            now = link.sim.now
            for window in spec.congestion:
                if window.start <= now < window.end:
                    if window.extra_jitter > 0:
                        delay += self.rng.randint(0, window.extra_jitter)
                    self.congestion_delayed += 1
                    break

        if self._lost():
            self.packets_dropped += 1
            link.packets_dropped += 1
            if self._metrics is not None:
                self._m_dropped.inc()
                self._m_total_dropped.inc()
            return

        held_back = spec.reorder > 0.0 and self.rng.random() < spec.reorder
        if held_back:
            delay += self.rng.randint(1, spec.reorder_delay)
            self.packets_reordered += 1
            if self._metrics is not None:
                self._m_reordered.inc()
                self._m_total_reordered.inc()

        link.deliver_after(delay, packet, to_b)

        if spec.duplicate > 0.0 and self.rng.random() < spec.duplicate:
            # The copy never arrives before the original's own arrival.
            extra = self.rng.randint(0, spec.duplicate_delay)
            self.packets_duplicated += 1
            if self._metrics is not None:
                self._m_duplicated.inc()
                self._m_total_duplicated.inc()
            link.deliver_after(delay + extra, packet, to_b)

    # ------------------------------------------------------------------
    def _lost(self) -> bool:
        ge = self.spec.gilbert_elliott
        if ge is not None:
            if self._ge_bad:
                if self.rng.random() < ge.p_exit_bad:
                    self._ge_bad = False
            elif self.rng.random() < ge.p_enter_bad:
                self._ge_bad = True
            rate = ge.loss_bad if self._ge_bad else ge.loss_good
            if rate <= 0.0:
                return False
            return rate >= 1.0 or self.rng.random() < rate
        loss = self.spec.loss
        return loss > 0.0 and self.rng.random() < loss

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for result reporting."""
        return {
            "seen": self.packets_seen,
            "dropped": self.packets_dropped,
            "duplicated": self.packets_duplicated,
            "reordered": self.packets_reordered,
            "congestion_delayed": self.congestion_delayed,
        }

    def __repr__(self) -> str:
        return (
            f"LinkImpairment({self.link_name!r}, seen={self.packets_seen}, "
            f"dropped={self.packets_dropped})"
        )
