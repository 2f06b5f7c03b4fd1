"""Named deterministic random-number streams.

Distributed-systems simulations need *decoupled* randomness: adding one more
random draw in the NIC-jitter model must not perturb the fault-injection
schedule of an otherwise identical run. We therefore give every stochastic
component its own ``random.Random`` stream, derived from the master seed and
the component's name via SHA-256, instead of sharing one global generator.
"""

from __future__ import annotations

import hashlib
import random
from math import pi as _pi
from typing import Dict

#: Constant for the inlined ``random.gauss`` draws in the hot paths
#: (:meth:`repro.clocks.hardware_clock.HardwareClock.timestamp` and the
#: oscillator's wander replay). ``random.gauss`` keeps its spare
#: Box–Muller variate in the instance attribute ``gauss_next`` (present on
#: every CPython the project supports, 3.9 onwards); each inline
#: replicates the library algorithm bit-for-bit on the same state.
TWOPI = 2.0 * _pi


class RngRegistry:
    """Factory for named, reproducible ``random.Random`` streams.

    Two registries with the same master seed hand out identical streams for
    identical names, regardless of creation order:

    >>> a = RngRegistry(42).stream("nic.jitter").random()
    >>> b = RngRegistry(42).stream("nic.jitter").random()
    >>> a == b
    True
    >>> RngRegistry(42).stream("faults").random() == a
    False
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so state advances across call sites sharing a name.
        """
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                f"{self.master_seed}/{name}".encode("utf-8")
            ).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def fork(self, salt: str) -> "RngRegistry":
        """Derive an independent child registry (e.g. per experiment arm)."""
        digest = hashlib.sha256(
            f"{self.master_seed}/fork/{salt}".encode("utf-8")
        ).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))

    def __repr__(self) -> str:
        return (
            f"RngRegistry(master_seed={self.master_seed}, "
            f"streams={sorted(self._streams)})"
        )
