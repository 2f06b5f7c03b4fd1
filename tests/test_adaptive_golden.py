"""Exact golden for an adaptive-fidelity run across fast-forward jumps.

``tests/test_fidelity.py`` compares adaptive against full fidelity only
within a tolerance, and no other fast test runs long enough to reach a
jump. This pins a paper-mesh4 adaptive run to 100 s bit for bit. The run
makes two 30 s jumps, and on each landing every oscillator replays the
wander steps the jump skipped, drawing from the RNG stream it shares with
timestamp noise. The fingerprint hashes the probe records, the
fast-forward summary, every oscillator's ``(_elapsed, _wander, _rate)``
and the state of every named RNG stream, so a change to the order of any
draw or to any float operation in the replay shows here.

The fingerprints in ``golden/adaptive_golden.json`` were captured on the
code before the wander replay was rewritten as one inlined loop. Do not
regenerate them from code that changes the replay; that would turn the
check into a tautology.
"""

import hashlib
import json
import os

import pytest

from repro.experiments.testbed import Testbed
from repro.scenarios import get_scenario
from repro.sim.timebase import SECONDS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "adaptive_golden.json")
with open(GOLDEN_PATH, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def oscillators(tb: Testbed):
    """Every oscillator of the testbed: node timebases, NIC and switch PHCs."""
    found = [node.timebase for node in tb.nodes.values()]
    found += [vm.nic.oscillator for vm in tb.vms.values()]
    found += [sw.oscillator for sw in tb.topology.switches.values()]
    return sorted(found, key=lambda osc: osc.name)


def adaptive_fingerprint(seed: int) -> str:
    tb = Testbed(
        get_scenario(GOLDEN["scenario"]).testbed_config(seed=seed),
        fidelity="adaptive",
    )
    tb.run_until(GOLDEN["until_s"] * SECONDS)
    summary = tb.fastforward_summary()
    assert summary["jumps"] >= 1, "no jump: the golden would pin no replay"
    h = hashlib.sha256()
    for record in tb.series.records:
        h.update(repr(record).encode())
    h.update(repr(sorted(summary.items())).encode())
    for osc in oscillators(tb):
        h.update(
            f"{osc.name}:{osc._elapsed!r}:{osc._wander!r}:{osc._rate!r};".encode()
        )
    for name, rng in sorted(tb.rng._streams.items()):
        h.update(f"{name}:{rng.getstate()!r};".encode())
    return h.hexdigest()


class TestAdaptiveGolden:
    @pytest.mark.parametrize("seed", sorted(GOLDEN["fingerprints"], key=int))
    def test_adaptive_run_matches_golden(self, seed):
        assert adaptive_fingerprint(int(seed)) == GOLDEN["fingerprints"][seed]

