"""Golden identities of compiled studies: nothing is simulated.

A study's jobs are content-addressed. Each job's ``key`` names its entry
in the ``.repro_cache/`` job-result store, and ``Study.fingerprint()`` is
what a ledger checks before ``study resume`` adopts it. This pins, per
case, the study name, the fingerprint and every job's key, label, kind
and seed, so a change to how studies compile must keep every store entry
and every ledger adoptable. For sweeps it also pins the
``(parameter, value)`` labels the collector puts on each row.

Cases, all compile-only:

* each canned sweep axis at its defaults, and again with its values,
  duration, warm-up, fidelity, seed and scenario all set;
* each axis through a bare ``{"kind": "sweep", "study": AXIS}`` spec;
* the envelope at its defaults and in the CI smoke's form;
* both ``examples/studies/*.json`` specs;
* spec-only shapes: ``faultbudget`` points given as JSON arrays, fully
  set sweep and envelope specs, and chaos specs shaped like the
  benchmark's (5 % loss, one colluder, three seeds), once with the loss
  start, attack start and margin given at their defaults and once
  without them.

The hashes in ``golden/study_plans.json`` were captured on the code that
still compiled each axis through its own hand-written sweep function. Do
not regenerate them from code that changes how studies compile; that
would turn the check into a tautology.
"""

import glob
import hashlib
import json
import os

import pytest

from repro.experiments.sweeps import SweepRow, compile_axis, compile_envelope
from repro.sim.timebase import SECONDS
from repro.studies.specs import load_spec, plan_from_spec

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "golden", "study_plans.json")
EXAMPLES = sorted(glob.glob(os.path.join(HERE, "..", "examples", "studies",
                                         "*.json")))
with open(GOLDEN_PATH, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)

AXES = ("domains", "interval", "aggregation", "threshold", "topology",
        "hopcount", "faultbudget", "lossrate", "attackbudget")

#: Non-default points per axis for the fully set cases.
AXIS_VALUES = {
    "domains": (5, 7),
    "interval": (31.25, 500.0),
    "aggregation": ("median", "fta"),
    "threshold": (2.5, 50.0),
    "topology": ("star", "ring"),
    "hopcount": (4, 8),
    "faultbudget": ((1, 4), (3, 10)),
    "lossrate": (0.0, 0.25),
    "attackbudget": (2, 0),
}


class _Collected:
    """A stand-in finished run: ``n`` blank rows for the collector."""

    def __init__(self, n: int) -> None:
        self.n = n

    def collected(self):
        return [SweepRow("", None, 0.0, 0.0, 0.0, True)] * self.n


def plan_digest(plan) -> str:
    study = plan.study
    parts = [study.name, study.fingerprint()]
    parts += [(job.key, job.label, job.kind, job.seed) for job in study.jobs]
    if study.name.startswith("sweep:"):
        rows = plan.collect(_Collected(len(study.jobs)))
        parts += [(row.parameter, row.value) for row in rows]
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _spec(text: str):
    return plan_from_spec(json.loads(text))


def _chaos_spec(**fields):
    spec = {"kind": "chaos", "scenario": "paper-mesh4",
            "seeds": [1000, 1001, 1002], "duration_s": 120, "loss": 0.05,
            "colluders": 1}
    spec.update(fields)
    return plan_from_spec(spec)


CASES = {
    **{f"axis:{name}:defaults": (lambda name=name: compile_axis(name))
       for name in AXES},
    **{
        f"axis:{name}:set": (lambda name=name: compile_axis(
            name, values=AXIS_VALUES[name], seed=3, scenario="ring",
            duration=45 * SECONDS, warmup_records=7, fidelity="adaptive",
        ))
        for name in AXES
    },
    **{f"spec:sweep:{name}": (lambda name=name: plan_from_spec(
        {"kind": "sweep", "study": name})) for name in AXES},
    "envelope:defaults": lambda: compile_envelope(),
    "envelope:ci-smoke": lambda: compile_envelope(
        scenarios=("paper-mesh4",), attack_check=False,
        duration=60 * SECONDS,
    ),
    **{f"spec:example:{os.path.basename(path)}": (
        lambda path=path: plan_from_spec(load_spec(path)))
       for path in EXAMPLES},
    "spec:sweep:faultbudget-json-arrays": lambda: _spec(
        '{"kind": "sweep", "study": "faultbudget", '
        '"values": [[1, 4], [2, 7]], "duration_s": 30}'
    ),
    "spec:sweep:lossrate-set": lambda: _spec(
        '{"kind": "sweep", "study": "lossrate", "seed": 4, '
        '"scenario": "ring", "duration_s": 50, "warmup_records": 5, '
        '"fidelity": "adaptive", "values": [0.1, 0.0]}'
    ),
    "spec:envelope:defaults": lambda: _spec('{"kind": "envelope"}'),
    "spec:envelope:set": lambda: _spec(
        '{"kind": "envelope", "scenarios": ["paper-mesh4", "ring"], '
        '"seed": 5, "duration_s": 30, "attack_check": true, '
        '"attack_colluders": 1, "warmup_records": 4, '
        '"fidelity": "adaptive"}'
    ),
    "spec:chaos:defaults-given": lambda: _chaos_spec(
        loss_start_s=60, attack_start_s=60, margin=0.8),
    "spec:chaos:defaults-left-out": lambda: _chaos_spec(),
    "spec:chaos:benchmark-shape": lambda: _chaos_spec(
        name="perfbench-chaos", duration_s=8, loss_start_s=3,
        attack_start_s=3),
    "spec:chaos:set": lambda: _spec(
        '{"kind": "chaos", "seeds": [2], "duration_s": 100, '
        '"colluders": 2, "margin": 0.5, "attack_start_s": 30, '
        '"fidelity": "adaptive"}'
    ),
}


def test_examples_found():
    assert [os.path.basename(p) for p in EXAMPLES] == [
        "envelope_full.json", "mc_mesh4_smoke.json"]


def test_every_case_pinned():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_study_identity(case):
    assert plan_digest(CASES[case]()) == GOLDEN[case]


def test_chaos_defaults_given_or_left_out_compile_alike():
    assert (GOLDEN["spec:chaos:defaults-given"]
            == GOLDEN["spec:chaos:defaults-left-out"])
