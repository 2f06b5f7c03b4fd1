"""Cross-checks between the analytical bound and the measured system.

These tests tie the theory module to the simulation: the convergence
function's prediction must actually envelope what the built system does,
seed after seed — the property the whole paper rests on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.testbed import Testbed, TestbedConfig
from repro.sim.timebase import MINUTES


class TestBoundEnvelopesMeasurement:
    @given(seed=st.integers(1, 10_000))
    @settings(max_examples=5, deadline=None)
    @pytest.mark.slow
    def test_steady_state_precision_within_bound_any_seed(self, seed):
        tb = Testbed(TestbedConfig(seed=seed))
        tb.run_until(2 * MINUTES)
        bounds = tb.derive_bounds()
        late = [r.precision for r in tb.series.records[30:]]
        assert late, "no records"
        assert max(late) < bounds.precision_bound

    def test_bound_scales_with_mesh_latency_spread(self):
        from repro.network.topology import MeshModel

        tight = Testbed(TestbedConfig(
            seed=5,
            mesh=MeshModel(trunk_base_range=(1_700, 1_800),
                           trunk_jitter_range=(100, 150),
                           access_base_range=(1_400, 1_500),
                           access_jitter_range=(100, 120)),
        ))
        loose = Testbed(TestbedConfig(
            seed=5,
            mesh=MeshModel(trunk_base_range=(1_200, 2_600),
                           trunk_jitter_range=(300, 700),
                           access_base_range=(1_000, 2_200),
                           access_jitter_range=(200, 500)),
        ))
        tight.run_until(30_000_000_000)
        loose.run_until(30_000_000_000)
        assert (
            tight.derive_bounds().reading_error
            < loose.derive_bounds().reading_error
        )

    def test_measured_error_term_grows_with_asymmetric_receivers(self):
        tb = Testbed(TestbedConfig(seed=6))
        tb.run_until(30_000_000_000)
        from repro.measurement.error import measurement_error

        symmetric = measurement_error(
            tb.topology, tb.measurement_vm_name, tb.receiver_names
        )
        with_local = measurement_error(
            tb.topology,
            tb.measurement_vm_name,
            tb.receiver_names + [tb.excluded_vm_name],
        )
        # The paper's reason for excluding c_m1: path asymmetry inflates γ.
        assert with_local > symmetric


class TestManifestBoundsRoundTrip:
    """Bound figures survive the metrics-export manifest round trip.

    The v3 manifest carries the measured §III-A3 figures and the
    closed-form prediction side by side; a results JSON must rebuild
    into the exact same objects so offline graders see what the run saw.
    """

    def test_manifest_round_trips_measured_and_predicted(self):
        from repro.analysis.bounds_theory import TheoreticalBounds
        from repro.metrics import MetricsRegistry
        from repro.metrics.manifest import (
            METRICS_SCHEMA_VERSION,
            RunManifest,
            run_manifest,
        )

        tb = Testbed(TestbedConfig(seed=1))
        tb.run_until(30_000_000_000)
        bounds = tb.derive_bounds()
        manifest = run_manifest(
            MetricsRegistry(),
            experiment="test:bounds",
            config_fingerprint="deadbeef",
            wall_time_s=None,
            seeds=[1],
            bounds=bounds,
        )
        assert METRICS_SCHEMA_VERSION == 3
        assert manifest.schema_version == 3

        doc = manifest.to_dict()
        # The measured block no longer nests the prediction — the two
        # travel as sibling top-level keys.
        assert "predicted" not in doc["bounds"]
        assert doc["bounds"]["precision_bound_ns"] == bounds.precision_bound
        again = RunManifest.from_dict(doc)
        assert again.to_dict() == doc

        rebuilt = TheoreticalBounds.from_dict(again.predicted_bounds)
        assert rebuilt == bounds.predicted
        assert rebuilt.envelope == bounds.predicted.envelope

    def test_manifest_without_bounds_still_round_trips(self):
        from repro.metrics.manifest import RunManifest

        manifest = RunManifest(
            experiment="test:none", config_fingerprint="cafe", seeds=[2]
        )
        doc = manifest.to_dict()
        again = RunManifest.from_dict(doc)
        assert again.bounds is None
        assert again.predicted_bounds is None
        assert again.to_dict() == doc
