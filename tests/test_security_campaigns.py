"""Oracle suite for the adversary campaign layer.

Written before the implementation (test-first): these tests define the
contract of ``repro.security.campaigns`` and the new attack primitives in
``repro.security.attacks``:

* the declarative, schema-versioned :class:`AttackCampaign` round-trips
  through dicts and files and compiles to chaos-plan attack stages;
* each attack primitive produces its intended clock perturbation on a
  minimal testbed (constant in-window shift, adaptive retargeting,
  selective Sync suppression, asymmetric delay, wormhole replay);
* campaign-free runs stay byte-identical to the pre-campaign build (the
  golden-run hashes of ``test_scenario_golden`` pin the heavy half; here we
  pin the scenario fingerprints and config equality);
* the breaking-point sweep masks f <= floor colluders (monitor PASS) and
  flips to FAIL beyond it (slow tier).
"""

import dataclasses

import pytest

from repro.chaos import ChaosPlan, ChaosStage
from repro.chaos.plan import ATTACK_KINDS, merge_plans
from repro.core.validity import ValidityConfig
from repro.experiments.testbed import Testbed, TestbedConfig
from repro.monitoring import FAIL, PASS
from repro.scenarios import resolve_scenario
from repro.security.attacks import (
    AdaptiveAttack,
    CollusionAttack,
    DelayAttack,
    SyncSuppressionAttack,
    WormholeAttack,
)
from repro.security.campaigns import (
    CAMPAIGN_SCHEMA_VERSION,
    AttackCampaign,
    AttackStage,
    colluder_campaign,
    dump_campaign,
    load_campaign,
)
from repro.sim.timebase import MICROSECONDS, MILLISECONDS, MINUTES, SECONDS


#: Scenario fingerprints of the pre-campaign build: adding the optional
#: ``attack_campaign`` field must not move any of them (it is omitted from
#: the serialized form when unset, like ``chaos_plan`` before it).
PINNED_FINGERPRINTS = {
    "paper-mesh4":
        "a394aede57c7ab2a0ad986a895b06e3b1959d6e11e97edbe045f8bd3c125bfb7",
    "ring":
        "5aac46c4d9338dcf267d72a6209f32332ee9f851b03d6c715d9901a223703db0",
    "mesh8":
        "a94694e86ed56e578226fff893c39618b203b99b0f69da1baadd61b19741d046",
}


def converged_testbed(seed):
    tb = Testbed(TestbedConfig(seed=seed, kernel_policy="identical"))
    tb.run_until(2 * MINUTES)
    return tb


def kitchen_sink_campaign():
    """One stage of every kind (the serialization worst case)."""
    return AttackCampaign(name="kitchen-sink", stages=(
        AttackStage(start=10 * SECONDS, stop=20 * SECONDS, kind="ramp",
                    victims=("c1_1",), step_per_update=-50),
        AttackStage(start=15 * SECONDS, kind="oscillate", victims=("c2_1",),
                    amplitude=7_000, period_updates=8),
        AttackStage(start=30 * SECONDS, stop=90 * SECONDS, kind="collude",
                    victims=("c3_1", "c4_1"), shift=-4_500),
        AttackStage(start=40 * SECONDS, kind="adaptive",
                    victims=("c1_1", "c2_1"), observer="c2_1", shift=-3_000),
        AttackStage(start=50 * SECONDS, stop=60 * SECONDS, kind="suppress",
                    links=("nic:c4_1",), domains=(4,), drop_prob=0.5),
        AttackStage(start=55 * SECONDS, kind="delay", links=("sw1-sw2",),
                    extra_delay=30_000, domains=(1,)),
        AttackStage(start=70 * SECONDS, kind="wormhole", links=("sw1-sw2",),
                    dest="sw3-sw4", tunnel_delay=2 * MILLISECONDS,
                    label="tunnel"),
    ))


# ----------------------------------------------------------------------
# Campaign schema
# ----------------------------------------------------------------------
class TestCampaignSchema:
    def test_round_trip(self):
        campaign = kitchen_sink_campaign()
        assert AttackCampaign.from_dict(campaign.to_dict()) == campaign

    def test_file_round_trip(self, tmp_path):
        campaign = kitchen_sink_campaign()
        path = tmp_path / "campaign.json"
        dump_campaign(campaign, path)
        assert load_campaign(path) == campaign

    def test_schema_version_present_and_pinned(self):
        doc = kitchen_sink_campaign().to_dict()
        assert doc["schema_version"] == CAMPAIGN_SCHEMA_VERSION == 1

    def test_unsupported_schema_version_rejected(self):
        doc = kitchen_sink_campaign().to_dict()
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            AttackCampaign.from_dict(doc)

    def test_unknown_stage_keys_rejected(self):
        with pytest.raises(ValueError):
            AttackStage.from_dict(
                {"start": 0, "kind": "collude", "victims": ["c1_1"],
                 "frobnicate": 1}
            )

    def test_unknown_campaign_keys_rejected(self):
        doc = kitchen_sink_campaign().to_dict()
        doc["frobnicate"] = 1
        with pytest.raises(ValueError):
            AttackCampaign.from_dict(doc)

    def test_campaign_needs_name(self):
        with pytest.raises(ValueError):
            AttackCampaign(name="")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AttackStage(start=0, kind="nonsense", victims=("c1_1",))

    def test_gm_kind_needs_victims(self):
        with pytest.raises(ValueError):
            AttackStage(start=0, kind="collude")

    def test_link_kind_needs_links(self):
        with pytest.raises(ValueError):
            AttackStage(start=0, kind="suppress")

    def test_wormhole_needs_dest(self):
        with pytest.raises(ValueError):
            AttackStage(start=0, kind="wormhole", links=("sw1-sw2",))

    def test_stop_after_start(self):
        with pytest.raises(ValueError):
            AttackStage(start=10, stop=10, kind="collude", victims=("c1_1",))

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            AttackStage(start=-1, kind="collude", victims=("c1_1",))

    def test_bad_victim_name_rejected_at_load_time(self):
        # Satellite: attacker names are validated when the stage is built
        # (and hence when a JSON file is loaded), not when the stage fires.
        with pytest.raises(ValueError, match="not a clock-sync VM name"):
            AttackStage(start=0, kind="collude", victims=("bogus",))

    def test_compile_shape(self):
        campaign = kitchen_sink_campaign()
        plan = campaign.compile()
        assert isinstance(plan, ChaosPlan)
        assert plan.name == "campaign:kitchen-sink"
        launches = [s for s in plan.stages if s.action == "attack"]
        stops = [s for s in plan.stages if s.action == "attack_stop"]
        assert len(launches) == len(campaign.stages)
        assert len(stops) == sum(
            1 for s in campaign.stages if s.stop is not None
        )
        # Stages come out in schedule order.
        assert [s.at for s in plan.stages] == sorted(s.at for s in plan.stages)
        # Every launch carries a label and each stop targets exactly one.
        labels = [s.label for s in launches]
        assert all(labels) and len(set(labels)) == len(labels)
        assert {s.label for s in stops} <= set(labels)
        # An explicit stage label survives compilation.
        assert "tunnel" in labels

    def test_compile_passes_parameters_through(self):
        campaign = kitchen_sink_campaign()
        by_kind = {s.attack: s for s in campaign.compile().stages
                   if s.action == "attack"}
        assert by_kind["collude"].shift == -4_500
        assert by_kind["collude"].victims == ("c3_1", "c4_1")
        assert by_kind["adaptive"].observer == "c2_1"
        assert by_kind["suppress"].drop_prob == 0.5
        assert by_kind["suppress"].domains == (4,)
        assert by_kind["delay"].extra_delay == 30_000
        assert by_kind["wormhole"].dest == "sw3-sw4"
        assert by_kind["wormhole"].tunnel_delay == 2 * MILLISECONDS

    def test_every_campaign_kind_is_a_chaos_attack_kind(self):
        for stage in kitchen_sink_campaign().stages:
            assert stage.kind in ATTACK_KINDS

    def test_colluder_campaign_stays_in_window(self):
        threshold = ValidityConfig().threshold
        campaign = colluder_campaign(2, ["c1_1", "c2_1", "c3_1", "c4_1"])
        (stage,) = campaign.stages
        assert stage.kind == "collude"
        assert len(stage.victims) == 2
        assert 0 < abs(stage.shift) < threshold

    def test_colluder_campaign_counts(self):
        gms = ["c1_1", "c2_1", "c3_1", "c4_1"]
        assert len(colluder_campaign(1, gms).stages[0].victims) == 1
        assert len(colluder_campaign(3, gms).stages[0].victims) == 3
        with pytest.raises(ValueError):
            colluder_campaign(0, gms)
        with pytest.raises(ValueError):
            colluder_campaign(5, gms)

    def test_config_gm_names_placements(self):
        # Colluder victims come from the testbed's own GM placement.
        assert TestbedConfig().gm_names() == ["c1_1", "c2_1", "c3_1", "c4_1"]
        assert TestbedConfig(gm_placement="reversed").gm_names() == [
            "c4_1", "c3_1", "c2_1", "c1_1"
        ]
        assert TestbedConfig(n_devices=8, n_domains=4).gm_names() == [
            "c1_1", "c2_1", "c3_1", "c4_1"
        ]


class TestCampaignSerializationProperties:
    """Hypothesis: arbitrary well-formed campaigns survive the round trip."""

    def test_generated_campaigns_round_trip(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        vm_names = st.from_regex(r"c[1-8]_[1-2]", fullmatch=True)
        times = st.integers(min_value=0, max_value=600 * SECONDS)

        def gm_stage(kind):
            return st.builds(
                AttackStage,
                start=times,
                kind=st.just(kind),
                victims=st.lists(vm_names, min_size=1, max_size=4,
                                 unique=True).map(tuple),
                shift=st.integers(min_value=-20_000, max_value=-1),
                step_per_update=st.integers(min_value=-500, max_value=-1),
                amplitude=st.integers(min_value=1, max_value=50_000),
                period_updates=st.integers(min_value=2, max_value=64),
            )

        link_selectors = st.sampled_from(
            ["*", "sw1-sw2", "sw3-sw4", "nic:c2_1", "device:1"]
        )

        def link_stage(kind):
            return st.builds(
                AttackStage,
                start=times,
                kind=st.just(kind),
                links=st.lists(link_selectors, min_size=1, max_size=3,
                               unique=True).map(tuple),
                domains=st.lists(st.integers(1, 8), max_size=3,
                                 unique=True).map(tuple),
                drop_prob=st.floats(min_value=0.01, max_value=1.0),
                extra_delay=st.integers(min_value=1, max_value=100_000),
                tunnel_delay=st.integers(min_value=0, max_value=10_000_000),
                dest=st.just("sw1-sw2"),
            )

        stages = st.one_of(
            [gm_stage(k) for k in ("ramp", "oscillate", "collude", "adaptive")]
            + [link_stage(k) for k in ("suppress", "delay", "wormhole")]
        )
        campaigns = st.builds(
            AttackCampaign,
            name=st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz-0123456789",
                min_size=1, max_size=20,
            ),
            stages=st.lists(stages, min_size=1, max_size=5).map(tuple),
        )

        @given(campaign=campaigns)
        @settings(max_examples=40, deadline=None)
        def check(campaign):
            assert AttackCampaign.from_dict(campaign.to_dict()) == campaign
            # Compilation never loses a launch.
            plan = campaign.compile()
            assert sum(1 for s in plan.stages if s.action == "attack") == len(
                campaign.stages
            )

        check()


# ----------------------------------------------------------------------
# Scenario / experiment threading and byte-identity
# ----------------------------------------------------------------------
class TestScenarioThreading:
    def test_scenario_carries_campaign_through_serialization(self):
        base = resolve_scenario("paper-mesh4")
        campaign = colluder_campaign(2, TestbedConfig().gm_names())
        spec = dataclasses.replace(base, attack_campaign=campaign)
        doc = spec.to_dict()
        assert doc["attack_campaign"]["name"] == campaign.name
        assert type(spec).from_dict(doc).attack_campaign == campaign
        # A campaign-free spec stays byte-compatible with older specs.
        assert "attack_campaign" not in base.to_dict()

    def test_campaign_changes_scenario_fingerprint(self):
        base = resolve_scenario("paper-mesh4")
        gms = TestbedConfig().gm_names()
        one = dataclasses.replace(
            base, attack_campaign=colluder_campaign(1, gms)
        )
        two = dataclasses.replace(
            base, attack_campaign=colluder_campaign(2, gms)
        )
        assert base.fingerprint() != one.fingerprint()
        assert one.fingerprint() != two.fingerprint()

    def test_campaign_free_fingerprints_unchanged(self):
        # The pre-campaign fingerprints, pinned: cache keys and manifests
        # of every existing scenario stay valid.
        for name, expected in PINNED_FINGERPRINTS.items():
            assert resolve_scenario(name).fingerprint() == expected, name

    def test_campaign_free_configs_byte_identical(self):
        # No-campaign runs must stay byte-identical for the golden seeds:
        # the materialized TestbedConfig is field-identical to the
        # pre-campaign default, so the same RNG draws and event order
        # follow (test_scenario_golden pins the actual run hashes).
        spec = resolve_scenario("paper-mesh4")
        for seed in (1, 21, 42):
            assert spec.testbed_config(seed=seed) == TestbedConfig(seed=seed)

    def test_campaign_materializes_into_chaos(self):
        campaign = colluder_campaign(2, TestbedConfig().gm_names(),
                                     start=30 * SECONDS)
        spec = dataclasses.replace(
            resolve_scenario("paper-mesh4"), attack_campaign=campaign
        )
        config = spec.testbed_config(seed=7)
        assert config.chaos is not None
        attacks = [s for s in config.chaos.stages if s.action == "attack"]
        assert len(attacks) == 1
        assert attacks[0].attack == "collude"
        assert attacks[0].at == 30 * SECONDS

    def test_campaign_merges_with_existing_chaos_plan(self):
        from repro.chaos import single_loss_plan

        campaign = colluder_campaign(1, TestbedConfig().gm_names())
        spec = dataclasses.replace(
            resolve_scenario("paper-mesh4"),
            chaos_plan=single_loss_plan(0.1),
            attack_campaign=campaign,
        )
        chaos = spec.testbed_config(seed=7).chaos
        actions = [s.action for s in chaos.stages]
        assert "impair" in actions and "attack" in actions
        assert [s.at for s in chaos.stages] == sorted(
            s.at for s in chaos.stages
        )

    def test_merge_plans_orders_stages(self):
        a = ChaosPlan(name="a", stages=(
            ChaosStage(at=50 * SECONDS, action="link_down", links=("*",)),
        ))
        b = ChaosPlan(name="b", stages=(
            ChaosStage(at=10 * SECONDS, action="link_up", links=("*",)),
        ))
        merged = merge_plans(a, b)
        assert merged.name == "a+b"
        assert [s.at for s in merged.stages] == [10 * SECONDS, 50 * SECONDS]


# ----------------------------------------------------------------------
# Attack primitive oracles (minimal testbeds)
# ----------------------------------------------------------------------
class TestCollusionAttack:
    def test_constant_in_window_shift_applied(self):
        tb = converged_testbed(seed=81)
        threshold = ValidityConfig().threshold
        shift = -round(0.8 * threshold)
        attack = CollusionAttack(
            tb.sim, [tb.vms["c3_1"], tb.vms["c4_1"]], shift=shift,
            trace=tb.trace,
        )
        attack.launch()
        tb.run_until(tb.sim.now + 1 * SECONDS)
        for name, dom in (("c3_1", 3), ("c4_1", 4)):
            assert tb.vms[name].compromised
            assert (
                tb.vms[name].stack.instances[dom].malicious_origin_shift
                == shift
            )
        # The shift is constant: unchanged after another minute.
        tb.run_until(tb.sim.now + MINUTES)
        assert tb.vms["c4_1"].stack.instances[4].malicious_origin_shift == shift
        assert abs(shift) < threshold  # in-window by construction

    def test_colluders_stay_vouched_valid(self):
        # The worst-case adversary: an in-window colluding pair is never
        # invalidated — every honest VM keeps vouching for both domains.
        tb = converged_testbed(seed=82)
        attack = CollusionAttack(
            tb.sim, [tb.vms["c3_1"], tb.vms["c4_1"]], shift=-4_000,
        )
        attack.launch()
        observer = tb.vms[tb.measurement_vm_name]
        seen_invalid = 0
        for _ in range(200):  # 25 s in sync-interval steps
            tb.run_until(tb.sim.now + 125 * MILLISECONDS)
            flags = observer.aggregator.last_valid_flags
            if not (flags.get(3, True) and flags.get(4, True)):
                seen_invalid += 1
        assert seen_invalid == 0


class TestAdaptiveAttack:
    def test_retargets_away_from_invalidated_domains(self):
        tb = converged_testbed(seed=83)
        observer = tb.vms["c2_1"]
        attack = AdaptiveAttack(
            tb.sim, [tb.vms["c3_1"], tb.vms["c4_1"]], observer=observer,
            shift=-4_000, trace=tb.trace,
        )
        attack.launch()
        tb.run_until(tb.sim.now + 1 * SECONDS)
        # Both domains valid -> both victims push.
        assert tb.vms["c3_1"].stack.instances[3].malicious_origin_shift == -4_000
        assert tb.vms["c4_1"].stack.instances[4].malicious_origin_shift == -4_000
        # Observer sees domain 4 invalidated -> that victim backs off to
        # regain trust while the other keeps pushing.
        flags = dict(observer.aggregator.last_valid_flags)
        flags[4] = False
        observer.aggregator.last_valid_flags = flags
        attack._tick()
        assert tb.vms["c4_1"].stack.instances[4].malicious_origin_shift == 0
        assert tb.vms["c3_1"].stack.instances[3].malicious_origin_shift == -4_000
        assert attack.retargets >= 1


class TestSyncSuppression:
    def test_selective_suppression_starves_target_domain(self):
        tb = converged_testbed(seed=84)
        link = tb.topology.access_links["c4_1"]
        attack = SyncSuppressionAttack(
            tb.sim, [link], tb.rng.stream("attack.suppress.test"),
            domains=(4,), drop_prob=1.0, trace=tb.trace,
        )
        honest = tb.vms["c1_1"]
        before = honest.stack.instances[4].offsets_computed
        other_before = honest.stack.instances[2].offsets_computed
        attack.launch()
        tb.run_until(tb.sim.now + 5 * SECONDS)
        # Domain 4's Sync stream is gone; other domains are untouched.
        assert attack.packets_suppressed > 0
        assert honest.stack.instances[4].offsets_computed == before
        assert honest.stack.instances[2].offsets_computed > other_before
        # Staleness propagates: the aggregator stops trusting domain 4.
        assert honest.aggregator.last_valid_flags.get(4, False) is False

    def test_stop_restores_link_and_domain_recovers(self):
        tb = converged_testbed(seed=85)
        link = tb.topology.access_links["c4_1"]
        assert link.impairment is None
        attack = SyncSuppressionAttack(
            tb.sim, [link], tb.rng.stream("attack.suppress.test"),
            domains=(4,), drop_prob=1.0,
        )
        attack.launch()
        assert link.impairment is not None
        tb.run_until(tb.sim.now + 2 * SECONDS)
        attack.stop()
        assert link.impairment is None
        honest = tb.vms["c1_1"]
        resumed_from = honest.stack.instances[4].offsets_computed
        tb.run_until(tb.sim.now + 2 * SECONDS)
        assert honest.stack.instances[4].offsets_computed > resumed_from

    def test_wraps_existing_impairment(self):
        from repro.network.impairments import ImpairmentSpec, LinkImpairment

        tb = converged_testbed(seed=86)
        link = tb.topology.access_links["c4_1"]
        imp = LinkImpairment(
            ImpairmentSpec(loss=0.0), tb.rng.stream("impairment.test"),
            link_name=link.name,
        )
        link.attach_impairment(imp)
        attack = SyncSuppressionAttack(
            tb.sim, [link], tb.rng.stream("attack.suppress.test"),
            domains=(4,), drop_prob=1.0,
        )
        attack.launch()
        tb.run_until(tb.sim.now + 2 * SECONDS)
        # Non-suppressed traffic still flows through the inner impairment.
        assert imp.stats()["seen"] > 0
        attack.stop()
        assert link.impairment is imp


class TestDelayAttack:
    def test_asymmetric_delay_shifts_readings(self):
        tb = converged_testbed(seed=87)
        honest = tb.vms["c1_1"]
        before = honest.aggregator.shmem.offsets[4].sample.offset
        extra = 30 * MICROSECONDS
        attack = DelayAttack(
            tb.sim, [tb.topology.access_links["c4_1"]], extra_delay=extra,
            domains=(4,), trace=tb.trace,
        )
        attack.launch()
        tb.run_until(tb.sim.now + 3 * SECONDS)
        after = honest.aggregator.shmem.offsets[4].sample.offset
        # Delayed Sync arrives late while pdelay is untouched: the reading
        # for the victim domain moves by ~ the injected delay.
        assert attack.packets_delayed > 0
        assert after - before == pytest.approx(extra, abs=10_000)
        # Other domains unaffected (within normal jitter).
        assert abs(honest.aggregator.shmem.offsets[2].sample.offset) < 10_000

    def test_stop_restores_readings(self):
        tb = converged_testbed(seed=88)
        honest = tb.vms["c1_1"]
        attack = DelayAttack(
            tb.sim, [tb.topology.access_links["c4_1"]],
            extra_delay=30 * MICROSECONDS, domains=(4,),
        )
        attack.launch()
        tb.run_until(tb.sim.now + 3 * SECONDS)
        attack.stop()
        tb.run_until(tb.sim.now + 3 * SECONDS)
        assert abs(honest.aggregator.shmem.offsets[4].sample.offset) < 10_000


class TestWormhole:
    def test_replay_onto_tree_edge_perturbs_far_segment(self):
        tb = converged_testbed(seed=89)
        src = tb.topology.trunk("sw1", "sw2")
        # The replay target must sit on the victim domain's distribution
        # tree: 802.1AS bridges terminate and regenerate Sync, accepting it
        # only on the domain's configured slave port — injecting onto an
        # off-tree trunk is silently dropped by the relay (see the
        # companion test below). sw1-sw4 is domain 1's tree edge into sw4.
        dest = tb.topology.trunk("sw1", "sw4")
        attack = WormholeAttack(
            tb.sim, [src], dest=dest, tunnel_delay=2 * MILLISECONDS,
            domains=(1,), trace=tb.trace,
        )
        attack.launch()
        invalid_seen = False
        for _ in range(80):  # 10 s in sync-interval steps
            tb.run_until(tb.sim.now + 125 * MILLISECONDS)
            for name in ("c4_1", "c4_2"):
                if tb.vms[name].aggregator.last_valid_flags.get(1, True) is False:
                    invalid_seen = True
        assert attack.packets_tunneled > 0
        # Replayed Sync/FollowUp pairs carry a multi-ms detour the
        # correction field knows nothing about: the stale copies poison
        # domain 1's slot behind sw4 until the validity check throws the
        # domain out there.
        assert invalid_seen

    def test_replay_off_tree_is_dropped_by_relay(self):
        # Defense-in-depth the paper gets for free: because bridges never
        # *forward* Sync (they regenerate it, per-domain, from the static
        # slave port only), a wormhole into a non-tree link does nothing.
        tb = converged_testbed(seed=89)
        src = tb.topology.trunk("sw1", "sw2")
        dest = tb.topology.trunk("sw3", "sw4")  # not on domain 1's tree
        attack = WormholeAttack(
            tb.sim, [src], dest=dest, tunnel_delay=2 * MILLISECONDS,
            domains=(1,),
        )
        attack.launch()
        invalid_seen = False
        for _ in range(40):
            tb.run_until(tb.sim.now + 125 * MILLISECONDS)
            for name in ("c3_1", "c4_1", "c3_2", "c4_2"):
                if tb.vms[name].aggregator.last_valid_flags.get(1, True) is False:
                    invalid_seen = True
        assert attack.packets_tunneled > 0
        assert not invalid_seen

    def test_stop_restores_both_links(self):
        tb = converged_testbed(seed=90)
        src = tb.topology.trunk("sw1", "sw2")
        dest = tb.topology.trunk("sw3", "sw4")
        attack = WormholeAttack(tb.sim, [src], dest=dest,
                                tunnel_delay=1 * MILLISECONDS)
        attack.launch()
        assert src.impairment is not None
        tb.run_until(tb.sim.now + 1 * SECONDS)
        attack.stop()
        assert src.impairment is None
        assert dest.impairment is None


# ----------------------------------------------------------------------
# Chaos-plan integration of the new kinds
# ----------------------------------------------------------------------
class TestChaosPlanIntegration:
    def test_collude_stage_launches(self):
        plan = ChaosPlan(name="collusion", stages=(
            ChaosStage(at=1 * SECONDS, action="attack", attack="collude",
                       victims=("c3_1", "c4_1"), shift=-4_000),
        ))
        tb = Testbed(TestbedConfig(seed=5, chaos=plan))
        tb.run_until(2 * SECONDS)
        assert len(tb.chaos.attacks) == 1
        assert isinstance(tb.chaos.attacks[0], CollusionAttack)
        assert tb.vms["c4_1"].stack.instances[4].malicious_origin_shift == -4_000

    def test_suppress_stage_launches_on_links(self):
        plan = ChaosPlan(name="suppression", stages=(
            ChaosStage(at=1 * SECONDS, action="attack", attack="suppress",
                       links=("nic:c4_1",), domains=(4,)),
        ))
        tb = Testbed(TestbedConfig(seed=5, chaos=plan))
        tb.run_until(3 * SECONDS)
        assert len(tb.chaos.attacks) == 1
        assert isinstance(tb.chaos.attacks[0], SyncSuppressionAttack)
        assert tb.chaos.attacks[0].packets_suppressed > 0

    def test_labeled_attack_stop_is_selective(self):
        plan = ChaosPlan(name="two-attacks", stages=(
            ChaosStage(at=1 * SECONDS, action="attack", attack="ramp",
                       victims=("c1_1",), label="walker"),
            ChaosStage(at=1 * SECONDS, action="attack", attack="collude",
                       victims=("c3_1", "c4_1"), shift=-4_000,
                       label="colluders"),
            ChaosStage(at=3 * SECONDS, action="attack_stop", label="walker"),
        ))
        tb = Testbed(TestbedConfig(seed=5, chaos=plan))
        tb.run_until(4 * SECONDS)
        walker = next(a for a in tb.chaos.attacks if a.label == "walker")
        colluders = next(a for a in tb.chaos.attacks
                         if a.label == "colluders")
        walker_ticks = walker.ticks
        colluder_ticks = colluders.ticks
        tb.run_until(5 * SECONDS)
        assert walker.ticks == walker_ticks          # stopped
        assert colluders.ticks > colluder_ticks      # still running

    def test_unlabeled_attack_stop_stops_everything(self):
        plan = ChaosPlan(name="stop-all", stages=(
            ChaosStage(at=1 * SECONDS, action="attack", attack="ramp",
                       victims=("c1_1",)),
            ChaosStage(at=1 * SECONDS, action="attack", attack="oscillate",
                       victims=("c2_1",)),
            ChaosStage(at=2 * SECONDS, action="attack_stop"),
        ))
        tb = Testbed(TestbedConfig(seed=5, chaos=plan))
        tb.run_until(3 * SECONDS)
        ticks = [a.ticks for a in tb.chaos.attacks]
        tb.run_until(4 * SECONDS)
        assert [a.ticks for a in tb.chaos.attacks] == ticks

    def test_bad_victim_name_rejected_at_plan_load(self):
        # Satellite: the stage constructor (= plan load) rejects names that
        # cannot be clock-sync VMs, with a message naming the offender.
        with pytest.raises(ValueError, match="bogus.*not a clock-sync VM"):
            ChaosStage(at=0, action="attack", attack="ramp",
                       victims=("bogus",))

    def test_unknown_victim_rejected_at_orchestrator_start(self):
        # Syntactically fine but absent from this testbed: rejected when
        # the orchestrator starts (testbed build), naming the known VMs —
        # not as a bare KeyError when the stage eventually fires.
        plan = ChaosPlan(name="ghost", stages=(
            ChaosStage(at=1 * SECONDS, action="attack", attack="ramp",
                       victims=("c9_9",)),
        ))
        with pytest.raises(ValueError, match="c9_9") as exc:
            Testbed(TestbedConfig(seed=5, chaos=plan))
        assert "known" in str(exc.value)

    def test_unknown_observer_rejected_at_orchestrator_start(self):
        plan = ChaosPlan(name="blind", stages=(
            ChaosStage(at=1 * SECONDS, action="attack", attack="adaptive",
                       victims=("c1_1",), observer="c9_9"),
        ))
        with pytest.raises(ValueError, match="c9_9"):
            Testbed(TestbedConfig(seed=5, chaos=plan))


# ----------------------------------------------------------------------
# Breaking-point sweep
# ----------------------------------------------------------------------
class TestAttackBudgetSweep:
    def test_breaking_point_of_rows(self):
        from repro.experiments.sweeps import SweepRow, breaking_point

        def row(k, verdict):
            return SweepRow(parameter="colluders", value=k, bound_ns=1.0,
                            avg_precision_ns=1.0, max_precision_ns=1.0,
                            converged=True, verdict=verdict)

        bp = breaking_point([row(0, PASS), row(1, PASS), row(2, FAIL),
                             row(3, FAIL)])
        assert bp["f_actual"] == 1
        assert bp["first_fail"] == 2
        bp = breaking_point([row(0, PASS), row(1, "DEGRADED")])
        assert bp["f_actual"] == 1
        assert bp["first_fail"] is None

    def test_sweep_shape(self):
        from repro.experiments.sweeps import sweep_axis

        rows = sweep_axis(
            "attackbudget", values=(0, 1), seed=5, duration=10 * SECONDS,
            warmup_records=0,
        )
        assert [r.value for r in rows] == [0, 1]
        assert all(r.parameter == "colluders" for r in rows)

    @pytest.mark.slow
    def test_mesh4_masks_f_and_fails_beyond(self):
        """The acceptance oracle: f <= floor masked, f > floor FAIL.

        On paper-mesh4 (M=4, f=1): one in-window colluder is trimmed at
        every gate — the monitor stays PASS over the full window. Two
        colluders exceed the design floor: a colluder survives the trim,
        but *which* colluder (and which honest extreme) varies per VM
        with measurement noise, so the surviving bias is differential —
        the VMs integrate different corrections, the spread grows for
        minutes, and the measured precision leaves Π+γ at t ≈ 800 s —
        monitor FAIL. (A unanimous k = M-1 bloc is gentler: identical
        trims everywhere make the bias common-mode.)
        """
        from repro.experiments.sweeps import breaking_point, sweep_axis

        rows = sweep_axis("attackbudget", values=(1, 2), seed=9,
                          duration=15 * MINUTES)
        by_k = {r.value: r.verdict for r in rows}
        assert by_k[1] == PASS
        assert by_k[2] == FAIL
        bp = breaking_point(rows)
        spec = resolve_scenario("paper-mesh4")
        assert bp["f_actual"] >= spec.f
        assert bp["first_fail"] == 2


@pytest.mark.slow
class TestCampaignExperiment:
    def test_single_colluder_campaign_passes_monitor(self):
        from repro.experiments.chaos import (
            ChaosExperimentConfig,
            run_chaos_experiment,
        )

        campaign = colluder_campaign(1, TestbedConfig().gm_names(),
                                     start=60 * SECONDS)
        result = run_chaos_experiment(ChaosExperimentConfig(
            duration=4 * MINUTES, seed=3, campaign=campaign,
        ))
        assert result.verdict.status == PASS
        assert result.bounded
        assert result.chaos_summary["attacks_launched"] == 1
