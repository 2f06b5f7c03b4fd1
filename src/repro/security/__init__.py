"""Security model: kernel vulnerabilities, attacks, OS diversification.

The cyber-resilience experiment (§III-B) assumes an attacker holding
restricted user credentials on two virtual grandmasters who escalates to
root via a kernel exploit (CVE-2018-18955 against Linux v4.19.1) and then
replaces the benign ptp4l instances with malicious ones shifting
``preciseOriginTimestamp`` by −24 µs.

We model the part of that chain the clock synchronization architecture can
actually observe: an exploit attempt **succeeds iff the target VM's kernel
version is affected by the CVE** (:mod:`repro.security.kernels`), in which
case the VM is compromised and its GM instance turns malicious. The
attempts are ``exploit`` stages of a chaos plan
(:mod:`repro.chaos.orchestrator`). Whether the fleet shares exploitable
stacks is decided by the diversification policy
(:mod:`repro.security.diversity`) — the paper's Fig. 3a vs Fig. 3b
difference is exactly ``identical`` vs ``diverse``.

Beyond the paper's static attacker, :mod:`repro.security.attacks` models
steered and on-path adversaries (ramps, in-window collusion, adaptive
retargeting, Sync suppression, asymmetric delay, wormhole replay), and
:mod:`repro.security.campaigns` schedules them declaratively as
serializable multi-stage campaigns graded by the invariant monitor.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "attacks": (
        "RampAttack",
        "OscillatingAttack",
        "CollusionAttack",
        "AdaptiveAttack",
        "SyncSuppressionAttack",
        "DelayAttack",
        "WormholeAttack",
    ),
    "campaigns": (
        "AttackCampaign",
        "AttackStage",
        "CAMPAIGN_SCHEMA_VERSION",
        "colluder_campaign",
        "load_campaign",
        "dump_campaign",
    ),
    "diversity": ("assign_kernels", "shared_vulnerabilities"),
    "kernels": (
        "Vulnerability",
        "VULNERABILITY_DB",
        "CVE_2018_18955",
        "is_vulnerable",
        "parse_kernel_version",
    ),
})
