"""Declarative chaos plans and their runtime orchestrator."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "plan": (
        "ATTACK_KINDS",
        "CHAOS_ACTIONS",
        "GM_ATTACK_KINDS",
        "LINK_ATTACK_KINDS",
        "VM_ACTIONS",
        "ChaosPlan",
        "ChaosStage",
        "dump_plan",
        "load_plan",
        "merge_plans",
        "single_loss_plan",
    ),
    "orchestrator": ("ChaosOrchestrator", "ExploitAttempt"),
})
