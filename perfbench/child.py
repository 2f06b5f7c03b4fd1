"""Set up one benchmark workload in this process, run it, report as JSON.

``run.py`` starts this script for every set-up it times and every run it
measures, so each pays its own interpreter start, imports and set-up, as
a user's process does. With ``--deadline`` the workload's timed phases
repeat until then (the ``--trace 0`` measurement); otherwise it makes one
pass. The last stdout line is one JSON object. With ``--traced`` the pass
goes under ``cProfile`` and the report carries the per-layer fold.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Per-run scratch space (the study's temporary stores), inside the checkout.
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "toy"))
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--deadline", type=float,
                        help="time.monotonic() by which to stop repeating")
    parser.add_argument("--layers", action="store_true",
                        help="a run of a --trace 1 pair: read the kernel's "
                             "dispatch counter, or profile with --traced")
    parser.add_argument("--traced", action="store_true")
    return parser.parse_args(argv)


def _peak_rss_mib() -> float:
    """Peak resident memory of this process and of the forks it waited
    for, which run parts of the workload from its state."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    size = workloads.SIZES[args.size][args.workload]
    workload = workloads.WORKLOADS[args.workload](args.seed, size, SCRATCH)
    setup_s = time.monotonic() - args.spawned_at
    report = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    profiler = None
    if args.traced:
        import cProfile

        profiler = cProfile.Profile(builtins=True)
    start = time.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            if args.deadline is not None:
                outcome = workload.measure(args.deadline)
            else:
                outcome = workload.run(
                    count_events=args.layers and not args.traced)
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception:  # a failed run is reported, not raised
        report["error"] = traceback.format_exc()
        print(report["error"], file=sys.stderr)
        print(json.dumps(report))
        return 1
    run_wall = time.perf_counter() - start
    report.update(
        run_wall_s=run_wall,
        timings=outcome.timings,
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=outcome.problems,
        sim_events=outcome.sim_events,
        event_wall_s=outcome.event_wall_s,
        counters=outcome.counters,
        samples=outcome.samples,
        digest=workloads.digest(outcome.outputs),
        peak_rss_mb=_peak_rss_mib(),
    )
    if profiler is not None:
        from layers import LayerFolder

        profiler.create_stats()
        folder = LayerFolder(profiler.stats, SRC)
        report["layers"] = {
            "self_s": folder.self_seconds(),
            "calls": folder.calls(),
            "events": folder.events(),
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
