"""Command-line interface: run any paper experiment from the shell.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run fig10            # regenerate one table/figure
    python -m repro run all              # regenerate everything
    python -m repro quickstart           # the save/crash/restore demo

Every experiment prints the same ASCII table its benchmark target checks.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro._version import __version__


def _registry() -> dict[str, tuple[str, Callable]]:
    """Experiment name -> (description, driver)."""
    from repro.bench import experiments as E

    return {
        "fig3": ("recovery rate, 2000-node cluster", E.fig3_recovery_rate),
        "fig4": ("serialization overhead vs bandwidth", E.fig4_serialization_overhead),
        "table1": ("model configurations", E.table1_model_configs),
        "fig10": ("checkpointing time, all engines", E.fig10_checkpoint_time),
        "fig11": ("ECCheck time breakdown", E.fig11_time_breakdown),
        "fig12": ("iteration time vs checkpoint frequency", E.fig12_iteration_overhead),
        "fig13": ("recovery time, two failure scenarios", E.fig13_recovery_time),
        "fig14": ("scalability 4-32 GPUs", E.fig14_scalability),
        "fig15": ("fault-tolerance capacity", E.fig15_fault_tolerance),
        "comm-volume": ("Sec. V-F communication volume", E.comm_volume_scaling),
        "goodput": ("campaign goodput under failures", E.goodput_comparison),
        "ablation-placement": ("sweep-line vs naive placement", E.ablation_placement),
        "ablation-pipelining": ("pipelined vs serial step 3", E.ablation_pipelining),
        "ablation-schedule": ("smart vs dumb XOR schedules", E.ablation_xor_schedule),
        "ablation-cauchy": ("original vs good Cauchy matrix", E.ablation_cauchy_matrix),
        "ablation-throughput": ("measured encode throughput", E.ablation_encoding_throughput),
        "ablation-racks": ("rack-aligned vs transversal groups", E.ablation_rack_aware_grouping),
        "ablation-incremental": ("full vs delta checkpointing", E.ablation_incremental_checkpointing),
    }


def _add_campaign_flags(parser, episodes, report, rounds="", trace=False) -> None:
    """The flags the campaign subcommands share, worded once.

    ``rounds`` (what one round does) adds ``--max-rounds`` and ``trace``
    adds ``--trace``, for the campaigns that have them.
    """
    add = parser.add_argument
    add("--episodes", type=int, default=episodes, help="number of seeded episodes")
    add("--seed", type=int, default=0, help="campaign seed")
    if rounds:
        add("--max-rounds", type=int, default=3, help=f"max {rounds} rounds/episode")
    add("--output", default=report, help="JSON report path ('' to skip writing)")
    if trace:
        add(
            "--trace",
            action="store_true",
            help="run each episode under a tracer and attach per-episode "
            "trace summaries to the report",
        )
    add(
        "--timeline",
        action="store_true",
        help="attach a per-episode telemetry timeline (sim-time series, "
        "events, online alerts where the campaign has rules) to the "
        "report; every other field stays byte-identical",
    )
    add(
        "--timeline-period",
        type=float,
        default=60.0,
        help="sim-seconds between telemetry samples (default 60)",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.core.registry import engine_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ECCheck reproduction: regenerate the paper's experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment name from 'list', or 'all'")

    sub.add_parser("quickstart", help="save / crash two nodes / restore demo")

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection campaign: save/crash/restore cycles with "
        "recovery invariants checked every cycle",
    )
    # --output defaults per campaign: CHAOS_report.json, or TIER_report.json.
    _add_campaign_flags(chaos, 50, None, rounds="save/crash/restore", trace=True)
    chaos.add_argument(
        "--engines",
        default=None,
        help="comma-separated engine names to cycle through (default "
        "eccheck,base1,base2,base3; not accepted with --tiers)",
    )
    chaos.add_argument(
        "--tiers",
        action="store_true",
        help="run the tier-loss campaign instead (ECCheck under a tier "
        "policy; memory-wipe / disk-rot / disk-replacement scenarios "
        "recovered through the memory -> disk -> remote walk); default "
        "output becomes TIER_report.json instead of CHAOS_report.json",
    )

    hybrid = sub.add_parser(
        "hybrid",
        help="replay-aware differential campaign: eccheck vs gradrep vs "
        "hybrid against shared scenarios, with the iterations-lost vs "
        "steady-state-overhead crossover table",
    )
    _add_campaign_flags(hybrid, 20, "HYBRID_report.json", rounds="train/crash/fail")
    hybrid.add_argument(
        "--engines",
        default="eccheck,gradrep,hybrid",
        help="comma-separated engines to run against each shared scenario",
    )
    hybrid.add_argument(
        "--interval",
        type=int,
        default=3,
        help="checkpoint interval (iterations); also scales the "
        "log-depth alert thresholds",
    )
    hybrid.add_argument(
        "--iteration-s",
        type=float,
        default=1.0,
        help="baseline iteration seconds for the crossover computation",
    )
    hybrid.add_argument(
        "--fail-on-alerts",
        action="store_true",
        help="exit non-zero when any violation-severity alert fired "
        "(requires --timeline)",
    )

    elastic = sub.add_parser(
        "elastic",
        help="elastic-membership chaos campaign: degraded checkpointing, "
        "spare joins with background repair, and adaptive (k, m) "
        "reconfiguration, invariants checked every cycle",
    )
    _add_campaign_flags(
        elastic, 30, "ELASTIC_report.json", rounds="train/checkpoint/fail", trace=True
    )
    elastic.add_argument(
        "--redundancy-floor",
        type=int,
        default=1,
        help="minimum parity count a degraded regroup may keep; below it "
        "checkpointing is refused until a spare joins",
    )

    fleet = sub.add_parser(
        "fleet",
        help="multi-tenant fleet campaign: hundreds of jobs on one shared "
        "event loop with admission control, bandwidth arbitration, "
        "correlated failure domains and a fleet-wide spare pool",
    )
    fleet.add_argument(
        "--jobs", type=int, default=50, help="tenants per episode"
    )
    _add_campaign_flags(fleet, 1, "FLEET_report.json")
    fleet.add_argument(
        "--arbitration",
        choices=("fair", "priority"),
        default="fair",
        help="shared-bandwidth arbitration policy",
    )
    fleet.add_argument(
        "--slots", type=int, default=64, help="machine slots in the fleet"
    )
    fleet.add_argument(
        "--spares", type=int, default=6, help="initial fleet spare inventory"
    )
    fleet.add_argument(
        "--duration-hours",
        type=float,
        default=8.0,
        help="failure-trace horizon in simulated hours",
    )
    fleet.add_argument(
        "--no-scaling",
        action="store_true",
        help="skip the jobs-vs-wall-clock scaling curve (CI smoke mode)",
    )
    fleet.add_argument(
        "--dashboard",
        default=None,
        metavar="HTML",
        help="write a self-contained HTML telemetry dashboard (implies "
        "--timeline)",
    )
    fleet.add_argument(
        "--fail-on-alerts",
        action="store_true",
        help="exit 1 if any severity-violation alert fired",
    )

    dashboard = sub.add_parser(
        "dashboard",
        help="render a self-contained HTML telemetry dashboard from a "
        "FLEET_report.json produced with --timeline",
    )
    dashboard.add_argument(
        "report", help="fleet report JSON (run `repro fleet --timeline`)"
    )
    dashboard.add_argument(
        "--output",
        default=None,
        help="HTML path (default: <report>.html)",
    )

    trace = sub.add_parser(
        "trace",
        help="run a traced checkpoint job; emit a JSONL trace plus a "
        "per-phase breakdown cross-checked against the engine reports",
    )
    trace.add_argument(
        "--engine",
        default="eccheck",
        choices=engine_names(),
        help="checkpoint engine to trace",
    )
    trace.add_argument(
        "--iterations", type=int, default=8, help="training iterations to run"
    )
    trace.add_argument(
        "--interval", type=int, default=2, help="iterations between checkpoints"
    )
    trace.add_argument(
        "--backup-every",
        type=int,
        default=2,
        help="checkpoints between remote backups (engines that support it)",
    )
    trace.add_argument(
        "--fail",
        default="1",
        help="comma-separated node ids to fail after training ('' skips "
        "the restore leg)",
    )
    trace.add_argument("--seed", type=int, default=0, help="job seed")
    trace.add_argument(
        "--output",
        default="TRACE_run.jsonl",
        help="JSONL trace path ('' to skip writing)",
    )
    trace.add_argument(
        "--out-dir",
        default=None,
        help="directory to place the trace file in (created if missing)",
    )
    trace.add_argument(
        "--keep-failed",
        action="store_true",
        help="write the trace file even when the crosscheck fails "
        "(default: a failed run writes none)",
    )
    trace.add_argument(
        "--tier-keep",
        type=int,
        default=0,
        help="hot-tier depth: keep this many versions in host memory and "
        "demote colder ones to the local-disk tier after each save "
        "(0 disables the tier policy; eccheck only)",
    )

    export = sub.add_parser(
        "export-trace",
        help="convert a JSONL trace to Chrome trace-event JSON for "
        "chrome://tracing / Perfetto",
    )
    export.add_argument("trace", help="JSONL trace file from 'repro trace'")
    export.add_argument(
        "--output",
        default=None,
        help="Chrome-trace JSON path (default: <trace>.perfetto.json)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="per-kind phase totals, wall-clock step attribution and "
        "idle-slot analysis of a JSONL trace; or, given a campaign report "
        "JSON with timeline sections, reconcile timeline-integrated "
        "degraded time against the per-tenant ledger at 1e-9",
    )
    analyze.add_argument(
        "trace",
        help="JSONL trace file from 'repro trace', or a campaign report "
        "JSON from 'repro fleet --timeline'",
    )

    selftest = sub.add_parser(
        "selftest",
        help="run the property-test suites under a bounded Hypothesis profile",
    )
    selftest.add_argument(
        "--profile",
        default="ci",
        choices=("dev", "ci", "thorough"),
        help="Hypothesis profile registered in tests/conftest.py",
    )
    return parser


def cmd_list(out) -> int:
    registry = _registry()
    width = max(len(name) for name in registry)
    for name, (description, _) in registry.items():
        print(f"  {name.ljust(width)}  {description}", file=out)
    return 0


def cmd_run(experiment: str, out) -> int:
    registry = _registry()
    if experiment == "all":
        names = list(registry)
    elif experiment in registry:
        names = [experiment]
    else:
        print(
            f"unknown experiment {experiment!r}; try 'repro list'",
            file=sys.stderr,
        )
        return 2
    for name in names:
        _, driver = registry[name]
        print(driver().render(), file=out)
        print(file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(out)
    if args.command == "run":
        return cmd_run(args.experiment, out)
    if args.command == "quickstart":
        return _quickstart(out)
    handlers = {
        "chaos": _chaos,
        "hybrid": _hybrid,
        "elastic": _elastic,
        "fleet": _fleet,
        "dashboard": _dashboard,
        "trace": _trace,
        "export-trace": _export_trace,
        "analyze": _analyze,
        "selftest": _selftest,
    }
    if args.command in handlers:
        return handlers[args.command](args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


def _campaign_config(args, *more: str) -> dict:
    """The config fields the shared flags map to, plus those of ``more``."""
    config = {name: getattr(args, name) for name in ("episodes", "seed", *more)}
    config["timeline"] = args.timeline
    config["timeline_period_s"] = args.timeline_period
    return config


def _engines(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _finish_campaign(report, output: str, out, notes=(), failures=()) -> int:
    """Render, write the report atomically, map findings to an exit code.

    ``notes`` print under the rendered summary; each of ``failures``
    (a reason the run fails besides invariant violations) prints after
    the report is safely written.  Exit 0 iff there is no violation and
    no failure.
    """
    print(report.render(), file=out)
    for note in notes:
        print(note, file=out)
    if output:
        from repro.obs.provenance import write_atomic

        write_atomic(output, report.to_json() + "\n")
        print(f"report written to {output}", file=out)
    for failure in failures:
        print(failure, file=out)
    return 1 if report.violations or failures else 0


def _chaos(args, out) -> int:
    """Run a chaos (or, with ``--tiers``, tier-loss) campaign."""
    shared = _campaign_config(args, "max_rounds", "trace")
    if args.tiers:
        from repro.chaos.tier_campaign import TierChaosConfig, run_tier_campaign

        if args.engines is not None:
            print(
                "--engines is not accepted with --tiers (the tier-loss "
                "campaign runs ECCheck only)",
                file=sys.stderr,
            )
            return 2
        report = run_tier_campaign(TierChaosConfig(**shared))
        default_output = "TIER_report.json"
    else:
        from repro.chaos.campaign import ENGINES, ChaosConfig, run_campaign

        engines = ENGINES if args.engines is None else _engines(args.engines)
        report = run_campaign(ChaosConfig(engines=engines, **shared))
        default_output = "CHAOS_report.json"
    output = default_output if args.output is None else args.output
    return _finish_campaign(report, output, out)


def _hybrid(args, out) -> int:
    """Run the replay-aware differential campaign.

    Exit 0 iff no invariant was violated — and, with
    ``--fail-on-alerts``, no violation-severity alert fired.
    """
    from repro.chaos.hybrid_campaign import (
        HybridChaosConfig,
        run_hybrid_campaign,
    )

    if args.fail_on_alerts and not args.timeline:
        print("--fail-on-alerts requires --timeline", file=sys.stderr)
        return 2
    config = HybridChaosConfig(
        engines=_engines(args.engines),
        interval=args.interval,
        iteration_s=args.iteration_s,
        **_campaign_config(args, "max_rounds"),
    )
    report = run_hybrid_campaign(config)
    failures = []
    fired = report.alert_counts()["violation"]
    if args.fail_on_alerts and fired:
        failures.append(f"FAILING: {fired} violation-severity alert(s) fired")
    return _finish_campaign(report, args.output, out, failures=failures)


def _elastic(args, out) -> int:
    """Run an elastic campaign; exit 0 iff no invariant was violated."""
    from repro.chaos.elastic_campaign import ElasticConfig, run_elastic_campaign

    config = ElasticConfig(
        redundancy_floor=args.redundancy_floor,
        **_campaign_config(args, "max_rounds", "trace"),
    )
    return _finish_campaign(run_elastic_campaign(config), args.output, out)


def _fleet(args, out) -> int:
    """Run a fleet campaign; exit 0 iff no invariant was violated."""
    import json

    from repro.fleet import FleetConfig, run_fleet_campaign, run_scaling_curve

    shared = _campaign_config(args)
    shared["timeline"] = timeline = bool(args.timeline or args.dashboard)
    config = FleetConfig(
        jobs=args.jobs,
        arbitration=args.arbitration,
        fleet_slots=args.slots,
        spares=args.spares,
        duration_hours=args.duration_hours,
        **shared,
    )
    report = run_fleet_campaign(config)
    if not args.no_scaling and args.jobs >= 4:
        report.scaling = run_scaling_curve(config)
    notes = []
    violation_alerts = 0
    if timeline:
        for episode in report.episodes:
            counts = (episode.timeline or {}).get("alerts", {}).get("counts", {})
            violation_alerts += counts.get("violation", 0)
            notes.append(
                f"episode {episode.episode} telemetry: "
                f"{(episode.timeline or {}).get('samples', 0)} samples, "
                f"{counts.get('total', 0)} alert(s) "
                f"({counts.get('violation', 0)} violation)"
            )
    failures = []
    if report.sub_quadratic is False:
        failures.append("scaling curve is not sub-quadratic")
    elif args.fail_on_alerts and violation_alerts:
        failures.append(f"{violation_alerts} severity-violation alert(s) fired")
    code = _finish_campaign(report, args.output, out, notes, failures)
    if args.dashboard:
        from repro.obs.dashboard import write_dashboard

        write_dashboard(
            json.loads(report.to_json(provenance=True)), args.dashboard
        )
        print(f"dashboard written to {args.dashboard}", file=out)
    return code


def _dashboard(args, out) -> int:
    """Render the HTML dashboard from an existing fleet report."""
    import json
    import os

    from repro.obs.dashboard import write_dashboard

    if not os.path.exists(args.report):
        print(f"report not found: {args.report}", file=sys.stderr)
        return 2
    with open(args.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if "episodes" not in report:
        print(
            f"{args.report} does not look like a fleet report "
            "(no 'episodes' section)",
            file=sys.stderr,
        )
        return 2
    if not any(e.get("timeline") for e in report["episodes"]):
        print(
            "warning: no episode carries a timeline section; "
            "re-run `repro fleet --timeline` for charts",
            file=out,
        )
    output = args.output or f"{args.report.removesuffix('.json')}.html"
    write_dashboard(report, output)
    print(f"dashboard written to {output}", file=out)
    return 0


def _trace(args, out) -> int:
    """Run a traced job; exit 0 iff the phase crosscheck reconciles."""
    from repro.obs.runner import run_traced_job

    fail_nodes = tuple(
        int(node) for node in args.fail.split(",") if node.strip()
    )
    return run_traced_job(
        engine_name=args.engine,
        iterations=args.iterations,
        interval=args.interval,
        backup_every=args.backup_every,
        fail_nodes=fail_nodes,
        seed=args.seed,
        output=args.output,
        out_dir=args.out_dir,
        keep_failed=args.keep_failed,
        tier_memory_versions=args.tier_keep,
        out=out,
    )


def _load_trace_or_fail(path: str):
    """The trace — or None, after one line on stderr saying why not."""
    import os

    from repro.errors import ReproError
    from repro.obs import load_trace

    if not os.path.exists(path):
        print(f"trace file not found: {path}", file=sys.stderr)
        return None
    try:
        trace = load_trace(path)
        if not trace.spans:
            raise ReproError(f"{path}: trace contains no spans")
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return None
    return trace


def _export_trace(args, out) -> int:
    """Convert a JSONL trace into Chrome trace-event JSON; 0 on success."""
    from repro.obs import export_chrome_trace, validate_chrome_trace, write_chrome_trace

    trace = _load_trace_or_fail(args.trace)
    if trace is None:
        return 2
    output = args.output or f"{args.trace}.perfetto.json"
    problems = validate_chrome_trace(export_chrome_trace(trace))
    events = write_chrome_trace(trace, output)
    print(f"wrote {output} ({events} trace events)", file=out)
    for problem in problems:
        print(f"EXPORT PROBLEM: {problem}", file=out)
    return 1 if problems else 0


def _analyze(args, out) -> int:
    """Analyze a JSONL trace; exit non-zero on structural problems.

    A campaign-report JSON (one top-level object with an ``episodes``
    list) is dispatched to the timeline reconciliation instead.
    """
    import json
    import os

    from repro.obs import analyze_trace, render_analysis, validate_spans

    if os.path.exists(args.trace):
        with open(args.trace, "r", encoding="utf-8") as fh:
            head = fh.read(1)
        if head == "{":
            # A JSONL trace also starts with "{" but is many documents;
            # only a whole-file JSON object with episodes is a report.
            try:
                with open(args.trace, "r", encoding="utf-8") as fh:
                    report = json.load(fh)
            except json.JSONDecodeError:
                report = None
            if isinstance(report, dict) and "crossover" in report:
                from repro.chaos.hybrid_campaign import analyze_report_phases

                return analyze_report_phases(args.trace, report, out)
            if isinstance(report, dict) and "episodes" in report:
                from repro.obs.timeseries import analyze_report_timelines

                return analyze_report_timelines(args.trace, report, out)
    trace = _load_trace_or_fail(args.trace)
    if trace is None:
        return 2
    problems = validate_spans(trace.spans)
    analysis = analyze_trace(trace)
    print(render_analysis(analysis), file=out)
    for problem in problems:
        print(f"TRACE PROBLEM: {problem}", file=out)
    return 1 if problems else 0


def _selftest(args, out) -> int:
    """Run the property suites in a subprocess with a bounded profile."""
    import os
    import pathlib
    import subprocess

    root = pathlib.Path(__file__).resolve().parents[2]
    suites = [
        "tests/ec/test_fast_equivalence.py",
        # The kernel the engine runs (fused encode/decode), the CRC
        # arithmetic behind derived digests, and the delta save on both.
        "tests/core/test_protocol.py",
        "tests/core/test_integrity.py",
        "tests/core/test_incremental.py",
        # The delta save's tracked writes against the full compare.
        "tests/core/test_tracked_delta.py",
        # Any single lying commit record: harmless, or a typed refusal
        # that installs nothing, over every <= m failure pattern.
        "tests/core/test_lying_records.py",
        "tests/core/test_placement.py",
        "tests/core/test_selection_properties.py",
        # Step 1's walk against the flatten-first decompose it replaced.
        "tests/tensors/test_serialization.py",
        "tests/obs",
    ]
    missing = [s for s in suites if not (root / s).exists()]
    if missing:
        print(f"selftest: missing suites {missing} under {root}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["REPRO_HYPOTHESIS_PROFILE"] = args.profile
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    print(f"selftest: profile={args.profile} suites={' '.join(suites)}", file=out)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *suites], cwd=root, env=env
    )
    return result.returncode


def _quickstart(out) -> int:
    """Inline version of examples/quickstart.py for the CLI."""
    from repro.checkpoint.job import TrainingJob
    from repro.core.eccheck import ECCheckConfig, ECCheckEngine
    from repro.parallel.strategy import ParallelismSpec
    from repro.parallel.topology import ClusterSpec
    from repro.tensors.state_dict import state_dicts_equal

    job = TrainingJob.create(
        model="gpt2-5.3B",
        cluster=ClusterSpec(num_nodes=4, gpus_per_node=4),
        strategy=ParallelismSpec(tensor_parallel=4, pipeline_parallel=4),
        scale=2e-4,
    )
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    report = engine.save()
    print(
        f"save: {report.checkpoint_time:.2f}s total, "
        f"{report.stall_time:.2f}s training stall",
        file=out,
    )
    reference = job.snapshot_states()
    job.fail_nodes({0, 3})
    recovery = engine.restore({0, 3})
    exact = all(
        state_dicts_equal(job.state_of(w), reference[w])
        for w in range(job.world_size)
    )
    print(
        f"restore after nodes {{0, 3}} failed: {recovery.recovery_time:.2f}s, "
        f"bit-exact: {exact}",
        file=out,
    )
    return 0 if exact else 1


if __name__ == "__main__":  # pragma: no cover - exercised as `python -m repro.cli`
    sys.exit(main())
