#!/usr/bin/env python3
"""The wall-clock ledger: one command, four workloads, every layer.

Two ways in:

* ``python3 benchmarks/perf/run.py`` — the full ledger: every workload,
  an untraced pass (end-to-end metrics) and a traced pass (per-layer
  metrics), printed as ``name value unit n``, gated on correctness, and
  written to ``benchmarks/perf/out/result.json`` for ``compare.py``.
* ``... run.py --workload W --seed N --seconds S --trace 0|1`` — one
  pass of one workload; the last stdout line is one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
  ``end_to_end`` names of ``BENCHMARK.json`` with ``--trace 0``, the
  ``per_layer`` names with ``--trace 1``).

The parent process never imports the program: each measurement runs in
a fresh child (``--child``), so set-up time, peak RSS and cache state
are per workload.  An untraced pass is split over ``SHARDS`` children
run one after another, each with its own set-up; a timing metric is taken
over the samples of all of them, ``setup_s`` and ``peak_rss_mib`` are
medians over them, and what each shard alone measured stays in the ledger
as the metric's ``samples``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SHARDS = 3
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402 - imports nothing of the program until called


# ----------------------------------------------------------------------
# Child side: runs inside a fresh, hermetic interpreter.
# ----------------------------------------------------------------------
def child_main(spec: dict) -> dict:
    import resource

    load_at_start = os.getloadavg()
    if spec["mode"] == "trace":
        import layers

        out = layers.run_traced(spec)
    else:
        out = run_shard(spec)
    from repro.obs.provenance import provenance_stamp

    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["provenance"] = dict(
        provenance_stamp(cwd=str(ROOT)),
        nproc=os.cpu_count(),
        loadavg_at_start=load_at_start,
    )
    return out


def run_shard(spec: dict) -> dict:
    """Set up, then measure ``spec['seconds']`` of one workload untraced."""
    import dataclasses

    workload = W.WORKLOADS[spec["workload"]]
    seed, seconds, smoke = spec["seed"], spec["seconds"], spec["smoke"]
    out: dict = {"episodes": []}
    loop, jobs = W.set_up(workload, seed, smoke)
    out["setup_wall_s"] = time.perf_counter() - spec["spawned_at"]
    out["setup_s"] = out["setup_wall_s"] / W.slowdown(W.BURST_TICKS)
    if workload.kind == "fleet":
        # Every shard times the same episodes, so the shards are replicates;
        # the tenant drill gets the rest of the shard's time budget.
        started = time.perf_counter()
        for index in range(W.episodes_for(0.6 * seconds, smoke)):
            out["episodes"].append(W.run_episode(W.FIRST_EPISODE + index, jobs))
        seconds -= time.perf_counter() - started
    if smoke:
        for _ in range(W.SMOKE_CYCLES):
            loop.cycle()
    else:
        loop.run_for(seconds)
    out["samples"] = dataclasses.asdict(loop.samples)
    out["state_bytes"] = loop.state_bytes
    return out


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def hermetic_env() -> dict:
    """A stray ``.repro_autotune.json`` in cwd silently changes kernel
    variants, BLAS pools add threads we did not ask for, and hash
    randomisation reorders dicts: pin all three."""
    OUT.mkdir(exist_ok=True)
    empty_cache = OUT / "autotune_empty.json"
    empty_cache.write_text("")
    env = dict(os.environ)
    env.update(
        REPRO_AUTOTUNE_CACHE=str(empty_cache),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def spawn_child(spec: dict) -> dict:
    spec = dict(spec, spawned_at=time.perf_counter())
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
        env=hermetic_env(),
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child for {spec['workload']} exited with {proc.returncode}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def by_pattern(samples: list[dict], key: str) -> dict[str, list[float]]:
    """The restores of all ``samples``, per failure pattern."""
    out: dict[str, list[float]] = {}
    for s in samples:
        for pattern, values in s[key].items():
            out.setdefault(pattern, []).extend(values)
    return out


def estimates(shards: list[dict]) -> dict[str, tuple[float, int]]:
    """The end-to-end metrics over the pooled samples of ``shards``, each as
    ``(value, number of samples it rests on)``.

    Times are the ones corrected for the machine's speed (see
    ``workloads.slowdown``); the ``raw.*`` rows are the same estimates over
    the wall times as the clock gave them.  The four failure patterns cost
    up to 2x apart and a run's time budget cuts their rotation anywhere, so
    the restore estimates weigh each pattern once: its median.
    """
    samples = [sh["samples"] for sh in shards]
    save_s = [v for s in samples for v in s["save_s"]]
    save_wall_s = [v for s in samples for v in s["save_wall_s"]]
    restore_s = by_pattern(samples, "restore_s")
    restore_p50 = {p: statistics.median(v) for p, v in restore_s.items()}
    restore_wall_p50 = [
        statistics.median(v) for v in by_pattern(samples, "restore_wall_s").values()
    ]
    restore_bytes = {p: b for s in samples for p, b in s["restore_bytes"].items()}
    saves, restores = len(save_s), sum(len(v) for v in restore_s.values())
    episodes = [e for sh in shards for e in sh["episodes"]]
    if episodes:
        took = sum(e["s"] for e in episodes)
        events = sum(e["events"] for e in episodes)
        committed = sum(e["checkpoints"] for e in episodes)
    else:
        took = sum(save_s) + sum(v for vs in restore_s.values() for v in vs)
        events = saves + restores
        committed = saves
    slowdowns = [v for s in samples for v in s["slowdowns"]]
    mib = 2.0**20
    return {
        "setup_s": (statistics.median(sh["setup_s"] for sh in shards), len(shards)),
        "save_ms_p50": (statistics.median(save_s) * 1e3, saves),
        "save_ms_p90": (percentile(save_s, 0.9) * 1e3, saves),
        "save_mib_s": (shards[0]["state_bytes"] / mib / statistics.fmean(save_s), saves),
        "restore_ms_p50": (statistics.fmean(restore_p50.values()) * 1e3, restores),
        "restore_mib_s": (
            sum(restore_bytes[p] for p in restore_p50) / mib / sum(restore_p50.values()),
            restores,
        ),
        "events_per_s": (events / took, events),
        "saves_per_s": (committed / took, committed),
        "peak_rss_mib": (statistics.median(sh["peak_rss_mib"] for sh in shards), len(shards)),
        "raw.setup_s": (statistics.median(sh["setup_wall_s"] for sh in shards), len(shards)),
        "raw.save_ms_p50": (statistics.median(save_wall_s) * 1e3, saves),
        "raw.restore_ms_p50": (statistics.fmean(restore_wall_p50) * 1e3, restores),
        "machine.slowdown": (statistics.median(slowdowns), len(slowdowns)),
    }


#: The ``end_to_end`` names of ``BENCHMARK.json``, then what the ledger
#: prints beside them: the same estimates uncorrected, and the correction.
E2E_UNITS = {
    "setup_s": "s", "save_ms_p50": "ms", "save_ms_p90": "ms", "save_mib_s": "MiB/s",
    "restore_ms_p50": "ms", "restore_mib_s": "MiB/s", "events_per_s": "1/s",
    "saves_per_s": "1/s", "peak_rss_mib": "MiB",
    "raw.setup_s": "s", "raw.save_ms_p50": "ms", "raw.restore_ms_p50": "ms",
    "machine.slowdown": "ratio",
}


def merge_e2e(shards: list[dict]) -> dict:
    """Combine the shards of one untraced pass into the end-to-end metrics."""
    problems: list[str] = []
    samples = [sh["samples"] for sh in shards]
    episodes = [e for sh in shards for e in sh["episodes"]]
    attempted = sum(s["attempted"] for s in samples) + len(episodes)
    violated = W.episode_failures(episodes)
    failures = [f for s in samples for f in s["failures"]] + violated
    failed = sum(s["failed"] for s in samples) + len(violated)
    metrics, ledger = {}, {}
    if all(s["save_s"] and s["restore_s"] for s in samples):
        # A metric is the estimate over the whole run's samples.  What each
        # shard alone would have estimated stays in the ledger as the
        # metric's ``samples``: the run-to-run spread ``compare.py`` judges
        # a difference against.
        pooled = estimates(shards)
        per_shard = [estimates([sh]) for sh in shards]
        for name, unit in E2E_UNITS.items():
            value, n = pooled[name]
            metrics[name] = dict(
                W.metric(value, unit, n), samples=[ps[name][0] for ps in per_shard]
            )
        ledger, exact_metrics = W.exact_ledger(samples, problems)
        metrics.update(exact_metrics)
    else:
        problems.append("a shard has no successful save or no successful restore to time")
    metrics["failed_ops_ratio"] = W.metric(failed / attempted, "ratio", attempted)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems + failures,
        "exact": ledger,
        "provenance": shards[0]["provenance"],
    }


def run_e2e(workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    shards = 1 if smoke else SHARDS
    spec = {
        "mode": "e2e", "workload": workload, "seed": seed, "smoke": smoke,
        "seconds": seconds / shards,
    }
    return merge_e2e([spawn_child(spec) for _ in range(shards)])


def run_trace(workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    return spawn_child(
        {"mode": "trace", "workload": workload, "seed": seed, "smoke": smoke,
         "seconds": seconds}
    )


def print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:14s} {name:42s} {m['value']:>14.6g} {m['unit']:8s} n={m['n']}")


def missing_metrics(names: list[str], result: dict) -> list[str]:
    """The metrics ``BENCHMARK.json`` names that ``result`` did not measure.

    A metric whose layer is listed under ``absent_layers`` is excused: a
    refactor that deletes a layer must not be blocked by the instrument.
    """
    excused = {m for gone in result.get("absent_layers", {}).values() for m in gone}
    return [
        f"metric {name} is named in BENCHMARK.json but was not measured"
        for name in names
        if name not in result["metrics"] and name not in excused
    ]


def driver_main(args, contract: dict) -> int:
    """One pass of one workload; last stdout line is the result object."""
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in contract[section]]
    run = run_trace if args.trace else run_e2e
    result = run(args.workload, args.seed, args.seconds, args.smoke)
    problems = result["problems"] + missing_metrics(names, result)
    print_metrics(args.workload, result["metrics"])
    for problem in problems:
        print(f"PROBLEM {problem}")
    for absent in result.get("absent_layers", {}):
        print(f"ABSENT  {absent}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    n: {
                        "value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"],
                    }
                    for n in names
                    if n in result["metrics"]
                },
            }
        )
    )
    return 1 if problems else 0


def full_main(args, contract: dict) -> int:
    """Every workload, untraced then traced; write ``result.json``."""
    ledger: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    problems: list[str] = []
    e2e_names = [m["name"] for m in contract["end_to_end"]]
    layer_names = [m["name"] for m in contract["per_layer"]]
    for spec in contract["workloads"]:
        name = spec["name"]
        if args.workload and name != args.workload:
            continue
        e2e = run_e2e(name, args.seed, args.seconds, args.smoke)
        traced = run_trace(name, args.seed, args.seconds, args.smoke)
        print_metrics(name, e2e["metrics"])
        print_metrics(  # the exact ledger is in both passes: print it once
            name, {k: m for k, m in traced["metrics"].items() if k not in e2e["metrics"]}
        )
        for absent in traced["absent_layers"]:
            print(f"{name:14s} ABSENT {absent}")
        # Exact counts must be identical in the untraced and traced pass.
        for exact_name in sorted(e2e["exact"].keys() & traced["exact"].keys()):
            a, b = e2e["exact"][exact_name], traced["exact"][exact_name]
            if a != b:
                e2e["problems"].append(
                    f"{exact_name} differs between passes: {a!r} vs {b!r}"
                )
        for problem in (
            e2e["problems"] + missing_metrics(e2e_names, e2e)
            + traced["problems"] + missing_metrics(layer_names, traced)
        ):
            problems.append(f"{name}: {problem}")
        ledger["workloads"][name] = {
            "end_to_end": e2e["metrics"],
            "per_layer": traced["metrics"],
            "absent_layers": traced["absent_layers"],
            "attempted": e2e["attempted"] + traced["attempted"],
            "failed": e2e["failed"] + traced["failed"],
            "trace_file": traced.get("trace_file"),
        }
        ledger["provenance"] = e2e["provenance"]
    ledger["problems"] = problems
    out_path = Path(args.out) if args.out else OUT / "result.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(f"wrote {out_path}; {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 = end-to-end pass, 1 = traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="12 saves, 3 restores, 4-job fleet per pass")
    parser.add_argument("--out", help="where the full ledger is written")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload and args.workload not in {w["name"] for w in contract["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return driver_main(args, contract)
    return full_main(args, contract)


if __name__ == "__main__":
    sys.exit(main())
