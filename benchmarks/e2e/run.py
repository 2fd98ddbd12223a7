#!/usr/bin/env python3
"""End-to-end + per-layer benchmark for sim / mp / net training.

Three uses::

    run.py [--seed S] [--repeats K] [--workload NAME]... [--out FILE]
        the whole suite: K untraced runs per workload, round-robin so machine
        drift spreads evenly, then one traced run each; prints every metric
        with unit, median, min/max and n, and writes the report to FILE

    run.py compare A.json B.json
        judge report B against report A with the bounds fixed here

    run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload, as BENCHMARK.json's driver calls it: the last line of
        stdout is one JSON object with the end-to-end metrics (--trace 0) or
        the per-layer metrics (--trace 1)

End-to-end numbers come only from untraced runs.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
if not (HERE.parents[1] / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"{HERE.parents[1] / 'src' / 'repro'} not found: "
             "the benchmark measures the program in this checkout")

import compare  # noqa: E402
import metrics  # noqa: E402
import runner  # noqa: E402
from workloads import BY_NAME, WORKLOADS, Workload  # noqa: E402

HISTORY = HERE / "history.jsonl"
DEFAULT_SEED = 5
BLAS_PROBE = "cifar_sasgd_mp"   # the one workload the unpinned diagnostic runs on


def traced_pass(w: Workload, seed: int, quick: bool, inject: Optional[str],
                plain: Dict[str, Any], untraced_wall: float,
                trace_file: Optional[str] = None):
    """The traced run of ``w`` plus the reference runs its layer metrics
    need.  ``plain`` is a good untraced run of the same spec.  Returns the
    layer metrics and the failed checks."""
    traced = runner.run_once(w, seed, trace=True, quick=quick, inject=inject,
                             trace_file=trace_file, tag="traced")
    bad = list(traced["failures"])
    if bad:
        return None, bad
    bad += runner.check_pair(w, plain, traced)
    sim_ref = None
    if w.real:
        # the same spec on the simulator: its prediction for this run, and for
        # SASGD (whole run) the parameters the real backends must reproduce
        whole = w.algorithm == "sasgd" and not quick
        sim_ref = runner.run_once(w, seed, quick=quick, backend="sim",
                                  epochs=None if whole else 2, tag="simref")
        bad += sim_ref["failures"]
        if whole and not sim_ref["failures"]:
            bad += runner.check_against_sim(plain, sim_ref)
        if sim_ref["failures"]:
            sim_ref = None
    slowdown = 0.0
    if w.name == BLAS_PROBE:
        pinned = runner.run_once(w, seed, epochs=2, tag="pinned")
        loose = runner.run_once(w, seed, epochs=2, pinned=False, tag="unpinned")
        bad += pinned["failures"] + loose["failures"]
        if not (pinned["failures"] or loose["failures"]):
            slowdown = loose["wall_s"] / pinned["wall_s"]
    layers = metrics.per_layer(w, traced, untraced_wall, plain, sim_ref, slowdown)
    if layers["trace.unattributed_frac"] > 0.10:
        bad.append(f"trace.unattributed_frac {layers['trace.unattributed_frac']:.3f} > 0.10")
    return layers, bad


def untraced_run(w: Workload, args, tag: str, good: List[Dict[str, Any]]) -> List[str]:
    """One untraced run of ``w``; joins ``good`` when every check passes (the
    first good run is what later ones must reproduce).  Returns the failures."""
    run = runner.run_once(w, args.seed, quick=args.quick, inject=args.inject, tag=tag)
    bad = run["failures"] or (runner.check_pair(w, good[0], run) if good else [])
    if not bad:
        good.append(run)
    return bad


# -- driver contract: one workload, one JSON line -------------------------------


def contract(args) -> int:
    w = BY_NAME[args.workload[0]]
    attempted = failed = 0
    good: List[Dict[str, Any]] = []
    problems: List[str] = []
    repeats = 1 if args.trace else max(1, round(args.seconds / w.nominal_s))
    for i in range(repeats):
        bad = untraced_run(w, args, f"r{i}", good)
        attempted += 1
        if bad:
            failed += 1
            problems += bad
    if not good:
        print("\n".join(problems), file=sys.stderr)
        return 1
    if args.trace:
        attempted += 1
        layers, bad = traced_pass(w, args.seed, args.quick, args.inject, good[0],
                                  good[0]["wall_s"])
        if bad:
            failed += 1
            problems += bad
        if layers is None:
            print("\n".join(problems), file=sys.stderr)
            return 1
        units = {layer.name: layer.unit for layer in metrics.PER_LAYER}
        values = layers
    else:
        per_run = [metrics.end_to_end(w, run) for run in good]
        units = {m.name: m.unit for m in metrics.END_TO_END if m.gated}
        values = {name: statistics.median(r[name] for r in per_run) for name in units}
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


# -- the suite -------------------------------------------------------------------


def _line(name: str, unit: str, values: List[float], note: str = "") -> str:
    return (f"  {name:<30} {unit:<10} median {statistics.median(values):<12.6g} "
            f"min {min(values):<12.6g} max {max(values):<12.6g} n={len(values)}{note}")


def suite(args) -> int:
    selected = [BY_NAME[n] for n in args.workload] if args.workload else WORKLOADS
    repeats = args.repeats if args.repeats else (1 if args.quick else 5)
    env = runner.environment()
    report: Dict[str, Any] = {
        "env": env, "seed": args.seed, "repeats": repeats, "quick": args.quick,
        "claim": None, "workloads": {},
    }
    good: Dict[str, List[Dict[str, Any]]] = {w.name: [] for w in selected}
    for w in selected:
        report["workloads"][w.name] = {
            "runs_attempted": 0, "runs_failed": 0, "failures": [],
            "end_to_end": {}, "per_layer": {},
        }
    for k in range(repeats):
        for w in selected:
            entry = report["workloads"][w.name]
            bad = untraced_run(w, args, f"r{k}", good[w.name])
            entry["runs_attempted"] += 1
            if bad:
                entry["runs_failed"] += 1
                entry["failures"] += bad
            print(f"[{k + 1}/{repeats}] {w.name}: "
                  f"{'FAILED ' + '; '.join(bad) if bad else 'ok %.2fs' % good[w.name][-1]['wall_s']}",
                  file=sys.stderr, flush=True)

    for w in selected:
        entry = report["workloads"][w.name]
        runs = good[w.name]
        if not runs:
            continue
        per_run = [metrics.end_to_end(w, run) for run in runs]
        for m in metrics.END_TO_END:
            values = [r[m.name] for r in per_run if m.name in r]
            if values:
                entry["end_to_end"][m.name] = values
        walls = entry["end_to_end"]["wall_s"]
        trace_file = None
        if args.out:
            trace_file = f"{Path(args.out).with_suffix('')}.trace.{w.name}.json"
        layers, bad = traced_pass(w, args.seed, args.quick, args.inject, runs[0],
                                  statistics.median(walls), trace_file)
        entry["runs_attempted"] += 1
        if bad:
            entry["runs_failed"] += 1
            entry["failures"] += bad
        entry["per_layer"] = layers or {}
        print(f"[traced] {w.name}: {'FAILED ' + '; '.join(bad) if bad else 'ok'}",
              file=sys.stderr, flush=True)

    # parallel efficiency of the same task: both medians are the base
    wl = report["workloads"]
    serial = wl.get("cifar_sasgd_sim", {}).get("end_to_end", {}).get("samples_per_s")
    par = wl.get("cifar_sasgd_mp", {}).get("end_to_end", {}).get("samples_per_s")
    if serial and par:
        base = statistics.median(serial)
        wl["cifar_sasgd_mp"]["end_to_end"]["speedup_vs_serial"] = [v / base for v in par]
    env["load_1m_end"] = os.getloadavg()[0]

    layer_units = {layer.name: layer.unit for layer in metrics.PER_LAYER}
    failed_total = 0
    for w in selected:
        entry = wl[w.name]
        failed_total += entry["runs_failed"]
        print(f"\n{w.name}  (runs_failed {entry['runs_failed']}/"
              f"{entry['runs_attempted']})")
        for why in entry["failures"]:
            print(f"  CHECK FAILED: {why}")
        for m in metrics.END_TO_END:
            values = entry["end_to_end"].get(m.name)
            if not values:
                continue
            note = ""
            if m.name == "speedup_vs_serial":
                note = (f"  (base: {statistics.median(par):.6g} / "
                        f"{statistics.median(serial):.6g} samples/s)")
            print(_line(m.name, m.unit, values, note))
        for name, value in entry["per_layer"].items():
            if value:
                print(_line(name, layer_units[name], [value]))
    print(f"\nseed {args.seed}  repeats {repeats}  rev {env['git_rev'][:12]}  "
          f"load {env['load_1m_start']:.2f}->{env['load_1m_end']:.2f}"
          f"{'  NOISY: started above half the cores, do not compare' if env['noisy'] else ''}")
    print(f"runs_failed {failed_total}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    if args.record:
        line = {
            "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_rev": env["git_rev"], "seed": args.seed, "repeats": repeats,
            "noisy": env["noisy"], "runs_failed": failed_total,
            "medians": {
                name: {m: statistics.median(v) for m, v in entry["end_to_end"].items()}
                for name, entry in wl.items()
            },
        }
        with open(HISTORY, "a") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return 1 if failed_total else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare.main(argv[1], argv[2])
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                    help="restrict to this workload (repeatable)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="problem and trainer seed of every generated spec")
    ap.add_argument("--repeats", type=int, default=None,
                    help="untraced runs per workload (default 5; 1 with --quick)")
    ap.add_argument("--out", default=None, help="write the report (and traces) here")
    ap.add_argument("--record", action="store_true",
                    help="append this report's medians to history.jsonl")
    ap.add_argument("--quick", action="store_true",
                    help="two epochs per run: smoke-tests the harness, measures nothing")
    ap.add_argument("--seconds", type=float, default=None,
                    help="driver contract: how long one call measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver contract: 0 end-to-end metrics, 1 per-layer metrics")
    ap.add_argument("--inject", default=None, metavar="BOUNDARY=SECONDS",
                    help="self-test only: sleep inside one wrapped call boundary")
    args = ap.parse_args(argv)
    try:
        if args.trace is not None:
            if not args.workload or len(args.workload) != 1 or args.seconds is None:
                ap.error("--trace needs exactly one --workload and --seconds")
            return contract(args)
        return suite(args)
    finally:
        runner.cleanup()


if __name__ == "__main__":
    sys.exit(main())
