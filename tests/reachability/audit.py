"""Reachability audit: which functions under ``src/repro`` does no entry point run?

Usage (from the repository root)::

    python tests/reachability/audit.py [--work DIR]

It runs the entry-point corpus below under the probe (``sitecustomize.py``
beside this file) and then checks the result.  The check lists every def in
``src/repro`` (function, method or nested function, by ``path::qualname``)
that no corpus process entered and that ``unreached.txt`` does not name, and
every entry of ``unreached.txt`` that the corpus did enter.  It exits 1 when
the first list is not empty or a corpus step failed.

The corpus is every way the program is meant to be run: each checked-in
scenario document, each CLI subcommand and ``repro run`` flag, every backend
and recovery policy, the chaos soak on all three backends, the example
scripts, the seven e2e workloads (traced and untraced), the paper-figure
benchmark suite and the CI smoke steps.  It runs in about 20 minutes on two
cores; the tier-1 suite is deliberately not part of it, so a def that only
its own unit test enters shows up as unreached.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
LIST = HERE / "unreached.txt"
REASONS = ("abstract", "error", "repr", "ci", "oracle", "test")
PY = sys.executable


class Step(NamedTuple):
    name: str
    argv: Sequence[str]
    timeout: float = 300.0
    ok: Tuple[int, ...] = (0,)


def _repro(*args: str) -> List[str]:
    return [PY, "-m", "repro", *args]


# a live TCP event stream, attached to by `repro watch --connect`: once for a
# snapshot, once to the end of the run, and once at a port nobody serves
_WATCH_REMOTE = """
import threading, time
from repro.__main__ import main
from repro.net.events import TcpEventSink
from repro.obs import events as ev
sink = TcpEventSink("tcp://127.0.0.1:0")
bus = ev.EventBus(sinks=[sink])
bus.publish(ev.RUN_STARTED, algo="sasgd", problem="toy", p=2, backend="mp",
            seed=1, epochs=1, n_shards=0, resumed=False)
assert main(["watch", "--connect", sink.addr, "--once"]) == 0
def finish():
    time.sleep(0.5)
    bus.publish(ev.RUN_FINISHED, status="ok", duration=1.0, samples=8, epochs=1)
threading.Thread(target=finish, daemon=True).start()
assert main(["watch", "--connect", sink.addr, "--interval", "0.1"]) == 0
bus.close()
assert main(["watch", "--connect", "127.0.0.1:9", "--once"]) == 1
"""

# the CI smoke steps that drive trainers from Python rather than the CLI
_CI_FAULT_SMOKE = """
from repro import obs
from repro.algos import SASGDOptions, SASGDTrainer, TrainerConfig
from repro.algos.problems import cifar_problem
from repro.faults import FaultContext, FaultPlan
from repro.runtime import MPBackend
bus = obs.EventBus(sinks=[obs.JsonlRecorderSink("{work}/ci_events.jsonl")])
with obs.use_events(bus):
    res = SASGDTrainer(
        cifar_problem(scale="unit", seed=1),
        TrainerConfig(p=4, epochs=4, batch_size=8, lr=0.02, seed=3),
        SASGDOptions(T=2), backend=MPBackend(timeout=60.0),
        fault_ctx=FaultContext(plan=FaultPlan.parse("crash:learner=2,step=3"),
                               recovery="elastic"),
    ).train()
bus.close()
assert res.config.p == 3
snap = obs.RunSnapshot.from_events(obs.read_events("{work}/ci_events.jsonl"), strict=True)
assert snap.status == "ok"
"""


def corpus(work: Path) -> List[Step]:
    w = str(work)
    specs = sorted((ROOT / "examples" / "specs").glob("*.yml"))
    # convergence figures train for minutes at their checked-in size; the
    # audit needs their code paths, not their curves
    shrink = {name: ["--set", "epochs=2", "--set", "eval_every=1"]
              for name in ("fig2", "fig3", "fig7", "fig8", "fig9", "fig10")}
    shrink["averaging"] = ["--set", "epochs=2"]
    fig2 = ["--set", "p_values=(1,2)", "--set", "epochs=1", "--set", "eval_every=1"]
    # a launched cluster cannot respawn survivors: CI's fault-free net_smoke
    launch_spec = f"{w}/launch.yml"
    work.mkdir(parents=True, exist_ok=True)
    Path(launch_spec).write_text("".join(
        line for line in (ROOT / "examples/specs/net_smoke.yml").read_text().splitlines(True)
        if not line.startswith(("faults:", "recovery:"))))
    # no checked-in document sweeps a custom scenario or restores EAMSGD
    sweep_spec = f"{w}/eamsgd_sweep.json"
    Path(sweep_spec).write_text(json.dumps({
        "problem": "cifar", "problem_args": {"scale": "unit", "seed": 1},
        "algorithm": "eamsgd", "options": {"tau": 2},
        "config": {"p": 3, "epochs": 2, "batch_size": 8, "lr": 0.02, "seed": 3},
        "faults": "crash:learner=1,step=3", "recovery": "elastic",
        "sweep": {"config.seed": [3, 4]},
    }))
    # compressed SASGD aggregates by allgather, which no document selects
    compressed_spec = f"{w}/sasgd_randomk.json"
    Path(compressed_spec).write_text(json.dumps({
        "problem": "cifar", "problem_args": {"scale": "unit", "seed": 1},
        "algorithm": "sasgd", "options": {"T": 2, "compression": "randomk", "k_frac": 0.1},
        "config": {"p": 2, "epochs": 1, "batch_size": 8, "lr": 0.02, "seed": 3},
    }))
    steps = [Step(f"spec-{s.stem}", _repro("run", "--spec", str(s), *shrink.get(s.stem, [])),
                  timeout=600) for s in specs]
    steps += [
        Step("list", _repro("list")),
        Step("list-one", _repro("list", "backends")),
        Step("list-unknown", _repro("list", "nope"), ok=(2,)),
        Step("claims", _repro("claims")),
        Step("run-unknown", _repro("run", "nope"), ok=(2,)),
        Step("run-artifacts", _repro(
            "run", "fig1", "--set", "p_values=(2,)", "--save", f"{w}/r.json",
            "--trace", f"{w}/t.json", "--metrics", f"{w}/m.json",
            "--manifest", f"{w}/mf.json")),
        Step("run-save", _repro("run", "table1", "--save", f"{w}/t1.json")),
        *[Step(f"inspect-{a}", _repro("inspect", f"{w}/{a}.json"))
          for a in ("r", "t", "m", "mf", "t1.manifest")],
        Step("inspect-missing", _repro("inspect", f"{w}/missing.json"), ok=(1,)),
        Step("run-jobs", _repro("run", "fig2", *fig2, "--jobs", "2",
                                "--cache-dir", f"{w}/cache")),
        Step("run-jobs-cached", _repro("run", "fig2", *fig2, "--jobs", "2",
                                       "--cache-dir", f"{w}/cache")),
        Step("run-events", _repro("run", "fig2", *fig2, "--events", f"{w}/ev.jsonl",
                                  "--events", "console")),
        Step("inspect-events", _repro("inspect", f"{w}/ev.jsonl")),
        Step("watch-file", _repro("watch", f"{w}/ev.jsonl", "--once")),
        Step("watch-remote", [PY, "-c", _WATCH_REMOTE]),
        Step("run-events-tcp", _repro("run", "--spec", "examples/specs/smoke.yml",
                                      "--events", "tcp://127.0.0.1:0")),
        Step("run-checkpoint", _repro("run", "--spec", "examples/specs/smoke.yml",
                                      "--checkpoint-dir", f"{w}/ck")),
        Step("run-resume", _repro("run", "--spec", "examples/specs/smoke.yml",
                                  "--checkpoint-dir", f"{w}/ck", "--resume")),
        Step("run-mp", _repro("run", "--spec", "examples/specs/smoke.yml",
                              "--backend", "mp", "--events", f"{w}/ev_mp.jsonl")),
        Step("inspect-events-mp", _repro("inspect", f"{w}/ev_mp.jsonl")),
        Step("run-net", _repro("run", "--spec", "examples/specs/smoke.yml",
                               "--backend", "net", "--recovery", "fail_fast",
                               "--fault", "straggle:learner=0,factor=2,start=1,stop=3")),
        Step("run-net-reconnect", _repro(
            "run", "--spec", "examples/specs/net_smoke.yml",
            "--fault", "disconnect:learner=1,step=3", "--recovery", "reconnect")),
        Step("run-sweep-eamsgd", _repro("run", "--spec", sweep_spec)),
        Step("run-sweep-eamsgd-mp", _repro("run", "--spec", sweep_spec, "--backend", "mp")),
        Step("run-sweep-eamsgd-drop", _repro("run", "--spec", sweep_spec,
                                             "--fault", "drop:learner=0,rate=0.3",
                                             "--recovery", "fail_fast")),
        Step("run-sweep-eamsgd-checkpoint", _repro("run", "--spec", sweep_spec,
                                                   "--checkpoint-dir", f"{w}/ck_eamsgd")),
        Step("run-sweep-eamsgd-resume", _repro("run", "--spec", sweep_spec, "--resume",
                                               "--checkpoint-dir", f"{w}/ck_eamsgd")),
        *[Step(f"run-randomk-{b}", _repro("run", "--spec", compressed_spec, "--backend", b))
          for b in ("sim", "mp", "net")],
        *[Step(f"run-trainers-observed-{b}", _repro(
            "run", "fig2", *fig2, "--backend", b, "--trace", f"{w}/t_{b}.json",
            "--metrics", f"{w}/m_{b}.json")) for b in ("sim", "mp", "net")],
        Step("run-net-ring-reconnect", _repro(
            "run", "--spec", "examples/specs/smoke.yml", "--backend", "net",
            "--fault", "disconnect:learner=1,step=3", "--recovery", "reconnect")),
        Step("run-mp-restart-shard", _repro(
            "run", "--spec", "examples/specs/net_smoke.yml", "--backend", "mp",
            "--fault", "ps_crash:shard=0,push=4", "--recovery", "restart_shard")),
        Step("run-sim-ps-faults", _repro(
            "run", "--spec", "examples/specs/net_smoke.yml", "--backend", "sim",
            "--fault", "drop:learner=0,rate=0.2", "--fault", "delay:learner=1,nth=2,seconds=0.01",
            "--fault", "ps_crash:shard=0,push=4", "--recovery", "restart_shard")),
        Step("run-experiment-mp-fault", _repro(
            "run", "fig2", "--set", "p_values=(2,)", "--set", "epochs=1",
            "--set", "eval_every=1", "--backend", "mp",
            "--fault", "crash:learner=1,step=3", "--recovery", "elastic")),
        Step("run-experiment-net", _repro(
            "run", "fig9", "--set", "p_values=(2,)", "--set", "epochs=1",
            "--set", "eval_every=1", "--backend", "net")),
        Step("chaos-sim", _repro("chaos", "examples/specs/net_smoke.yml", "--rounds", "4",
                                 "--seed", "1", "--backends", "sim",
                                 "--out", f"{w}/chaos_sim.json"), timeout=600),
        Step("chaos-mp-net", _repro("chaos", "examples/specs/net_smoke.yml", "--rounds", "2",
                                    "--seed", "1", "--backends", "mp,net",
                                    "--timeout", "60"), timeout=900),
        Step("launch-print", _repro("launch", "examples/specs/net_smoke.yml",
                                    "--print-commands")),
        Step("launch", _repro("launch", launch_spec, "--timeout", "90")),
        Step("bench", _repro("bench", "--quick", "--out", f"{w}/bench.json"), timeout=900),
        # exit 1 when a timing ratio under the probe misses its floor: the
        # step is for reach; CI's bench-smoke judges the floors.  Without
        # --out a filtered run names its default path and writes nothing
        Step("bench-check", _repro("bench", "--quick", "--filter", "engine",
                                   "--check", f"{w}/bench.json"), timeout=600, ok=(0, 1)),
        Step("scaling-fat-tree", _repro("run", "scaling", "--set", "p_values=(8,128)",
                                        "--set", "topology=fat-tree")),
        Step("scaling-cluster", _repro("run", "scaling", "--set", "p_values=(8,)",
                                       "--set", "topology=cluster")),
        Step("scaling-torus", _repro("run", "scaling", "--set", "p_values=(8,)",
                                     "--set", "topology=torus")),
        Step("ci-fault-events", [PY, "-c", _CI_FAULT_SMOKE.format(work=w)]),
        Step("example-quickstart", [PY, "examples/quickstart.py"]),
        Step("example-compare", [PY, "examples/compare_algorithms.py", "--p", "2",
                                 "--epochs", "1", "--T", "2"]),
        Step("example-epoch-time", [PY, "examples/epoch_time_explorer.py", "--p", "1", "2",
                                    "--T", "1", "10"]),
        Step("example-theory", [PY, "examples/theory_playground.py"]),
        Step("example-run-all", [PY, "examples/run_all_experiments.py", "--quick",
                                 "--only", "fig1", "table1", "traffic"]),
        # the probe slows the code between the tracer's spans, so a traced
        # run's trace.unattributed_frac gate can trip (exit 1): the step is
        # for reach; CI's e2e-bench-smoke judges the outcome
        Step("e2e-quick", [PY, "benchmarks/e2e/run.py", "--quick", "--out", f"{w}/e2e.json"],
             timeout=900, ok=(0, 1)),
        *[Step(f"e2e-{wl}-trace{t}", [PY, "benchmarks/e2e/run.py", "--workload", wl,
                                      "--seed", "5", "--seconds", "1", "--trace", t],
               timeout=600)
          for wl in ("scaling_sim", "cifar_sasgd_sim") for t in ("0", "1")],
        Step("paper-figures", [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--benchmark-disable", "benchmarks",
                               "--ignore=benchmarks/e2e"], timeout=1800),
    ]
    return steps


# -- the def inventory ---------------------------------------------------------


def defs() -> Dict[str, int]:
    """``path::qualname`` -> line of every function def under ``src/repro``."""
    out: Dict[str, int] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(ROOT / "src").as_posix()

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    out.setdefault(f"{rel}::{qual}", child.lineno)
                    walk(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return out


def read_list(path: Path = LIST) -> Dict[str, str]:
    """``unreached.txt``: one ``path::qualname  # reason`` per line."""
    out: Dict[str, str] = {}
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, _, reason = line.partition("#")
        out[key.strip()] = reason.strip()
    return out


def read_hits(work: Path) -> Set[str]:
    hits: Set[str] = set()
    marker = os.sep + os.path.join("src", "repro") + os.sep
    for line in (work / "probe" / "hits.tsv").read_text().splitlines():
        filename, _, qualname = line.split("\t")
        rel = "repro" + os.sep + filename.split(marker, 1)[1]
        hits.add(f"{Path(rel).as_posix()}::{qualname}")
    return hits


# -- driver --------------------------------------------------------------------


def run_corpus(work: Path) -> List[str]:
    probe = work / "probe"
    probe.mkdir(parents=True, exist_ok=True)
    shutil.copy(HERE / "sitecustomize.py", probe / "sitecustomize.py")
    logs = work / "logs"
    logs.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(probe), str(ROOT / "src")])
    failed = []
    t_all = time.monotonic()
    for step in corpus(work):
        t0 = time.monotonic()
        with open(logs / f"{step.name}.log", "wb") as log:
            try:
                rc = subprocess.run(step.argv, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT, timeout=step.timeout,
                                    stdin=subprocess.DEVNULL).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
        status = "ok" if rc in step.ok else f"FAILED ({rc})"
        if rc not in step.ok:
            failed.append(step.name)
        print(f"{step.name:<28} {time.monotonic() - t0:7.1f}s  {status}", flush=True)
    print(f"corpus: {time.monotonic() - t_all:.0f}s", flush=True)
    return failed


def check(work: Path) -> int:
    inventory = defs()
    listed = read_list()
    reached = read_hits(work) & set(inventory)
    unreached = sorted(set(inventory) - reached)
    new = [k for k in unreached if k not in listed]
    stale = sorted(k for k in listed if k in reached)
    print(f"{len(inventory)} defs, {len(reached)} reached, {len(unreached)} unreached, "
          f"{len(listed)} listed")
    for key in new:
        print(f"unreached and not listed: {key}  (line {inventory[key]})")
    for key in stale:
        print(f"listed but reached (remove from {LIST.name}): {key}")
    return 1 if new else 0


def main(argv: Sequence[str] = ()) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", default=None, help="keep hits and logs here")
    args = ap.parse_args(argv or None)
    work = Path(args.work or tempfile.mkdtemp(prefix="reach-")).resolve()
    failed = run_corpus(work)
    rc = check(work)
    if failed:
        print(f"failed steps (logs in {work / 'logs'}): {', '.join(failed)}")
        rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
