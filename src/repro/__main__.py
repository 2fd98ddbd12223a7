"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list [REGISTRY]
    Print the scenario registries — experiment families, trainers, problems,
    machine families, recovery policies, backends — or just one of them.
run [EXP_ID | --spec FILE] [--set key=value ...] [--backend {sim,mp}]
        [--save out.json] [--jobs N] [--cache-dir D] [--trace t.json]
        [--metrics m.json] [--manifest mf.json] [--fault SPEC]
        [--recovery POLICY] [--checkpoint-dir D] [--resume] [--timeout S]
        [--events PATH|console]
    Regenerate one experiment and print its report.  ``--spec`` runs a
    declarative scenario document (YAML/JSON, see ``examples/specs/``)
    instead of naming an experiment; either way the run compiles through
    :func:`repro.spec.compile_scenario` and the other flags override the
    scenario's fields.  ``--set`` forwards
    keyword arguments (ints/floats/tuples parsed from the value).
    ``--backend mp`` runs the trainers as real parallel worker processes
    (shared-memory collectives / PS shard processes) instead of the default
    virtual-time simulation — wall-clock parallelism on host cores.
    ``--fault`` injects deterministic faults (grammar
    ``kind:key=value,...``, e.g. ``--fault 'crash:learner=2,step=40'``;
    repeatable), ``--recovery`` picks what happens when something dies
    (``fail_fast``/``elastic``/``restart_shard``), ``--checkpoint-dir``
    keeps periodic checkpoints on disk and ``--resume`` restarts from the
    latest one.  ``--timeout`` sets the mp backend's starvation timeout in
    seconds.  ``--jobs N`` fans independent grid points (e.g. each ``p``) out over N
    worker processes — results are bit-identical to ``--jobs 1``; with
    ``--cache-dir`` completed points are memoised on disk so interrupted
    sweeps resume for free.  ``--trace`` writes a Chrome trace-event file
    (chrome://tracing / Perfetto) with one track per learner/server;
    ``--metrics`` writes the observability registry (counters/gauges/
    histograms) as JSON; ``repro inspect`` on the trace prints each actor's
    compute/comm breakdown.  A run manifest (config, seed, git rev,
    wall+virtual duration) is written next to every ``--save`` result, or
    wherever ``--manifest`` points.
    ``--events`` streams structured run telemetry: ``console`` prints live
    progress lines, any other value records a JSONL event log (seq-numbered
    snapshot/delta protocol) that ``repro watch`` tails and ``repro
    inspect`` summarises.
bench [--quick] [--out FILE] [--check BASELINE] [--threshold X] [--filter SUB]
    Time the substrate hot paths (conv2d, temporal conv, im2col/col2im,
    optimiser steps, one SASGD interval, sim-engine event throughput, fabric
    message rate vs the vectorised wave, mp/net round trips, one small
    end-to-end experiment) and write a ``BENCH_<git-rev>.json`` baseline.
    ``--check`` compares against a saved baseline and exits non-zero when any
    bench is more than ``--threshold`` (default 2.0) times slower or a derived
    ratio drops below its floor (an mp allreduce must not be slower than the
    net one).  A ``--filter``
    run times only benchmarks whose name holds SUB, and saves only to ``--out``.
claims
    Print every experiment's paper claim — the checklist EXPERIMENTS.md
    verifies.
inspect FILE
    Summarise a file written by ``run``: experiment result, metrics export,
    Chrome trace, run manifest, or JSONL event log (auto-detected).
watch [EVENTS.jsonl | --connect HOST:PORT] [--interval S] [--once]
    Tail a ``--events`` recorder file, folding the stream into a live
    ``RunSnapshot`` view; exits when the run finishes (or after one render
    with ``--once``).  ``--connect`` attaches to a live TCP event stream
    (a run started with ``--events tcp://host:port``) instead of a file:
    the publisher replays a snapshot of the run so far, then live deltas.
launch SPEC [--role JOB:TASK] [--print-commands] [--timeout S]
    Bring a custom scenario up as a real multi-process TCP cluster (the
    ``net`` backend).  Without ``--role``, spawns every worker and PS
    shard as a local subprocess on loopback ephemeral ports and runs the
    coordinator inline; ``--print-commands`` instead prints one
    copy-pasteable command per role for separate terminals or hosts.
    ``--role worker:0`` / ``ps:0`` / ``coordinator`` takes a single seat
    in a cluster described by ``REPRO_CLUSTER_SPEC`` (what the printed
    commands set).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
from pathlib import Path

from .harness import format_result, list_experiments


def _parse_value(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _spec_from_args(args, parser):
    """The run's :class:`~repro.spec.ScenarioSpec`.

    ``--spec FILE`` loads a scenario document; every other flag is an
    override layered on top of it.  Without ``--spec`` the legacy flag
    surface (EXP_ID, --set, --backend, --fault, …) compiles to an
    equivalent spec, so both roads converge on the one
    :func:`~repro.spec.compile_scenario` path.
    """
    from .spec import ScenarioSpec, load_spec

    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            parser.error(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = _parse_value(value.strip())

    backend_args = {}
    if args.timeout is not None:
        backend_args["timeout"] = args.timeout

    if args.spec is not None:
        if args.exp_id is not None:
            parser.error(
                "pass either an experiment id or --spec FILE, not both "
                "(the spec names what to run)"
            )
        spec = load_spec(args.spec)
        changes = {}
        if overrides:
            # --set patches the spec's parameter surface for its mode
            if spec.mode == "experiment":
                changes["params"] = {**spec.params, **overrides}
            else:
                changes["config"] = {**spec.config, **overrides}
        if args.backend is not None:
            changes["backend"] = args.backend
        if backend_args:
            changes["backend_args"] = {**spec.backend_args, **backend_args}
        if args.fault:
            changes["faults"] = list(args.fault)
        if args.fault_seed:
            changes["fault_seed"] = args.fault_seed
        if args.recovery is not None:
            changes["recovery"] = args.recovery
        if args.checkpoint_dir is not None:
            changes["checkpoint_dir"] = args.checkpoint_dir
        if args.resume:
            changes["resume"] = True
        if args.events:
            changes["events"] = tuple(spec.events) + tuple(args.events)
        return spec.with_overrides(**changes) if changes else spec

    if args.exp_id is None:
        parser.error("pass an experiment id (see `repro list`) or --spec FILE")
    return ScenarioSpec(
        experiment=args.exp_id,
        params=overrides,
        backend=args.backend,
        backend_args=backend_args,
        faults=list(args.fault) or None,
        fault_seed=args.fault_seed,
        recovery=args.recovery,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        events=tuple(args.events),
    ).validate()


def _cmd_run(args, parser) -> int:
    import contextlib

    from . import obs
    from .spec import SpecError, UnknownNameError, compile_scenario

    try:
        spec = _spec_from_args(args, parser)
        plan = compile_scenario(spec)
    except (SpecError, UnknownNameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = args.jobs
    if jobs != 1 and (args.trace or args.metrics):
        print(
            "note: --trace/--metrics observe only the parent process; "
            "falling back to --jobs 1 so the whole run is instrumented",
            file=sys.stderr,
        )
        jobs = 1
    if jobs != 1 and plan.fault_ctx is not None:
        print(
            "note: fault injection/recovery state lives in the run process; "
            "falling back to --jobs 1",
            file=sys.stderr,
        )
        jobs = 1

    want_obs = bool(args.trace or args.metrics or args.manifest or args.save)
    session = obs.ObsSession(trace=bool(args.trace))
    event_files = [
        ev
        for ev in spec.events
        if ev not in ("console", "-") and not ev.startswith("tcp://")
    ]
    t0 = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if want_obs:
            stack.enter_context(obs.observe(session))
        # the plan installs the spec's event sinks and fault context itself
        result = plan.execute(jobs=jobs, cache_dir=args.cache_dir)
    wall = time.perf_counter() - t0

    print(format_result(result))
    for ev in event_files:
        print(f"events recorded to {ev} (replay with `repro watch {ev}`)")
    if args.save:
        from .harness.serialization import save_result

        save_result(result, args.save)
        print(f"saved to {args.save}")
    if args.metrics:
        session.registry.save(args.metrics)
        print(f"metrics saved to {args.metrics}")
    if args.trace:
        session.build_exporter().save(args.trace)
        print(f"trace saved to {args.trace} (load in chrome://tracing or Perfetto)")
    manifest_path = args.manifest
    if manifest_path is None and args.save:
        manifest_path = obs.manifest_path_for(args.save)
    if manifest_path is not None:
        manifest = obs.RunManifest.collect(
            exp_id=plan.exp_id,
            config=spec.canonical(),
            wall_seconds=wall,
            virtual_seconds=session.virtual_seconds,
        )
        manifest.write(manifest_path)
        print(f"manifest saved to {manifest_path}")
    return 0


def _cmd_list(args) -> int:
    """Print the scenario registries (everything a spec can name)."""
    from .spec import REGISTRIES, ensure_populated

    ensure_populated()
    wanted = args.registry
    if wanted is not None and wanted not in REGISTRIES:
        import difflib

        close = difflib.get_close_matches(wanted, sorted(REGISTRIES), n=1, cutoff=0.4)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        print(
            f"error: unknown registry {wanted!r}{hint} "
            f"(registries: {', '.join(sorted(REGISTRIES))})",
            file=sys.stderr,
        )
        return 2
    for reg_name, registry in REGISTRIES.items():
        if wanted is not None and reg_name != wanted:
            continue
        print(f"{reg_name}:")
        for name in registry.names():
            meta = registry.meta(name)
            blurb = meta.get("title") or meta.get("description") or ""
            print(f"  {name:<22}{blurb}".rstrip())
            capabilities = meta.get("capabilities")
            if capabilities:
                print(f"  {'':<22}  {capabilities}")
        print()
    return 0


def _cmd_bench(args) -> int:
    from .harness.bench import (
        compare_to_baseline,
        default_bench_path,
        format_bench,
        load_bench,
        run_benchmarks,
        save_bench,
    )

    if args.check:
        try:
            baseline = load_bench(args.check)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot load baseline {args.check}: {exc}", file=sys.stderr)
            return 1
    doc = run_benchmarks(
        quick=args.quick,
        include_experiment=not args.no_experiment,
        mp_timeout=args.timeout,
        name_filter=args.filter,
    )
    print(format_bench(doc))
    out = Path(args.out) if args.out else default_bench_path(doc)
    if args.filter and not args.out:
        # a filtered document is no baseline: a later --check would skip every dropped bench
        print("\nfiltered run not written: pass --out to save it", file=sys.stderr)
    elif args.check and out.resolve() == Path(args.check).resolve():
        print(f"\nnot overwriting {out}: it is the baseline under check", file=sys.stderr)
    else:
        save_bench(doc, out)
        print(f"\nbaseline written to {out}")

    if args.check:
        ok, messages = compare_to_baseline(doc, baseline, args.threshold)
        print(f"\nregression check vs {args.check} (threshold {args.threshold}x):")
        for line in messages:
            print(f"  {line}")
        if not ok:
            return 1
    return 0


def _inspect_events(path: str, lines) -> int:
    """Summarise a JSONL event log (counts, timeline, final snapshot)."""
    from . import obs

    try:
        events = [obs.Event.parse_line(line) for line in lines]
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"{path}: broken event log: {exc}", file=sys.stderr)
        return 1
    if not events:
        print(f"{path}: empty event log", file=sys.stderr)
        return 1

    counts: dict = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    seqs = [e.seq for e in events]
    gaps = [
        (prev, cur)
        for prev, cur in zip(seqs, seqs[1:])
        if cur != prev + 1
    ]
    print(f"{path}: event log, {len(events)} event(s) (format v{events[0].v})")
    print(f"  time:  {events[0].t:.3f}s .. {events[-1].t:.3f}s")
    seq_note = "contiguous" if not gaps else f"{len(gaps)} gap(s)!"
    print(f"  seq:   {seqs[0]} .. {seqs[-1]} ({seq_note})")
    print("  kinds:")
    for kind, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"    {kind:<20} {n}")
    timeline = [
        e for e in events
        if e.kind in ("fault_injected", "failure_detected", "recovery_action")
    ]
    if timeline:
        print("  fault/recovery timeline:")
        for e in timeline:
            detail = " ".join(f"{k}={v}" for k, v in sorted(e.data.items()))
            print(f"    [{e.t:9.3f}s #{e.seq}] {e.kind} {e.source} {detail}")
    snap = obs.RunSnapshot.from_events(events, strict=False)
    print("  final snapshot:")
    for line in obs.format_snapshot(snap).splitlines():
        print(f"  {line}")
    return 0


def _cmd_inspect(path: str) -> int:
    from . import obs

    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 1
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        # not one JSON document — a JSONL event log, or junk
        if lines and lines[0].lstrip().startswith("{"):
            return _inspect_events(path, lines)
        print(f"cannot read {path}: not a repro JSON document", file=sys.stderr)
        return 1
    if isinstance(data, dict) and {"kind", "seq", "data"} <= set(data):
        # a single-event log is still an event log
        return _inspect_events(path, lines)
    if not isinstance(data, dict):
        print(f"{path}: not a repro JSON document", file=sys.stderr)
        return 1

    if "traceEvents" in data:
        runs = obs.TraceExporter.parse(data)
        print(f"{path}: chrome trace, {len(runs)} run(s)")
        for label, run in runs.items():
            print(f"\n== {label} (virtual {run.duration:.3f}s) ==")
            actors = []
            for span in run.spans:
                if span.actor not in actors:
                    actors.append(span.actor)
            for actor in actors:
                cats = obs.busy_seconds(run.spans, actor)
                busy = sum(cats.values())
                idle = max(0.0, run.duration - busy)
                detail = ", ".join(
                    f"{cat}={sec:.3f}s" for cat, sec in sorted(cats.items())
                )
                print(f"  {actor:<12} busy={busy:.3f}s idle={idle:.3f}s  ({detail})")
            if run.messages:
                nbytes = sum(m.nbytes for m in run.messages)
                print(f"  messages: {len(run.messages)} ({nbytes / 2**20:.2f} MiB)")
        return 0

    if {"counters", "gauges", "histograms"} <= set(data):
        print(f"{path}: metrics export")
        if data["counters"]:
            print("counters:")
            for key, value in sorted(data["counters"].items()):
                print(f"  {key} = {value:g}")
        if data["gauges"]:
            print("gauges:")
            for key, value in sorted(data["gauges"].items()):
                shown = "none" if value is None else f"{value:g}"
                print(f"  {key} = {shown}")
        if data["histograms"]:
            print("histograms:")
            for key, summary in sorted(data["histograms"].items()):
                if not summary.get("count"):
                    print(f"  {key}: (empty)")
                    continue
                print(
                    f"  {key}: n={summary['count']} mean={summary['mean']:.4g} "
                    f"p50={summary['p50']:.4g} p99={summary['p99']:.4g} "
                    f"max={summary['max']:.4g}"
                )
        return 0

    if "exp_id" in data and "created" in data:
        manifest = obs.RunManifest.from_dict(data)
        print(f"{path}: run manifest")
        print(f"  experiment: {manifest.exp_id}")
        print(f"  created:    {manifest.created}")
        print(f"  git rev:    {manifest.git_rev or '(unknown)'}")
        print(f"  python:     {manifest.python}  ({manifest.platform})")
        print(f"  wall:       {manifest.wall_seconds:.3f}s")
        print(f"  virtual:    {manifest.virtual_seconds:.3f}s")
        if manifest.config:
            print(f"  config:     {manifest.config}")
        if manifest.seed is not None:
            print(f"  seed:       {manifest.seed}")
        return 0

    if "exp_id" in data and ("rows" in data or "series" in data):
        from .harness.serialization import result_from_dict

        print(f"{path}: experiment result")
        print(format_result(result_from_dict(data)))
        return 0

    print(f"{path}: unrecognised document (keys: {sorted(data)[:8]})", file=sys.stderr)
    return 1


def _cmd_watch_remote(args) -> int:
    """Attach to a live TCP event stream and render snapshot views."""
    from . import obs
    from .net.events import iter_remote_events
    from .net.frames import ConnectionLost

    snap = obs.RunSnapshot()
    saw_any = False
    last_render = 0.0
    try:
        for event in iter_remote_events(args.connect):
            snap.apply(event)
            saw_any = True
            now = time.monotonic()
            # coalesce render bursts to one view per --interval
            if now - last_render >= args.interval or snap.finished:
                print(obs.format_snapshot(snap))
                print()
                last_render = now
            if args.once or snap.finished:
                break
    except ConnectionLost as exc:
        print(f"cannot reach {args.connect}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass
    if not saw_any:
        print(f"{args.connect}: stream closed before any event", file=sys.stderr)
        return 1
    if not (args.once or snap.finished):
        # publisher went away mid-run: show what we had
        print(obs.format_snapshot(snap))
    return 0


def _cmd_watch(args) -> int:
    """Tail a JSONL event recorder file and render live snapshot views."""
    from . import obs

    if args.connect:
        if args.path is not None:
            print(
                "error: pass a file or --connect HOST:PORT, not both",
                file=sys.stderr,
            )
            return 2
        return _cmd_watch_remote(args)
    if args.path is None:
        print(
            "error: pass an events file (or --connect HOST:PORT for a live "
            "stream)",
            file=sys.stderr,
        )
        return 2

    path = Path(args.path)
    snap = obs.RunSnapshot()
    pos = 0
    partial = ""
    saw_any = False
    try:
        while True:
            if path.exists():
                with open(path) as fh:
                    fh.seek(pos)
                    chunk = fh.read()
                    pos = fh.tell()
                # the recorder flushes whole lines, but a reader racing the
                # writer can still see a torn tail — keep it for next round
                partial += chunk
                lines = partial.split("\n")
                partial = lines.pop()
                fresh = False
                for line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        snap.apply(obs.Event.parse_line(line))
                    except (ValueError, json.JSONDecodeError) as exc:
                        print(f"skipping broken event line: {exc}", file=sys.stderr)
                        continue
                    saw_any = True
                    fresh = True
                if fresh:
                    print(obs.format_snapshot(snap))
                    print()
            if args.once or snap.finished:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    if not saw_any:
        print(f"{args.path}: no events", file=sys.stderr)
        return 1
    return 0


def _cmd_launch(args) -> int:
    """Run a scenario as a real multi-process TCP cluster (net backend)."""
    from .net.launch import launch
    from .runtime import BackendCapabilityError
    from .spec import SpecError, UnknownNameError

    try:
        return launch(
            args.spec,
            role=args.role,
            print_commands=args.print_commands,
            timeout=args.timeout,
        )
    except (SpecError, UnknownNameError, BackendCapabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_chaos(args) -> int:
    """Soak a scenario under seeded fault schedules; exit 1 on violation."""
    from .chaos.harness import report_json, soak
    from .runtime import BackendCapabilityError
    from .spec import SpecError, UnknownNameError, load_spec

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    try:
        spec = load_spec(args.spec)
        if spec.mode == "experiment":
            raise ValueError(
                "repro chaos soaks custom scenarios "
                "(problem/algorithm/config); "
                f"{args.spec} names an experiment family"
            )
        report = soak(
            spec,
            args.spec,
            backends,
            rounds=args.rounds,
            seed=args.seed,
            timeout=args.timeout,
            max_step=args.max_step,
            log=print,
        )
    except (SpecError, UnknownNameError, BackendCapabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_json(report) + "\n")
        print(f"report written to {args.out}")
    bad = sum(1 for r in report.rounds if not r.passed)
    print(
        f"chaos: {len(report.rounds)} rounds on {', '.join(backends)} — "
        + ("all invariants held" if report.passed else f"{bad} VIOLATION(S)")
    )
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser(
        "list",
        help="list the registries (experiments, trainers, problems, "
        "machines, recovery policies, backends)",
    )
    list_p.add_argument(
        "registry",
        nargs="?",
        default=None,
        help="print just this registry (default: all)",
    )
    sub.add_parser("claims", help="print every experiment's paper claim")

    run_p = sub.add_parser("run", help="run one experiment or scenario spec")
    run_p.add_argument(
        "exp_id",
        nargs="?",
        default=None,
        help="experiment id (see `repro list`); omit when using --spec",
    )
    run_p.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="run a declarative scenario document (.yml/.yaml/.json); other "
        "flags override the document's fields",
    )
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="key=value",
        help="experiment kwargs, e.g. --set p_values=(1,8) --set epochs=12",
    )
    run_p.add_argument(
        "--backend",
        default=None,
        help="execution backend: 'sim' (virtual time, the default), 'mp' "
        "(real multiprocessing on host cores), or 'net' (separate "
        "processes over TCP sockets; see also `repro launch`)",
    )
    run_p.add_argument("--save", default=None, help="write the result as JSON")
    run_p.add_argument(
        "--trace", default=None, help="write a Chrome trace-event JSON timeline"
    )
    run_p.add_argument(
        "--metrics", default=None, help="write the metrics registry as JSON"
    )
    run_p.add_argument(
        "--manifest",
        default=None,
        help="write the run manifest here (default: next to --save)",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent grid points (0 = all cores)",
    )
    run_p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="memoise completed grid points here (resume interrupted sweeps)",
    )
    run_p.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="inject a deterministic fault, e.g. 'crash:learner=2,step=40' "
        "(kinds: crash, ps_crash, straggle, drop, delay; repeatable)",
    )
    run_p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the stochastic fault draws (drop/delay sampling)",
    )
    run_p.add_argument(
        "--recovery",
        default=None,
        help="what to do when something dies: fail_fast (default, raise a "
        "typed LearnerFailure), elastic (survivors restart from the last "
        "checkpoint as p-1), restart_shard (respawn dead PS shards from "
        "their snapshots)",
    )
    run_p.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="keep periodic checkpoints here (enables --resume across runs)",
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )
    run_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="mp/net-backend starvation timeout in seconds",
    )
    run_p.add_argument(
        "--events",
        action="append",
        default=[],
        metavar="PATH|console|tcp://H:P",
        help="stream structured run events: 'console' (or '-') prints live "
        "progress lines, 'tcp://host:port' publishes to live subscribers "
        "(`repro watch --connect host:port`), any other value records a "
        "JSONL event log readable by `repro watch` and `repro inspect` "
        "(repeatable)",
    )

    bench_p = sub.add_parser(
        "bench", help="run substrate microbenchmarks, write a BENCH_<rev>.json"
    )
    bench_p.add_argument(
        "--quick", action="store_true", help="fewer reps (CI smoke mode)"
    )
    bench_p.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_<git-rev>.json in the cwd, unless --filter)",
    )
    bench_p.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against this baseline; exit 1 on regression",
    )
    bench_p.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="regression factor for --check (default: 2.0)",
    )
    bench_p.add_argument(
        "--no-experiment",
        action="store_true",
        help="skip the end-to-end experiment bench (kernels only)",
    )
    bench_p.add_argument(
        "--filter",
        default=None,
        metavar="SUBSTRING",
        help="run only benchmarks whose name contains SUBSTRING "
        "(e.g. 'engine' or 'fabric')",
    )
    bench_p.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="mp-backend starvation timeout for the mp interval bench "
        "(default: 60)",
    )

    ins_p = sub.add_parser(
        "inspect",
        help="summarise a result/metrics/trace/manifest/event-log file",
    )
    ins_p.add_argument("path")

    watch_p = sub.add_parser(
        "watch",
        help="tail a JSONL event log (or attach to a live TCP stream) and "
        "render a live snapshot view",
    )
    watch_p.add_argument(
        "path",
        nargs="?",
        default=None,
        help="events file written by `run --events` (omit with --connect)",
    )
    watch_p.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="attach to a live TCP event stream (a run started with "
        "--events tcp://HOST:PORT); replays a snapshot, then live deltas",
    )
    watch_p.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="S",
        help="poll interval in seconds (default: 0.5)",
    )
    watch_p.add_argument(
        "--once",
        action="store_true",
        help="render the current snapshot once and exit (no tailing)",
    )

    launch_p = sub.add_parser(
        "launch",
        help="run a custom scenario as a multi-process TCP cluster "
        "(net backend): spawn all roles locally, print per-role commands, "
        "or take one role",
    )
    launch_p.add_argument("spec", help="custom scenario document (.yml/.json)")
    launch_p.add_argument(
        "--role",
        default=None,
        metavar="JOB:TASK",
        help="take one seat (coordinator, worker:K, ps:K) in the cluster "
        "described by REPRO_CLUSTER_SPEC instead of spawning everything",
    )
    launch_p.add_argument(
        "--print-commands",
        action="store_true",
        help="print one copy-pasteable command per role (for separate "
        "terminals or remote hosts) instead of spawning subprocesses",
    )
    launch_p.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="net-backend starvation/rendezvous timeout in seconds "
        "(default: 120)",
    )

    chaos_p = sub.add_parser(
        "chaos",
        help="soak a custom scenario under seeded randomized fault "
        "schedules, checking recovery invariants after every round",
    )
    chaos_p.add_argument("spec", help="custom scenario document (.yml/.json)")
    chaos_p.add_argument(
        "--rounds",
        type=int,
        default=10,
        metavar="N",
        help="fault schedules per backend (default: 10)",
    )
    chaos_p.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="chaos seed; the same (seed, round, backend) always draws the "
        "same schedule (default: 0)",
    )
    chaos_p.add_argument(
        "--backends",
        default="sim",
        metavar="B1,B2",
        help="comma-separated backends to soak (default: sim)",
    )
    chaos_p.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="per-round mp/net starvation timeout in seconds (default: 60)",
    )
    chaos_p.add_argument(
        "--max-step",
        type=int,
        default=8,
        metavar="K",
        help="latest local step a drawn fault may target (default: 8)",
    )
    chaos_p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the full JSON report here",
    )

    args = parser.parse_args(argv)

    if args.command == "list":
        return _cmd_list(args)

    if args.command == "claims":
        from .spec.registry import EXPERIMENTS as REGISTERED

        # the @experiment decorator registers each figure's title and claim,
        # so listing them runs nothing
        for exp_id in list_experiments():
            meta = REGISTERED.meta(exp_id)
            print(f"{exp_id}: {meta['title']}")
            print(f"  {meta['claim']}")
        return 0

    if args.command == "inspect":
        return _cmd_inspect(args.path)

    if args.command == "watch":
        return _cmd_watch(args)

    if args.command == "launch":
        return _cmd_launch(args)

    if args.command == "chaos":
        return _cmd_chaos(args)

    if args.command == "bench":
        return _cmd_bench(args)

    return _cmd_run(args, parser)


if __name__ == "__main__":
    sys.exit(main())
