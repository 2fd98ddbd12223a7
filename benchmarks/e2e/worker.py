"""One benchmark run, in a fresh process: load the generated spec, build the
trainer (or the experiment plan) from it, run it, and write what was measured.

The harness (``runner.py``) spawns this file and waits; it passes only the
generated spec file, never a workload name.  The trainer is built through the
public registries because ``RunPlan.execute()`` discards
``TrainResult.records`` and ``extras``, which the end-to-end metrics need.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() in the harness just before the spawn")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--inject", default=None, metavar="BOUNDARY=SECONDS",
                    help="self-test only: sleep inside one wrapped boundary")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    phases = {}

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import numpy as np

    from repro.algos.base import TrainerConfig
    from repro.runtime import make_backend
    from repro.spec import PROBLEMS, TRAINERS, compile_scenario, ensure_populated, load_spec

    import trace as e2e_trace  # the sibling trace.py (script dir is on sys.path)

    phases["import_s"] = time.time() - args.spawned_at

    rec = e2e_trace.Recorder() if args.trace else None
    inject = None
    if args.inject:
        boundary, _, seconds = args.inject.partition("=")
        inject = (boundary, float(seconds))

    t = time.perf_counter()
    ensure_populated()
    spec = load_spec(args.spec)
    spec.validate()
    plan = compile_scenario(spec) if spec.mode == "experiment" else None
    phases["spec.load_compile_s"] = time.perf_counter() - t

    out = {"mode": spec.mode}
    if plan is not None:
        phases["data.synth_s"] = phases["algos.construct_s"] = 0.0
        if rec is not None or inject:
            e2e_trace.install(rec, None, inject)
        phases["setup_s"] = time.time() - args.spawned_at
        t = time.perf_counter()
        token = rec.begin("harness.execute") if rec is not None else -1
        result = plan.execute()
        if rec is not None:
            rec.end(token)
        out["wall_s"] = time.perf_counter() - t
        out["rows"] = [
            {k: (float(v) if isinstance(v, (float, np.floating)) else v)
             for k, v in row.items()}
            for row in result.rows
        ]
    else:
        t = time.perf_counter()
        problem = PROBLEMS.get(spec.problem)(**spec.problem_args)
        phases["data.synth_s"] = time.perf_counter() - t

        t = time.perf_counter()
        cls = TRAINERS.get(spec.algorithm)
        if rec is not None:
            cls = e2e_trace.traced_trainer(cls, rec)
        options = TRAINERS.meta(spec.algorithm)["options"](**spec.options)
        trainer = cls(
            problem,
            TrainerConfig(**spec.config),
            options=options,
            backend=make_backend(spec.backend or "sim", **spec.backend_args),
        )
        if rec is not None or inject:
            e2e_trace.install(rec, trainer, inject)
        phases["algos.construct_s"] = time.perf_counter() - t

        phases["setup_s"] = time.time() - args.spawned_at
        t = time.perf_counter()
        res = trainer.train()
        out["wall_s"] = time.perf_counter() - t

        params = trainer.workloads[0].flat.data
        np.save(args.out + ".params.npy", params)
        extras = {
            k: float(v) for k, v in res.extras.items()
            if isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool)
        }
        out.update(
            n_train=problem.n_train,
            epochs=res.config.epochs,
            p=res.config.p,
            samples=int(trainer.tape.samples),
            records=[
                {"epoch": r.epoch, "samples": int(r.samples), "t": float(r.virtual_time),
                 "train_loss": float(r.train_loss), "train_acc": float(r.train_acc)}
                for r in res.records
            ],
            run_seconds=float(res.virtual_seconds),
            extras=extras,
            params_finite=bool(np.isfinite(params).all()),
        )
    out["phases"] = phases
    if rec is not None:
        out["spans"] = e2e_trace.summarise(rec)
        if args.trace_file:
            e2e_trace.dump(rec, args.trace_file)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
