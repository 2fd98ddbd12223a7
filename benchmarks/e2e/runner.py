"""Spawn one run in a fresh subprocess, wait for it, check its outputs.

The harness is one process that only spawns and waits.  Every process it
spawns gets one BLAS thread (p learners x 1 thread = nproc; unpinned, the same
mp run measured 21 s, 45 s, 27 s against 3.0 s pinned: that is the scheduler,
not the program) and a fixed hash seed.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import metrics
from workloads import Workload, make_spec

__all__ = ["PINS", "run_once", "check_pair", "check_against_sim", "sim_digest",
           "environment", "cleanup"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / "_work" / str(os.getpid())   # scratch in the checkout; git-ignored
BASELINE = HERE / "baseline.json"
SHM = Path("/dev/shm")

PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
RUN_TIMEOUT = 150.0  # one run is 6-20 s; anything near this is a hang
ORPHAN_GRACE = 3.0


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir(SHM) if n.startswith("psm_")}
    except OSError:
        return set()


def _group_members(pgid: int) -> List[int]:
    """Live processes still in the run's process group (orphans)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid pgrp ... ; comm may hold spaces
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(entry))
    return out


def _kill_group(pgid: int, failures: List[str]) -> None:
    failures.append(f"timed out after {RUN_TIMEOUT:.0f}s")
    try:
        os.killpg(pgid, 9)
    except ProcessLookupError:
        pass


def run_once(
    w: Workload,
    seed: int,
    trace: bool = False,
    quick: bool = False,
    inject: Optional[str] = None,
    backend: Optional[str] = None,
    epochs: Optional[int] = None,
    pinned: bool = True,
    trace_file: Optional[str] = None,
    tag: str = "run",
) -> Dict[str, Any]:
    """One run of ``w`` in a fresh subprocess; returns what it measured plus
    ``failures``, the list of output checks it did not pass."""
    WORK.mkdir(parents=True, exist_ok=True)
    stem = WORK / f"{w.name}.{tag}"
    spec_path, out_path = f"{stem}.spec.json", f"{stem}.out.json"
    params_path, err_path = out_path + ".params.npy", f"{stem}.stderr"
    with open(spec_path, "w") as fh:
        json.dump(make_spec(w, seed, quick, backend, epochs), fh)

    env = dict(os.environ)
    if pinned:
        env.update(PINS)
    else:
        for key in PINS:
            env.pop(key, None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", spec_path,
           "--out", out_path]
    if trace:
        cmd.append("--trace")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if inject:
        cmd += ["--inject", inject]

    shm_before = _shm_segments()
    failures: List[str] = []
    cmd += ["--spawned-at", repr(time.time())]
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT), start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(RUN_TIMEOUT, _kill_group, (proc.pid, failures))
        watchdog.start()
        try:
            # wait4 gives user+sys CPU and peak RSS of the child and of every
            # descendant it waited for (learners, shards)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = Path(err_path).read_text(errors="replace")

    # multiprocessing's resource tracker outlives its parent by a moment (it
    # exits on the pipe's EOF); only what is still there after a grace counts
    grace = time.monotonic() + ORPHAN_GRACE
    while (orphans := _group_members(proc.pid)) and time.monotonic() < grace:
        time.sleep(0.05)
    if orphans:
        failures.append(f"orphan processes left behind: {orphans}")
        try:
            os.killpg(proc.pid, 9)
        except ProcessLookupError:
            pass
    leaked = _shm_segments() - shm_before
    if leaked:
        failures.append(f"leaked shared-memory segments: {sorted(leaked)}")
        for name in leaked:
            try:
                (SHM / name).unlink()
            except OSError:
                pass

    run: Dict[str, Any] = {
        "workload": w.name, "seed": seed, "traced": trace, "quick": quick,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,   # Linux reports KiB
    }
    try:
        if proc.returncode != 0:
            failures.append(f"worker exited {proc.returncode}: {stderr.strip()[-400:]}")
        else:
            with open(out_path) as fh:
                run.update(json.load(fh))
            if w.trains:
                run["params"] = np.load(params_path)
            failures += _check_run(w, run, seed, quick, backend, epochs)
    finally:
        for path in (spec_path, out_path, params_path, err_path):
            try:
                os.unlink(path)
            except OSError:
                pass
    run["failures"] = failures
    return run


# -- output checks -------------------------------------------------------------


def load_baseline() -> Dict[str, Any]:
    with open(BASELINE) as fh:
        return json.load(fh)


def sim_digest(w: Workload, run: Dict[str, Any]) -> Optional[str]:
    """Digest of the simulated numbers that repeat exactly."""
    if not w.trains:
        return metrics.digest(run["rows"])
    if w.backend == "sim":
        return metrics.digest([round(r["t"], 9) for r in run["records"]])
    return None


def _check_run(w, run, seed, quick, backend, epochs) -> List[str]:
    bad: List[str] = []
    reference = backend is not None or epochs is not None
    if not w.trains:
        if not quick:
            want = load_baseline()["digests"].get(w.name)
            got = sim_digest(w, run)
            if want is not None and got != want:
                bad.append(f"simulated rows changed: digest {got}, pinned {want}")
        return bad
    want_samples = metrics.expected_samples(w, run)
    if run["samples"] != want_samples:
        bad.append(f"samples {run['samples']} != epochs x n_train {want_samples}")
    if len(run["records"]) != run["epochs"]:
        bad.append(f"{len(run['records'])} epoch records for {run['epochs']} epochs")
    if not all(np.isfinite(r["train_loss"]) for r in run["records"]):
        bad.append("non-finite training loss")
    if not run["params_finite"]:
        bad.append("non-finite parameters")
    if run["extras"].get("ps_retries", 0):
        bad.append(f"ps_retries = {run['extras']['ps_retries']}")
    if quick or reference:
        return bad
    if metrics.target_record(w, run) is None:
        bad.append(f"target train_loss <= {w.target_loss} never reached "
                   f"(last {run['records'][-1]['train_loss']:.3f})")
    pinned = load_baseline()
    if w.backend == "sim" and seed == pinned["seed"]:
        want, got = pinned["digests"].get(w.name), sim_digest(w, run)
        if want is not None and got != want:
            bad.append(f"simulated times changed: digest {got}, pinned {want}")
    return bad


def check_pair(w: Workload, a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Two runs of one SASGD spec: same seed and untouched arithmetic give a
    per-epoch loss curve and parameters equal to rounding."""
    if w.algorithm != "sasgd" or "records" not in a or "records" not in b:
        return []
    bad = []
    la = [r["train_loss"] for r in a["records"]]
    lb = [r["train_loss"] for r in b["records"]]
    if len(la) != len(lb) or not np.allclose(la, lb, rtol=1e-6, atol=1e-9):
        bad.append("loss curve differs between two runs of the same seed")
    if not np.allclose(a["params"], b["params"], rtol=1e-6, atol=1e-9):
        bad.append("final parameters differ between two runs of the same seed")
    return bad


def check_against_sim(run: Dict[str, Any], sim_ref: Dict[str, Any]) -> List[str]:
    """SASGD on mp/net matches the same spec on sim to the repo's 1e-4
    contract (tests/test_runtime_backends, tests/test_net_backend)."""
    if np.allclose(run["params"], sim_ref["params"], rtol=1e-4, atol=1e-4):
        return []
    gap = float(np.max(np.abs(run["params"] - sim_ref["params"])))
    return [f"final parameters differ from the sim run of the same spec by {gap:.3g}"]


# -- environment block ---------------------------------------------------------


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _blas() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - numpy builds differ in what they expose
        return "unknown"


def environment() -> Dict[str, Any]:
    """What the numbers were measured on.  A run started above half the
    cores' worth of load is ``noisy`` and ``compare`` will not judge it."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "git_rev": _git_rev(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "pins": dict(PINS),
        "load_1m_start": load,
        "noisy": load > 0.5 * nproc,
    }


def cleanup() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()   # only when no other harness process is using it
    except OSError:
        pass
