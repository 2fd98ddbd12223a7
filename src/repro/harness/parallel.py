"""Parallel experiment grid runner with a content-addressed disk cache.

The figure reproductions sweep grids of ``(algorithm, p, T, γp)`` whose
points are completely independent — the classic embarrassingly parallel
shape.  This module fans those points out across a ``ProcessPoolExecutor``,
streams results back **in deterministic submission order**, and memoises
every completed point on disk under a hash of its exact configuration, so
re-runs (and ``examples/run_all_experiments.py``) resume for free.

Determinism
-----------
A grid point is ``(exp_id, kwargs)`` and every experiment derives all of its
randomness from the ``seed`` kwarg, so a point's result is a pure function
of its configuration: running it in a worker process is bit-identical to
running it inline, and ``jobs=4`` produces exactly the rows of ``jobs=1``.

Splitting
---------
``SPLIT_AXES`` names, per experiment, the sweep axes whose loop is the
*outermost* iteration of that experiment's body (in nesting order).  For
those experiments a full-grid call decomposes into single-point calls whose
concatenated rows/series are identical to the one-shot run — each point
rebuilds its problem from the same ``seed``, which is exactly what the
serial loop body does.  Experiments not listed (e.g. ``fig4`` with its
shared sequential-baseline row) run as a single point.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import multiprocessing
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs import events as _events
from ..spec import registry as _spec_registry
from .experiments import EXPERIMENTS, ExperimentResult, run_experiment
from .serialization import result_from_dict, result_to_dict

__all__ = [
    "SPLIT_AXES",
    "CACHE_VERSION",
    "GridPoint",
    "ResultCache",
    "config_key",
    "expand_grid",
    "merge_results",
    "run_grid",
    "iter_grid",
]

class _SplitAxesView(dict):
    """Read-through view of each experiment's registered ``split_axes``.

    The axes are declared at definition site (``@experiment(...,
    split_axes=...)`` in :mod:`.experiments`) and land in the experiment
    registry's metadata; this dict mirrors the non-empty entries so existing
    ``SPLIT_AXES[exp_id]`` / ``.get`` call sites keep working.
    """

    def refresh(self) -> "_SplitAxesView":
        for exp_id in _spec_registry.EXPERIMENTS:
            axes = tuple(_spec_registry.EXPERIMENTS.meta(exp_id).get("split_axes") or ())
            if axes:
                self[exp_id] = axes
        return self


# Sweep axes that form the outermost loop(s) of each experiment body, in
# nesting order.  Only experiments whose rows/series are a pure concatenation
# over these axes declare them.
SPLIT_AXES: Dict[str, Tuple[str, ...]] = _SplitAxesView().refresh()

# Bump when a change invalidates previously cached results (algorithm or
# serialisation semantics, not docs).
CACHE_VERSION = 1

GridPoint = Tuple[str, dict]


def _canonical(obj):
    """JSON-stable form: tuples become lists, keys sort, numpy scalars cast."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return obj


def config_key(exp_id: str, kwargs: dict) -> str:
    """Content hash of one grid point (the cache key)."""
    blob = json.dumps(
        {"v": CACHE_VERSION, "exp_id": exp_id, "kwargs": _canonical(kwargs)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


class ResultCache:
    """One JSON file per completed grid point, keyed by config hash."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[ExperimentResult]:
        path = self.path(key)
        try:
            data = json.loads(path.read_text())
            result = result_from_dict(data["result"])
        except (OSError, KeyError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, exp_id: str, kwargs: dict, result: ExperimentResult) -> None:
        payload = json.dumps(
            {
                "key": key,
                "exp_id": exp_id,
                "kwargs": _canonical(kwargs),
                "result": result_to_dict(result),
            },
            indent=2,
        )
        # atomic publish: a concurrent reader never sees a half-written file
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def _grid_defaults(exp_id: str) -> dict:
    """Default kwarg values of the experiment's underlying function."""
    fn = EXPERIMENTS[exp_id]
    wrapped = getattr(fn, "__wrapped__", fn)
    out = {}
    for name, param in inspect.signature(wrapped).parameters.items():
        if param.default is not inspect.Parameter.empty:
            out[name] = param.default
    return out


def expand_grid(exp_id: str, kwargs: dict) -> List[dict]:
    """Decompose one experiment call into independent single-point kwargs.

    Returns ``[kwargs]`` unchanged when the experiment has no registered
    split axes.  Otherwise each registered axis (taken from ``kwargs`` or the
    experiment's signature default) is narrowed to a one-element tuple and
    the cartesian product is emitted in loop-nesting order, so concatenating
    the sub-results reproduces the serial iteration order exactly.
    """
    axes = SPLIT_AXES.get(exp_id)
    if not axes:
        return [dict(kwargs)]
    defaults = _grid_defaults(exp_id)
    axis_values: List[Tuple[str, Sequence]] = []
    for axis in axes:
        values = kwargs.get(axis, defaults.get(axis))
        if values is None or not isinstance(values, (list, tuple)):
            return [dict(kwargs)]
        axis_values.append((axis, tuple(values)))
    points = []
    for combo in itertools.product(*(vals for _, vals in axis_values)):
        sub = dict(kwargs)
        for (axis, _), value in zip(axis_values, combo):
            sub[axis] = (value,)
        points.append(sub)
    return points


def merge_results(exp_id: str, parts: Sequence[ExperimentResult]) -> ExperimentResult:
    """Concatenate split-point results back into one ExperimentResult."""
    if not parts:
        raise ValueError("nothing to merge")
    if len(parts) == 1:
        return parts[0]
    rows: List[dict] = []
    series: Dict[str, list] = {}
    notes = ""
    for part in parts:
        rows.extend(part.rows)
        for name, pts in part.series.items():
            if name in series:
                raise ValueError(f"split produced duplicate series {name!r}")
            series[name] = pts
        if not notes and part.notes:
            notes = part.notes
    first = parts[0]
    return ExperimentResult(
        exp_id=first.exp_id,
        title=first.title,
        paper_claim=first.paper_claim,
        rows=rows,
        series=series,
        notes=notes,
    )


def _run_point(exp_id: str, kwargs: dict, runner=None) -> dict:
    """Worker entry: run one grid point, return the serialised result."""
    # a forked pool worker inherits the parent's ambient event bus (and any
    # open sink file descriptors); cell-level progress is the parent's story
    _events.install(None)
    fn = runner if runner is not None else run_experiment
    return result_to_dict(fn(exp_id, **kwargs))


def _resolve_jobs(jobs: int) -> int:
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or 0 for all cores), got {jobs}")
    return jobs


def iter_grid(
    points: Sequence[GridPoint],
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    mp_context: Optional[str] = None,
    keys: Optional[Sequence[str]] = None,
    runner=None,
) -> Iterator[Tuple[int, ExperimentResult]]:
    """Run grid points, yielding ``(index, result)`` in submission order.

    ``jobs=1`` runs inline (no pool); ``jobs=0`` means one worker per core.
    With ``cache_dir`` set, cached points are served from disk and fresh
    completions are written back immediately, so an interrupted sweep resumes
    where it stopped.

    ``keys`` overrides the cache key per point (same length as ``points``) —
    the spec compiler passes keys derived from the scenario's canonical hash.
    ``runner`` replaces :func:`run_experiment` as the point executor; it must
    be a module-level callable (pool workers pickle it) with the same
    ``(exp_id, **kwargs) -> ExperimentResult`` shape.
    """
    jobs = _resolve_jobs(jobs)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    if keys is None:
        keys = [config_key(exp_id, kwargs) for exp_id, kwargs in points]
    elif len(keys) != len(points):
        raise ValueError(f"{len(keys)} keys for {len(points)} points")
    point_fn = runner if runner is not None else run_experiment

    # sweep-level telemetry: per-cell progress rolled up into the ambient
    # bus's snapshot (all no-ops when no bus is installed)
    streaming = _events.active_bus() is not None
    t0 = time.monotonic()

    def sweep_emit(kind: str, **data) -> None:
        if streaming:
            _events.emit(kind, source="sweep", t=time.monotonic() - t0, **data)

    sweep_emit(
        _events.SWEEP_STARTED,
        exp_id=",".join(sorted({exp_id for exp_id, _ in points})),
        total=len(points),
        jobs=jobs,
    )

    results: Dict[int, ExperimentResult] = {}
    pending: List[int] = []
    for i, key in enumerate(keys):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            results[i] = hit
        else:
            pending.append(i)

    def finish(i: int, result: ExperimentResult) -> ExperimentResult:
        if cache is not None:
            cache.put(keys[i], points[i][0], points[i][1], result)
        sweep_emit(
            _events.CELL_FINISHED, index=i, exp_id=points[i][0], cached=False
        )
        return result

    def yield_cached(i: int) -> ExperimentResult:
        sweep_emit(
            _events.CELL_FINISHED, index=i, exp_id=points[i][0], cached=True
        )
        return results[i]

    if not pending:
        for i in range(len(points)):
            yield i, yield_cached(i)
        sweep_emit(_events.SWEEP_FINISHED, status="ok")
        return

    if jobs == 1:
        for i in range(len(points)):
            if i in results:
                yield i, yield_cached(i)
            else:
                exp_id, kwargs = points[i]
                sweep_emit(_events.CELL_STARTED, index=i, exp_id=exp_id)
                yield i, finish(i, point_fn(exp_id, **kwargs))
        sweep_emit(_events.SWEEP_FINISHED, status="ok")
        return

    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context(
        mp_context if mp_context is not None else ("fork" if os.name == "posix" else "spawn")
    )
    with ProcessPoolExecutor(max_workers=min(jobs, len(pending)), mp_context=ctx) as pool:
        futures = {}
        for i in pending:
            sweep_emit(_events.CELL_STARTED, index=i, exp_id=points[i][0])
            futures[i] = pool.submit(_run_point, *points[i], runner)
        for i in range(len(points)):
            if i in results:
                yield i, yield_cached(i)
            else:
                yield i, finish(i, result_from_dict(futures[i].result()))
    sweep_emit(_events.SWEEP_FINISHED, status="ok")


def run_grid(
    points: Sequence[GridPoint],
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    mp_context: Optional[str] = None,
    keys: Optional[Sequence[str]] = None,
    runner=None,
) -> List[ExperimentResult]:
    """Like :func:`iter_grid` but collects into a list (input order)."""
    out: List[Optional[ExperimentResult]] = [None] * len(points)
    for i, result in iter_grid(
        points, jobs=jobs, cache_dir=cache_dir, mp_context=mp_context,
        keys=keys, runner=runner,
    ):
        out[i] = result
    return out  # type: ignore[return-value]
