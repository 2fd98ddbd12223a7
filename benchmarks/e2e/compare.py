"""``run.py compare A.json B.json``: judge report B against report A.

Per metric x workload: medians and quartiles of both sides and a verdict.
``worse`` means B's median is worse than A's by more than the metric's bound.
Where the run-to-run spread (quartile distance over median, either side) is
wider than the bound the verdict is ``unresolved`` — not ``same`` — unless
every run of one side beats every run of the other.  A report measured on a
loaded machine is ``noisy`` and is never judged better or worse.  Every ratio
is printed with its base.
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Any, Dict, List, Sequence, Tuple

from metrics import E2E_BY_NAME, PER_LAYER, slack_for
from workloads import BY_NAME

__all__ = ["verdict", "compare_reports", "main"]

#: layers carry no bound; a single traced run moving by more than this share
#: (and by more than LAYER_FLOOR in its own unit) is reported as moved
LAYER_BOUND = 0.25
LAYER_FLOOR = 0.02


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(better: str, a: float, b: float) -> float:
    """Signed share of A's value by which B is worse (negative: better)."""
    if a == 0:
        delta = 0.0 if b == 0 else math.copysign(math.inf, b)
    else:
        delta = (b - a) / abs(a)
    return delta if better == "lower" else -delta


def verdict(better: str, bound: float, a: Sequence[float], b: Sequence[float],
            slack: float = 0.0, noisy: bool = False) -> str:
    ma, mb = statistics.median(a), statistics.median(b)
    tol = bound + (slack / abs(ma) if ma else 0.0)
    shift = worse_by(better, ma, mb)
    if abs(shift) <= tol:
        moved = "same"
    else:
        moved = "worse" if shift > 0 else "better"
    qa, qb = quartiles(a), quartiles(b)
    spread = max(qa[2] - qa[0], qb[2] - qb[0]) / abs(ma) if ma else 0.0
    if spread > bound > 0:
        lo, hi = (min, max) if better == "lower" else (max, min)
        if all(worse_by(better, x, lo(b)) > 0 for x in a):
            moved = "worse"      # B's best run is worse than every run of A
        elif all(worse_by(better, x, hi(b)) < 0 for x in a):
            moved = "better"
        else:
            return "unresolved"
    elif moved == "better" and abs(mb - ma) <= qa[2] - qa[0]:
        moved = "same"           # inside the parent's own spread: no gain
    if noisy and moved != "same":
        return "unresolved"
    return moved


def _fmt(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare_reports(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    noisy = bool(a["env"].get("noisy") or b["env"].get("noisy"))
    rows: List[Dict[str, Any]] = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        w = BY_NAME[name]
        for metric, va in wa["end_to_end"].items():
            vb = wb["end_to_end"].get(metric)
            if not va or not vb:
                continue
            spec = E2E_BY_NAME[metric]
            rows.append({
                "workload": name, "metric": metric, "unit": spec.unit, "kind": "end_to_end",
                "a": _fmt(va), "b": _fmt(vb),
                "shift": worse_by(spec.better, statistics.median(va), statistics.median(vb)),
                "verdict": verdict(spec.better, spec.bound, va, vb,
                                   slack_for(spec, w), noisy),
            })
        if wa["runs_failed"] or wb["runs_failed"]:
            rows.append({
                "workload": name, "metric": "runs_failed", "unit": "count",
                "kind": "end_to_end",
                "a": f"{wa['runs_failed']}/{wa['runs_attempted']}",
                "b": f"{wb['runs_failed']}/{wb['runs_attempted']}",
                "shift": 0.0,
                "verdict": "worse" if wb["runs_failed"] > wa["runs_failed"] else "same",
            })
        for layer in PER_LAYER:
            la, lb = wa["per_layer"].get(layer.name), wb["per_layer"].get(layer.name)
            if la is None or lb is None or (la == 0 and lb == 0):
                continue
            if layer.moves is None:
                continue  # diagnostics: they predict no end-to-end movement
            moved = "same"
            if abs(lb - la) > LAYER_FLOOR:
                moved = verdict(layer.better, LAYER_BOUND, [la], [lb])
            rows.append({
                "workload": name, "metric": layer.name, "unit": layer.unit,
                "kind": "per_layer", "a": f"{la:.6g}", "b": f"{lb:.6g}",
                "shift": worse_by(layer.better, la, lb), "verdict": moved,
            })
    return rows


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    rows = compare_reports(a, b)
    for side, rep in (("A", a), ("B", b)):
        env = rep["env"]
        print(f"{side}: rev {env['git_rev'][:12]} seed {rep['seed']} "
              f"load {env['load_1m_start']:.2f}->{env.get('load_1m_end', 0):.2f}"
              f"{' NOISY' if env.get('noisy') else ''}")
    print("median [q1, q3] n; shift = share of A's median by which B is worse")
    last = None
    for row in rows:
        if row["kind"] == "per_layer" and row["verdict"] == "same":
            continue
        if row["workload"] != last:
            last = row["workload"]
            print(f"\n{last}")
        print(f"  {row['verdict']:<10} {row['metric']:<28} {row['unit']:<9} "
              f"A {row['a']}  B {row['b']}  shift {row['shift']:+.1%} of A")
    gated = [r for r in rows if r["kind"] == "end_to_end"]
    counts = {v: sum(r["verdict"] == v for r in gated)
              for v in ("better", "same", "worse", "unresolved")}
    print("\nend-to-end verdicts:", ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0
