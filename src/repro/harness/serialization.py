"""Persistence for experiment outputs.

Experiment results serialise to JSON (the harness's exchange format: rerun a
figure, diff it against a stored run).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .experiments import ExperimentResult

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
]

PathLike = Union[str, Path]


def result_to_dict(result: ExperimentResult) -> dict:
    return {
        "exp_id": result.exp_id,
        "title": result.title,
        "paper_claim": result.paper_claim,
        "rows": [
            {k: (list(v) if isinstance(v, tuple) else v) for k, v in row.items()}
            for row in result.rows
        ],
        "series": {name: [[float(x), float(y)] for x, y in pts] for name, pts in result.series.items()},
        "notes": result.notes,
    }


def result_from_dict(data: dict) -> ExperimentResult:
    return ExperimentResult(
        exp_id=data["exp_id"],
        title=data["title"],
        paper_claim=data["paper_claim"],
        rows=[
            {k: (tuple(v) if isinstance(v, list) else v) for k, v in row.items()}
            for row in data["rows"]
        ],
        series={
            name: [(float(x), float(y)) for x, y in pts]
            for name, pts in data["series"].items()
        },
        notes=data.get("notes", ""),
    )


def save_result(result: ExperimentResult, path: PathLike) -> None:
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2))


def load_result(path: PathLike) -> ExperimentResult:
    return result_from_dict(json.loads(Path(path).read_text()))
