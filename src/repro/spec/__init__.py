"""repro.spec — scenarios as config.

The declarative scenario layer (DESIGN.md §12): typed registries for every
scenario dimension (:mod:`repro.spec.registry`), the :class:`ScenarioSpec`
document grammar with YAML/JSON loading, canonical hashing and field-naming
validation errors (:mod:`repro.spec.scenario`), and the compiler that turns
a spec into the exact grid points, cache keys, and contexts the harness
runs (:mod:`repro.spec.compile`).

Quick start::

    from repro.spec import ScenarioSpec, compile_scenario

    spec = ScenarioSpec(experiment="fig2", params={"p_values": (1, 8)})
    result = compile_scenario(spec).execute(jobs=4, cache_dir=".exp-cache")

    # or from a document
    from repro.spec import load_spec
    result = compile_scenario(load_spec("examples/specs/fig2.yml")).execute()
"""

from .registry import (
    BACKENDS,
    EXPERIMENTS,
    MACHINES,
    PROBLEMS,
    RECOVERY,
    REGISTRIES,
    TRAINERS,
    Registry,
    UnknownNameError,
    ensure_populated,
)

# scenario/compile pull in the harness, faults and runtime layers, which
# themselves import repro.spec.registry at definition time — so they load
# lazily (PEP 562) to keep this package importable from anywhere.
_LAZY = {
    "ScenarioSpec": "scenario",
    "SpecError": "scenario",
    "load_spec": "scenario",
    "spec_from_text": "scenario",
    "RunPlan": "compile",
    "compile_scenario": "compile",
    "run_custom": "compile",
}


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)

__all__ = [
    "Registry",
    "UnknownNameError",
    "TRAINERS",
    "PROBLEMS",
    "MACHINES",
    "RECOVERY",
    "BACKENDS",
    "EXPERIMENTS",
    "REGISTRIES",
    "ensure_populated",
    "ScenarioSpec",
    "SpecError",
    "load_spec",
    "spec_from_text",
    "RunPlan",
    "compile_scenario",
    "run_custom",
]
