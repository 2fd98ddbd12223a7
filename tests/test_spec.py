"""repro.spec: registries, the ScenarioSpec grammar, and the compiler.

Covers the contract DESIGN.md §12 promises:

* registries fill at definition site and unknown names fail with
  "did you mean" errors naming the field;
* spec documents round-trip (YAML/dict → ScenarioSpec → canonical dict →
  ScenarioSpec) stably, and the canonical hash is key-order insensitive;
* the CLI ``--fault`` grammar and the structured spec fault plan normalise
  to the same canonical form and the same FaultPlan;
* ``compile_scenario`` reproduces ``run_experiment`` bit-identically and
  derives grid-cache keys from the spec's canonical form — an unchanged
  spec hits the disk cache, any changed field misses.
"""

import json
import sys

import pytest

from repro.harness.experiments import run_experiment
from repro.harness.serialization import result_to_dict
from repro.spec import (
    REGISTRIES,
    ScenarioSpec,
    SpecError,
    UnknownNameError,
    compile_scenario,
    ensure_populated,
    load_spec,
    spec_from_text,
)
from repro.spec import registry as reg

# --------------------------------------------------------------------------
# registries
# --------------------------------------------------------------------------


def test_registries_populate_at_definition_site():
    ensure_populated()
    assert "sasgd" in reg.TRAINERS and "downpour" in reg.TRAINERS
    assert "cifar" in reg.PROBLEMS and "nlcf" in reg.PROBLEMS
    assert "fat_tree" in reg.MACHINES and "torus" in reg.MACHINES
    assert set(reg.RECOVERY) == {
        "fail_fast", "elastic", "restart_shard", "reconnect",
    }
    assert set(reg.BACKENDS) == {"sim", "mp", "net"}
    assert "fig7" in reg.EXPERIMENTS and "table1" in reg.EXPERIMENTS
    assert set(REGISTRIES) == {
        "experiments", "trainers", "problems", "machines",
        "recovery_policies", "backends",
    }


def test_registry_repr_counts_entries():
    ensure_populated()
    assert repr(reg.BACKENDS) == "Registry('backend', 3 entries)"


def test_registry_meta_carries_options_and_split_axes():
    ensure_populated()
    from repro.algos import SASGDOptions

    assert reg.TRAINERS.meta("sasgd")["options"] is SASGDOptions
    assert reg.TRAINERS.meta("sgd").get("options") is None
    assert reg.EXPERIMENTS.meta("fig7")["split_axes"] == ("p_values", "T_values")
    assert reg.EXPERIMENTS.meta("fig4")["split_axes"] == ()


def test_split_axes_view_matches_registry():
    from repro.harness.parallel import SPLIT_AXES

    assert SPLIT_AXES["fig2"] == ("p_values",)
    assert SPLIT_AXES["fig7"] == ("p_values", "T_values")
    assert "fig4" not in SPLIT_AXES


def test_unknown_name_suggests_and_lists():
    ensure_populated()
    with pytest.raises(UnknownNameError) as err:
        reg.TRAINERS.get("saasgd")
    msg = str(err.value)
    assert "unknown trainer 'saasgd'" in msg
    assert "did you mean 'sasgd'" in msg
    assert "registered:" in msg and "downpour" in msg
    # catchable as either the historical ValueError or a mapping KeyError
    assert isinstance(err.value, ValueError)
    assert isinstance(err.value, KeyError)


def test_backend_and_recovery_errors_keep_pinned_prefixes():
    from repro.faults import FaultContext
    from repro.runtime import make_backend

    with pytest.raises(ValueError, match="unknown backend"):
        make_backend("mpi")
    with pytest.raises(ValueError, match="unknown recovery policy"):
        FaultContext(recovery="elastics")


# --------------------------------------------------------------------------
# spec round-tripping + canonical hashing
# --------------------------------------------------------------------------

SMOKE_YAML = """
name: smoke
problem: cifar
problem_args: {scale: unit, seed: 1}
algorithm: sasgd
options: {T: 2}
config: {p: 3, epochs: 2, batch_size: 8, lr: 0.02, seed: 3}
faults: "crash:learner=1,step=3"
recovery: elastic
"""


def test_yaml_roundtrip_is_stable():
    pytest.importorskip("yaml")
    spec = spec_from_text(SMOKE_YAML)
    canon = spec.canonical()
    again = ScenarioSpec.from_dict(canon)
    assert again.canonical() == canon
    assert again.canonical_hash() == spec.canonical_hash()
    # canonical form is plain JSON data
    json.dumps(canon)


def test_canonical_hash_is_key_order_insensitive():
    a = ScenarioSpec.from_dict(
        {"experiment": "fig2", "params": {"p_values": [1, 8], "epochs": 12}}
    )
    b = ScenarioSpec.from_dict(
        {"params": {"epochs": 12, "p_values": (1, 8)}, "experiment": "fig2"}
    )
    assert a.canonical_hash() == b.canonical_hash()
    # defaults are dropped: explicitly writing a default changes nothing
    c = ScenarioSpec.from_dict(
        {"experiment": "fig2", "params": {"p_values": [1, 8], "epochs": 12},
         "resume": False, "fault_seed": 0}
    )
    assert c.canonical_hash() == a.canonical_hash()


def test_any_field_change_changes_the_hash():
    base = ScenarioSpec.from_dict({"experiment": "fig2", "params": {"epochs": 12}})
    assert (
        base.with_overrides(backend="mp").canonical_hash() != base.canonical_hash()
    )
    assert (
        base.with_overrides(fault_seed=7).canonical_hash() != base.canonical_hash()
    )
    assert (
        base.with_overrides(params={"epochs": 13}).canonical_hash()
        != base.canonical_hash()
    )


def test_json_spec_loads_without_yaml(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"experiment": "theorem1"}))
    assert load_spec(path).experiment == "theorem1"


def test_yaml_without_pyyaml_is_a_clear_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "yaml", None)  # makes `import yaml` fail
    with pytest.raises(SpecError, match="pyyaml is not installed"):
        spec_from_text("experiment: fig2")


# --------------------------------------------------------------------------
# validation errors name the offending field
# --------------------------------------------------------------------------


def test_unknown_top_level_field_is_named():
    with pytest.raises(SpecError, match="unknown field 'experimnet'") as err:
        ScenarioSpec.from_dict({"experimnet": "fig2"})
    assert "did you mean 'experiment'" in str(err.value)


@pytest.mark.parametrize(
    "doc, field, match",
    [
        ({"experiment": "fig99"}, "experiment", "did you mean 'fig9'"),
        (
            {"problem": "cifar", "algorithm": "saasgd"},
            "algorithm",
            "did you mean 'sasgd'",
        ),
        (
            {"problem": "cifarr", "algorithm": "sasgd"},
            "problem",
            "did you mean 'cifar'",
        ),
        (
            {"problem": "cifar", "algorithm": "sasgd", "machine": "fat_treee"},
            "machine",
            "did you mean 'fat_tree'",
        ),
        (
            {"experiment": "fig2", "backend": "mpp"},
            "backend",
            "did you mean 'mp'",
        ),
        (
            {"experiment": "fig2", "recovery": "elastik"},
            "recovery",
            "did you mean 'elastic'",
        ),
        (
            {"experiment": "fig2", "params": {"p_valuess": [1]}},
            "params.p_valuess",
            "takes no parameter",
        ),
        (
            {"problem": "cifar", "algorithm": "sasgd", "options": {"tau": 3}},
            "options.tau",
            "unknown option 'tau'",
        ),
        (
            {"problem": "cifar", "algorithm": "sasgd", "config": {"pp": 2}},
            "config.pp",
            "unknown trainer config field",
        ),
        (
            {"experiment": "fig2", "sweep": {"seed": 5}},
            "sweep.seed",
            "needs a list of values",
        ),
        (
            {"experiment": "fig2", "faults": "crush:learner=1"},
            "faults",
            "",
        ),
        (
            {"experiment": "fig2", "problem": "cifar"},
            "problem",
            "belongs to custom scenarios",
        ),
    ],
)
def test_validation_errors_name_the_field(doc, field, match):
    with pytest.raises(SpecError) as err:
        ScenarioSpec.from_dict(doc)
    assert err.value.field == field
    assert str(err.value).startswith(f"{field}:")
    if match:
        assert match in str(err.value)


def test_machine_requires_sim_backend():
    with pytest.raises(SpecError, match="sim backend"):
        ScenarioSpec.from_dict(
            {
                "problem": "cifar",
                "algorithm": "sasgd",
                "machine": "fat_tree",
                "machine_args": {"n_gpus": 4},
                "backend": "mp",
            }
        )


# --------------------------------------------------------------------------
# fault grammar <-> structured plan equivalence
# --------------------------------------------------------------------------


def test_fault_grammar_and_structured_faults_are_equivalent():
    grammar = ScenarioSpec.from_dict(
        {"experiment": "fig2", "faults": "crash:learner=2,step=40; straggle:learner=1,factor=3.0,start=2"}
    )
    structured = ScenarioSpec.from_dict(
        {
            "experiment": "fig2",
            "faults": [
                {"kind": "crash", "learner": 2, "step": 40},
                {"kind": "straggle", "learner": 1, "factor": 3.0, "start": 2},
            ],
        }
    )
    assert grammar.canonical() == structured.canonical()
    assert grammar.canonical_hash() == structured.canonical_hash()
    assert grammar.fault_plan() == structured.fault_plan()
    # and a mixed list of grammar strings normalises identically too
    mixed = ScenarioSpec.from_dict(
        {
            "experiment": "fig2",
            "faults": ["crash:learner=2,step=40", "straggle:learner=1,factor=3.0,start=2"],
        }
    )
    assert mixed.canonical_hash() == grammar.canonical_hash()


def test_fault_plan_seed_rides_along():
    spec = ScenarioSpec.from_dict(
        {"experiment": "fig2", "faults": "drop:learner=0,rate=0.1", "fault_seed": 9}
    )
    assert spec.fault_plan().seed == 9


# --------------------------------------------------------------------------
# compilation: bit-identity, sweeps, cache keys
# --------------------------------------------------------------------------

FIG2_PARAMS = {"p_values": (1, 2), "epochs": 1, "eval_every": 1, "scale": "unit", "seed": 5}


def test_compiled_experiment_is_bit_identical_to_run_experiment():
    spec = ScenarioSpec(experiment="fig2", params=FIG2_PARAMS).validate()
    got = compile_scenario(spec).execute(jobs=1)
    ref = run_experiment("fig2", **FIG2_PARAMS)
    assert result_to_dict(got) == result_to_dict(ref)


def test_compiled_plan_splits_on_registered_axes():
    spec = ScenarioSpec(experiment="fig2", params=FIG2_PARAMS).validate()
    plan = compile_scenario(spec)
    assert [kw["p_values"] for _, kw in plan.points] == [(1,), (2,)]
    assert len(plan.keys) == len(set(plan.keys)) == 2


def test_experiment_sweep_expands_and_labels():
    spec = ScenarioSpec.from_dict(
        {
            "experiment": "theorem1",
            "params": {"alpha_values": [16.0]},
            "sweep": {"p_values": [[16], [32]]},
        }
    )
    plan = compile_scenario(spec)
    assert len(plan.points) == 2
    result = plan.execute(jobs=1)
    assert [row["p"] for row in result.rows] == [16, 32]


def test_cache_hits_for_unchanged_spec_and_misses_on_any_change(tmp_path):
    from repro.harness.parallel import ResultCache

    cache_dir = tmp_path / "cache"
    spec = ScenarioSpec(experiment="theorem1").validate()
    plan = compile_scenario(spec)

    cache = ResultCache(cache_dir)
    assert all(cache.get(k) is None for k in plan.keys)  # cold

    first = compile_scenario(spec).execute(jobs=1, cache_dir=cache_dir)
    stored = {p.name for p in cache_dir.glob("*.json")}
    assert stored == {f"{k}.json" for k in plan.keys}

    # unchanged spec: a fresh compile produces the same keys -> disk hit
    cache2 = ResultCache(cache_dir)
    again_plan = compile_scenario(ScenarioSpec(experiment="theorem1").validate())
    assert again_plan.keys == plan.keys
    hit = cache2.get(again_plan.keys[0])
    assert hit is not None
    assert result_to_dict(hit) == result_to_dict(first)

    # any field change (here: a param) -> different keys -> miss
    changed = compile_scenario(
        ScenarioSpec(experiment="theorem1", params={"p_values": (32,)}).validate()
    )
    assert set(changed.keys).isdisjoint(plan.keys)


def test_custom_scenario_matches_direct_trainer_wiring():
    from repro.algos import SASGDOptions, SASGDTrainer, TrainerConfig, cifar_problem

    spec = ScenarioSpec.from_dict(
        {
            "problem": "cifar",
            "problem_args": {"scale": "unit", "seed": 1},
            "algorithm": "sasgd",
            "options": {"T": 2},
            "config": {"p": 2, "epochs": 1, "batch_size": 8, "lr": 0.02, "seed": 3},
        }
    )
    got = compile_scenario(spec).execute(jobs=1)

    trainer = SASGDTrainer(
        cifar_problem(scale="unit", seed=1),
        TrainerConfig(p=2, epochs=1, batch_size=8, lr=0.02, seed=3),
        options=SASGDOptions(T=2),
    )
    ref = trainer.train()
    assert got.rows[0]["final_test_acc"] == round(ref.final_test_acc, 3)
    assert got.series["test"] == [
        (float(e), float(a)) for e, a in ref.test_accuracy_series()
    ]


def test_custom_sweep_over_config_and_options(tmp_path):
    spec = ScenarioSpec.from_dict(
        {
            "problem": "cifar",
            "problem_args": {"scale": "unit", "seed": 1},
            "algorithm": "sasgd",
            "config": {"epochs": 1, "batch_size": 8, "lr": 0.02, "seed": 3},
            "sweep": {"config.p": [1, 2], "options.T": [1, 2]},
        }
    )
    plan = compile_scenario(spec)
    assert len(plan.points) == 4
    assert len(set(plan.keys)) == 4
    result = plan.execute(jobs=1, cache_dir=tmp_path / "c")
    assert [row["p"] for row in result.rows] == [1, 1, 2, 2]
    assert "config.p=1,options.T=2,test" in result.series


def test_custom_scenario_with_fault_and_recovery_shrinks():
    spec = ScenarioSpec.from_dict(
        {
            "problem": "cifar",
            "problem_args": {"scale": "unit", "seed": 1},
            "algorithm": "sasgd",
            "options": {"T": 2},
            "config": {"p": 3, "epochs": 2, "batch_size": 8, "lr": 0.02, "seed": 3},
            "faults": "crash:learner=1,step=3",
            "recovery": "elastic",
        }
    )
    result = compile_scenario(spec).execute(jobs=1)
    # learner 1 died; the elastic survivors finished as p=2
    assert result.rows[0]["p"] == 2


def test_checked_in_specs_compile(repo_root=None):
    from pathlib import Path

    specs = sorted(Path(__file__).resolve().parents[1].glob("examples/specs/*.yml"))
    assert len(specs) >= 18
    pytest.importorskip("yaml")
    for path in specs:
        plan = compile_scenario(load_spec(path))
        assert plan.points, path.name


# --------------------------------------------------------------------------
# CLI integration
# --------------------------------------------------------------------------


def test_cli_list_prints_registries(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for heading in ("experiments:", "trainers:", "problems:", "machines:",
                    "recovery_policies:", "backends:"):
        assert heading in out
    assert "sasgd" in out and "fat_tree" in out and "elastic" in out

    assert main(["list", "backends"]) == 0
    out = capsys.readouterr().out
    assert "sim" in out and "experiments:" not in out

    assert main(["list", "trainerz"]) == 2
    assert "did you mean 'trainers'" in capsys.readouterr().err


def test_cli_run_spec_file(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "t.json"
    path.write_text(
        json.dumps(
            {"experiment": "theorem1", "params": {"alpha_values": [16.0], "p_values": [32]}}
        )
    )
    assert main(["run", "--spec", str(path)]) == 0
    assert "theorem1" in capsys.readouterr().out


def test_cli_run_spec_flag_overrides(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "t.json"
    path.write_text(json.dumps({"experiment": "theorem1", "params": {"alpha_values": [16.0]}}))
    assert main(["run", "--spec", str(path), "--set", "p_values=(64,)"]) == 0
    assert "64" in capsys.readouterr().out


def test_cli_run_spec_and_exp_id_conflict(tmp_path):
    from repro.__main__ import main

    path = tmp_path / "t.json"
    path.write_text(json.dumps({"experiment": "theorem1"}))
    with pytest.raises(SystemExit):
        main(["run", "theorem1", "--spec", str(path)])
    with pytest.raises(SystemExit):
        main(["run"])  # neither an id nor a spec


def test_cli_run_bad_spec_exits_2(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": "fig2", "params": {"p_valuess": [1]}}))
    assert main(["run", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert "params.p_valuess" in err

    assert main(["run", "fig2", "--backend", "mpp"]) == 2
    assert "did you mean 'mp'" in capsys.readouterr().err
