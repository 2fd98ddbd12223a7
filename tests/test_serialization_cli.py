"""Tests for result persistence and the CLI."""

import json

from repro.harness import (
    ExperimentResult,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)


def sample_result():
    return ExperimentResult(
        exp_id="figX",
        title="Some figure",
        paper_claim="a claim",
        rows=[{"p": 2, "acc": 0.5, "shape": (3, 4)}],
        series={"p=2": [(1.0, 0.1), (2.0, 0.4)]},
        notes="note",
    )


def test_result_dict_roundtrip():
    r = sample_result()
    back = result_from_dict(result_to_dict(r))
    assert back.exp_id == r.exp_id
    assert back.series == r.series
    assert back.rows[0]["p"] == 2
    assert back.rows[0]["shape"] == (3, 4)  # tuples survive


def test_result_file_roundtrip(tmp_path):
    path = tmp_path / "r.json"
    save_result(sample_result(), path)
    data = json.loads(path.read_text())
    assert data["exp_id"] == "figX"
    back = load_result(path)
    assert back.paper_claim == "a claim"
    assert back.series["p=2"] == [(1.0, 0.1), (2.0, 0.4)]




# -- CLI -------------------------------------------------------------------------


def test_cli_list(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "table1" in out


def test_cli_run_with_overrides(capsys, tmp_path):
    from repro.__main__ import main

    out_path = tmp_path / "t.json"
    code = main(
        [
            "run",
            "theorem1",
            "--set",
            "alpha_values=(16.0,)",
            "--set",
            "p_values=(32,)",
            "--save",
            str(out_path),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "theorem1" in printed
    saved = load_result(out_path)
    assert saved.rows[0]["p"] == 32


def test_cli_unknown_experiment(capsys):
    from repro.__main__ import main

    # no traceback: exit code 2 with a did-you-mean listing on stderr
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'fig99'" in err
    assert "did you mean" in err and "fig9" in err
    assert "registered:" in err


def test_cli_claims(capsys):
    from repro.__main__ import main

    from repro.spec import EXPERIMENTS, ensure_populated

    assert main(["claims"]) == 0
    out = capsys.readouterr().out
    ensure_populated()
    for exp_id in EXPERIMENTS:
        meta = EXPERIMENTS.meta(exp_id)
        assert f"{exp_id}: {meta['title']}\n  {meta['claim']}\n" in out
