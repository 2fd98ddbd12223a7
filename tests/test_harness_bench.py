"""Benchmark suite: document schema, persistence, and the regression check."""

import json

import pytest

from repro.harness.bench import (
    BENCH_SCHEMA,
    compare_to_baseline,
    default_bench_path,
    format_bench,
    load_bench,
    run_benchmarks,
    save_bench,
)


@pytest.fixture(scope="module")
def doc():
    # kernels only: the end-to-end experiment bench is exercised by the CLI
    return run_benchmarks(quick=True, include_experiment=False)


def test_schema_and_provenance(doc):
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["quick"] is True
    assert doc["numpy"] and doc["python"]
    assert isinstance(doc["cpu_count"], int) and doc["cpu_count"] >= 1
    for name, entry in doc["benches"].items():
        assert entry["seconds"] > 0, name
        assert entry["ops_per_sec"] == pytest.approx(1.0 / entry["seconds"])
        assert entry["reps"] >= 1


def test_expected_benches_present(doc):
    names = set(doc["benches"])
    assert {
        "conv2d_forward",
        "conv2d_forward_backward",
        "im2col_plan",
        "col2im_plan",
        "temporal_conv_forward_backward",
        "maxpool2d_forward_backward",
        "cifar_train_step",
        "nlcf_train_step",
        "cifar_evaluate_model",
        "sgd_step",
        "momentum_sgd_step",
        "sasgd_interval",
    } <= names
    assert "experiment_fig2_unit" not in names  # suppressed by the flag


def test_derived_speedups(doc):
    # the kernels and the engine are timed alone: their speedups over the code
    # they replaced are recorded history, not ratios each run recomputes
    legacy = {
        "conv2d_forward_backward_legacy",
        "temporal_conv_forward_backward_legacy",
        "engine_event_throughput_legacy",
    }
    assert "engine_event_throughput" in doc["benches"]
    assert not legacy & set(doc["benches"])
    assert set(doc["derived"]) == {"fabric_wave_speedup_vs_message"}


def test_save_load_roundtrip(doc, tmp_path):
    path = save_bench(doc, tmp_path / "bench.json")
    assert load_bench(path) == json.loads(path.read_text()) == doc


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValueError, match="schema"):
        load_bench(path)


def test_format_bench_lists_every_bench(doc):
    text = format_bench(doc)
    for name in doc["benches"]:
        assert name in text


def test_default_bench_path(doc):
    rev = doc.get("git_rev")
    name = default_bench_path(doc).name
    assert name.startswith("BENCH_") and name.endswith(".json")
    if rev:
        assert str(rev)[:12] in name


class TestCompare:
    def _doc(self, seconds):
        return {
            "schema": BENCH_SCHEMA,
            "benches": {n: {"seconds": s, "ops_per_sec": 1 / s, "reps": 3} for n, s in seconds.items()},
        }

    def test_within_threshold_ok(self):
        base = self._doc({"a": 1.0, "b": 2.0})
        cur = self._doc({"a": 1.5, "b": 1.0})
        ok, msgs = compare_to_baseline(cur, base, threshold=2.0)
        assert ok
        assert all(m.startswith("ok") for m in msgs)

    def test_regression_flagged(self):
        base = self._doc({"a": 1.0, "b": 1.0})
        cur = self._doc({"a": 2.5, "b": 1.0})
        ok, msgs = compare_to_baseline(cur, base, threshold=2.0)
        assert not ok
        assert any(m.startswith("FAIL a:") for m in msgs)

    def test_only_common_benches_compared(self):
        base = self._doc({"a": 1.0, "gone": 0.1})
        cur = self._doc({"a": 1.0, "new": 99.0})
        ok, msgs = compare_to_baseline(cur, base, threshold=2.0)
        assert ok and len(msgs) == 1

    def test_no_overlap_fails(self):
        ok, msgs = compare_to_baseline(self._doc({"a": 1.0}), self._doc({"b": 1.0}))
        assert not ok

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_to_baseline(self._doc({"a": 1.0}), self._doc({"a": 1.0}), 1.0)


def test_check_never_overwrites_its_baseline(tmp_path, monkeypatch):
    """``bench --check B`` where this run would be saved as ``B`` itself: the
    baseline stays byte-identical and a 3x slower run still fails."""
    from repro import __main__ as cli
    from repro.harness import bench

    base = TestCompare()._doc({"a": 1.0, "b": 2.0})
    base["git_rev"] = "0123456789abcdef"
    monkeypatch.chdir(tmp_path)
    path = save_bench(base, default_bench_path(base))
    before = path.read_bytes()
    slow = dict(TestCompare()._doc({"a": 3.0, "b": 6.0}), git_rev=base["git_rev"])
    monkeypatch.setattr(bench, "run_benchmarks", lambda **kwargs: slow)
    assert cli.main(["bench", "--check", path.name]) == 1
    assert path.read_bytes() == before


def test_filtered_run_is_never_written_as_a_baseline(tmp_path, monkeypatch):
    """``bench --filter`` keeps a subset; saved under the canonical name, a
    later ``--check`` against it would silently skip every bench it dropped."""
    from repro import __main__ as cli

    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--quick", "--no-experiment", "--filter", "sgd_step"]
    assert cli.main(argv) == 0
    assert list(tmp_path.iterdir()) == []
    assert cli.main(argv + ["--out", "subset.json"]) == 0
    assert sorted(load_bench(tmp_path / "subset.json")["benches"]) == [
        "momentum_sgd_step",
        "sgd_step",
    ]
