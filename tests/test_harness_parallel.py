"""Parallel grid runner: determinism, splitting, merging, and the cache."""

import json

import numpy as np
import pytest

from repro.harness import run_experiment
from repro.harness.parallel import (
    ResultCache,
    config_key,
    expand_grid,
    merge_results,
    run_grid,
)
from repro.spec import ScenarioSpec, compile_scenario

# unit-scale single-epoch configs keep each point under a second
FIG2_KW = dict(p_values=(1, 2), epochs=1, seed=5, eval_every=1, scale="unit")
FIG8_KW = dict(
    T_values=(1, 2), p_values=(2,), epochs=1, seed=5, eval_every=1, scale="unit"
)


def sweep(exp_id, jobs=1, cache_dir=None, **params):
    """What ``repro run EXP --jobs N --cache-dir D`` runs: split the grid,
    fan the points out, cache them, merge."""
    plan = compile_scenario(ScenarioSpec(experiment=exp_id, params=params))
    return plan.execute(jobs=jobs, cache_dir=cache_dir)


class TestConfigKey:
    def test_stable_and_order_insensitive(self):
        a = config_key("fig2", {"p_values": (1, 2), "epochs": 3})
        b = config_key("fig2", {"epochs": 3, "p_values": [1, 2]})
        assert a == b  # dict order and tuple-vs-list do not matter

    def test_sensitive_to_values(self):
        a = config_key("fig2", {"epochs": 3})
        assert a != config_key("fig2", {"epochs": 4})
        assert a != config_key("fig3", {"epochs": 3})

    def test_numpy_scalars_canonicalised(self):
        a = config_key("fig2", {"epochs": 3})
        b = config_key("fig2", {"epochs": np.int64(3)})
        assert a == b


class TestExpandMerge:
    def test_expand_single_axis(self):
        points = expand_grid("fig2", dict(FIG2_KW))
        assert [pt["p_values"] for pt in points] == [(1,), (2,)]
        for pt in points:  # non-axis kwargs ride along untouched
            assert pt["epochs"] == 1 and pt["scale"] == "unit"

    def test_expand_two_axes_nesting_order(self):
        points = expand_grid("fig8", dict(p_values=(2, 4), T_values=(1, 8)))
        combos = [(pt["p_values"], pt["T_values"]) for pt in points]
        # p is the outer loop: all T for p=2 first, matching serial row order
        assert combos == [((2,), (1,)), ((2,), (8,)), ((4,), (1,)), ((4,), (8,))]

    def test_expand_uses_signature_defaults(self):
        points = expand_grid("fig2", {})
        assert [pt["p_values"] for pt in points] == [(1,), (2,), (8,), (16,)]

    def test_unsplittable_experiment_is_one_point(self):
        assert expand_grid("fig4", dict(p_values=(1, 2))) == [dict(p_values=(1, 2))]

    def test_merge_duplicate_series_rejected(self):
        res = run_experiment("fig2", p_values=(1,), epochs=1, seed=5, scale="unit")
        with pytest.raises(ValueError, match="duplicate series"):
            merge_results("fig2", [res, res])


class TestDeterminism:
    def test_fig2_parallel_rows_bit_identical(self):
        serial = run_experiment("fig2", **FIG2_KW)
        para = sweep("fig2", jobs=2, **FIG2_KW)
        assert para.rows == serial.rows
        assert para.series == serial.series
        assert para.exp_id == serial.exp_id and para.title == serial.title

    def test_fig8_parallel_rows_bit_identical(self):
        serial = run_experiment("fig8", **FIG8_KW)
        para = sweep("fig8", jobs=2, **FIG8_KW)
        assert para.rows == serial.rows
        assert para.series == serial.series

    def test_jobs1_split_path_matches_serial(self):
        # even without a pool, split+merge must reproduce the one-shot run
        serial = run_experiment("fig2", **FIG2_KW)
        split = sweep("fig2", jobs=1, **FIG2_KW)
        assert split.rows == serial.rows
        assert split.series == serial.series

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            sweep("nope")


class TestCache:
    def test_second_invocation_served_from_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = sweep("fig2", cache_dir=cache_dir, **FIG2_KW)
        files = sorted(cache_dir.glob("*.json"))
        assert len(files) == 2  # one per grid point

        cache = ResultCache(cache_dir)
        second = sweep("fig2", cache_dir=cache_dir, **FIG2_KW)
        assert second.rows == first.rows
        assert second.series == first.series
        # nothing was recomputed: file contents are byte-identical
        assert sorted(cache_dir.glob("*.json")) == files

    def test_cache_hit_counters(self, tmp_path):
        points = [("fig2", dict(FIG2_KW, p_values=(1,)))]
        cache = ResultCache(tmp_path)
        run_grid(points, cache_dir=tmp_path)
        assert cache.get(config_key(*points[0])) is not None
        assert cache.hits == 1

    def test_cache_file_is_self_describing(self, tmp_path):
        points = [("fig2", dict(FIG2_KW, p_values=(1,)))]
        run_grid(points, cache_dir=tmp_path)
        doc = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert doc["exp_id"] == "fig2"
        assert doc["kwargs"]["p_values"] == [1]
        assert doc["key"] == config_key(*points[0])

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        points = [("fig2", dict(FIG2_KW, p_values=(1,)))]
        key = config_key(*points[0])
        (tmp_path / f"{key}.json").write_text("{not json")
        (results,) = run_grid(points, cache_dir=tmp_path)
        assert results.rows  # ran fine, and repaired the entry
        assert json.loads((tmp_path / f"{key}.json").read_text())["key"] == key
