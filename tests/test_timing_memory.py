"""A timing cell holds its schedule, not a model.

The timing experiments size messages and FLOPs from ``ModelInfo`` derived
from the architecture (no network is built), and a scaling cell's live set
is bounded: the bounds sit about 10 % above what the cells measure on
CPython 3.11 (tracemalloc, fresh process), far under the 12–18 MiB the same
cells held when they built the paper model and kept every route and span as
objects.
"""

import tracemalloc

import pytest

from repro.harness import experiments
from repro.harness.timing import TimingWorkload, simulate_epoch_time
from repro.nn.models import nlcf_info
from repro.nn.module import Module
from repro.sim.engine import Engine


def test_timing_experiments_construct_no_module(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a timing experiment built {type(self).__name__}")

    monkeypatch.setattr(Module, "__init__", refuse)
    assert set(experiments._paper_workloads()) == {"CIFAR-10", "NLC-F"}
    assert experiments.traffic(p_values=(2,)).rows
    assert len(experiments.scaling(p_values=(8,), topology="fat-tree").rows) == 2


# (p, comm mode) -> MiB the Downpour cell may hold when its engine stops:
# 1.27 and 6.01 measured, against 12.19 and 17.62 before
LIVE_MIB = {(32, "message"): 1.4, (1024, "vector"): 6.6}


@pytest.mark.parametrize("p, mode", sorted(LIVE_MIB))
def test_downpour_scaling_cell_live_set_is_bounded(monkeypatch, p, mode):
    wl = TimingWorkload.from_model_info(nlcf_info(), n_train=2_500)
    live = []
    run = Engine.run

    def run_and_measure(self, *args, **kwargs):
        out = run(self, *args, **kwargs)
        live.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(Engine, "run", run_and_measure)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        # the fat-tree cell exactly as ``scaling`` runs it
        machine = experiments._scaling_machine("fat-tree", p, n_nodes=4, n_hosts=4)
        simulate_epoch_time(
            "downpour", wl, p=p, T=1, epochs=1, machine=machine, comm_mode=mode,
            n_shards=8, ps_hosts=[f"host{h}" for h in range(4)],
        )
    finally:
        tracemalloc.stop()
    held = (live[0] - base) / 2**20
    assert held < LIVE_MIB[p, mode], f"the p = {p} {mode} cell holds {held:.2f} MiB"
