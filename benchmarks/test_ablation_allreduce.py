"""Ablation — allreduce algorithm choice (design choice in DESIGN.md).

The paper quotes the O(m log p) tree-reduction data movement; this ablation
measures all three implemented algorithms on the calibrated machine at the
CIFAR-10 message size and checks the textbook trade-offs hold in simulation:
ring moves the fewest bytes per rank, trees have the lowest depth, and total
traffic matches the closed forms.
"""

import math

import pytest

from repro.comm import ALLREDUCE_ALGORITHMS, Fabric
from repro.harness import PAPER_PROFILE, calibrated_machine
from repro.runtime import SimCollective


def run_one(algorithm, p=8, nbytes=506378 * 4.0):
    machine = calibrated_machine(PAPER_PROFILE, seed=0)
    fabric = Fabric(machine.engine, machine.topology, contention=True)
    names = [f"r{i}" for i in range(p)]
    coll = SimCollective([fabric.attach(names[i], f"gpu{i}") for i in range(p)], names)

    def worker(rank):
        yield from coll.allreduce(rank, None, nbytes=nbytes, ctx="a", algorithm=algorithm)

    for i in range(p):
        machine.engine.spawn(worker(i))
    machine.engine.run()
    return machine.engine.now, fabric.total_bytes


def test_ablation_allreduce_algorithms(benchmark):
    p, m = 8, 506378 * 4.0

    def sweep():
        return {algo: run_one(algo, p, m) for algo in sorted(ALLREDUCE_ALGORITHMS)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for algo, (seconds, total_bytes) in results.items():
        print(f"  {algo:20s} {seconds*1e3:8.2f} ms   {total_bytes/2**20:8.1f} MiB")
        benchmark.extra_info[algo] = f"{seconds*1e3:.2f} ms"

    # traffic matches the closed forms exactly
    assert results["tree"][1] == pytest.approx(2 * (p - 1) * m)
    assert results["ring"][1] == pytest.approx(2 * (p - 1) * m)
    assert results["recursive_doubling"][1] == pytest.approx(p * math.log2(p) * m)

    # every algorithm finishes in a sane simulated time
    for algo, (seconds, _) in results.items():
        assert 0 < seconds < 1.0
