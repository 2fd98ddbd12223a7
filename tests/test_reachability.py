"""The reachability audit's checked-in list, and the probe it runs under.

The corpus itself takes about 20 minutes and runs in CI's
``reachability`` job (``tests/reachability/audit.py``).  Here: every entry of
``tests/reachability/unreached.txt`` must still name a def in ``src/repro``
and give a reason, and the probe must see a function entered on the main
thread, on another thread and in a forked child that leaves by ``os._exit``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests.reachability import audit

ROOT = Path(__file__).resolve().parents[1]


def test_every_listed_def_exists_and_has_a_reason():
    inventory = audit.defs()
    lines = [line for line in audit.LIST.read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    keys = [line.partition("#")[0].strip() for line in lines]
    assert len(keys) == len(set(keys)), "an entry is listed twice"
    assert keys == sorted(keys), "keep the list sorted"
    for key, reason in audit.read_list().items():
        assert key in inventory, f"{key} is listed but no longer defined: drop it"
        category, _, why = reason.partition(":")
        assert category in audit.REASONS and why.strip(), (
            f"{key}: the reason must be '<{'|'.join(audit.REASONS)}>: why', got {reason!r}")


# Defs only their own tests enter, and references kept for comparison, are
# debts: delete one (or let an entry point use it) and lower its cap here.
CAPS = {"test": 45, "oracle": 0}


def test_test_only_and_oracle_entries_never_grow():
    counts = {category: 0 for category in CAPS}
    for reason in audit.read_list().values():
        category = reason.partition(":")[0]
        if category in counts:
            counts[category] += 1
    for category, cap in CAPS.items():
        assert counts[category] <= cap, (
            f"{counts[category]} '{category}:' entries, at most {cap}: delete the "
            "def or reach it from an entry point instead of listing it")


def test_the_inventory_names_methods_and_nested_functions_by_qualname():
    inventory = audit.defs()
    assert "repro/nn/init.py::torch_uniform_" in inventory
    assert "repro/data/sampler.py::MinibatchSampler.__init__" in inventory
    assert any(".<locals>." in key for key in inventory)


_PROBED = """
import os, threading
import numpy as np
from repro.comm.costmodel import ps_traffic_bytes
from repro.data.sampler import MinibatchSampler
from repro.nn.init import torch_uniform_

torch_uniform_(np.zeros(3), 3, np.random.default_rng(0))
t = threading.Thread(target=MinibatchSampler, args=(np.arange(4), 2, None))
t.start(); t.join()
pid = os.fork()
if pid == 0:
    ps_traffic_bytes(1.0, 2)
    os._exit(0)
os.waitpid(pid, 0)
"""


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="the probe names code objects by co_qualname (3.11+)")
def test_the_probe_sees_threads_and_forked_children(tmp_path):
    probe = tmp_path / "probe"
    probe.mkdir()
    shutil.copy(audit.HERE / "sitecustomize.py", probe / "sitecustomize.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(probe), str(ROOT / "src")]))
    subprocess.run([sys.executable, "-c", _PROBED], env=env, cwd=tmp_path,
                   check=True, timeout=60)
    hits = audit.read_hits(tmp_path)
    assert {
        "repro/nn/init.py::torch_uniform_",
        "repro/data/sampler.py::MinibatchSampler.__init__",
        "repro/comm/costmodel.py::ps_traffic_bytes",
    } <= hits
    assert "repro/comm/costmodel.py::allreduce_traffic_bytes" not in hits
