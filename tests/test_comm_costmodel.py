"""Unit tests for the closed-form traffic of an allreduce and a parameter server."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import allreduce_traffic_bytes, ps_traffic_bytes


@settings(max_examples=50, deadline=None)
@given(p=st.integers(min_value=2, max_value=256), m=st.floats(min_value=1, max_value=1e8))
def test_traffic_ps_exceeds_tree_critical_path(p, m):
    """The paper's O(mp) vs O(m log p): PS bytes beat the allreduce critical
    path for every p >= 2."""
    assert ps_traffic_bytes(m, p) >= allreduce_traffic_bytes(m, p, "tree_depth")


def test_traffic_formulas():
    m, p = 1000.0, 8
    assert allreduce_traffic_bytes(m, p, "tree") == 2 * 7 * m
    assert allreduce_traffic_bytes(m, p, "tree_depth") == 2 * 3 * m
    assert allreduce_traffic_bytes(m, p, "ring") == 2 * 7 * m
    assert allreduce_traffic_bytes(m, p, "recursive_doubling") == 8 * 3 * m
    assert ps_traffic_bytes(m, p) == 2 * p * m
    assert allreduce_traffic_bytes(m, 1) == 0.0


def test_traffic_unknown_algorithm():
    with pytest.raises(ValueError):
        allreduce_traffic_bytes(1e6, 4, "nope")
