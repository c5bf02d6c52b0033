"""Sensitivity scoring and top-fraction selection against reference rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hefl.errors import UsageError
from hefl.model import Architecture, build_model, forward_backward
from hefl.sensitivity import (SelectionMask, jacobian_map, magnitude_map,
                              select_top_r)

from .oracles import topr_select


def test_select_matches_reference_selection(rng):
    for _ in range(300):
        n = int(rng.integers(1, 200))
        scores = rng.normal(size=n)
        ratio = float(rng.uniform(0, 1))
        mask = select_top_r(scores, ratio)
        assert mask.indices.tolist() == topr_select(scores, ratio)


def test_select_rounding_half_up():
    scores = np.arange(10, dtype=float)
    assert select_top_r(scores, 0.0).count == 0
    assert select_top_r(scores, 1.0).count == 10
    assert select_top_r(scores, 0.25).count == 3   # 2.5 rounds up
    assert select_top_r(scores, 0.24).count == 2
    assert select_top_r(np.ones(3), 0.5).count == 2  # 1.5 rounds up


def test_select_tie_prefers_lower_index():
    scores = np.array([1.0, 3.0, 3.0, 3.0, 0.0])
    mask = select_top_r(scores, 0.4)
    assert mask.indices.tolist() == [1, 2]


def test_select_rejects_bad_input():
    with pytest.raises(UsageError):
        select_top_r(np.array([1.0, np.nan]), 0.5)
    with pytest.raises(UsageError):
        select_top_r(np.array([]), 0.5)
    with pytest.raises(UsageError):
        select_top_r(np.ones(4), 1.5)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64),
       st.floats(0, 1))
def test_select_properties(values, ratio):
    scores = np.array(values)
    mask = select_top_r(scores, ratio)
    n = scores.size
    assert mask.count == int(np.floor(ratio * n + 0.5))
    assert mask.total == n
    idx = mask.indices
    assert np.all(np.diff(idx) > 0)                      # sorted, unique
    if 0 < mask.count < n:
        chosen = np.zeros(n, dtype=bool)
        chosen[idx] = True
        # every selected score >= every rejected score
        assert scores[chosen].min() >= scores[~chosen].max()


def test_complement_partitions_indices():
    mask = select_top_r(np.array([5.0, 1.0, 4.0, 2.0]), 0.5)
    merged = np.sort(np.concatenate([mask.indices, mask.complement()]))
    assert merged.tolist() == [0, 1, 2, 3]


def test_fingerprint_tracks_content():
    a = select_top_r(np.array([3.0, 1.0, 2.0]), 0.34)
    b = select_top_r(np.array([3.0, 1.0, 2.0]), 0.34)
    c = select_top_r(np.array([1.0, 3.0, 2.0]), 0.34)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    d = SelectionMask(a.indices, a.total + 1, a.ratio)
    assert d.fingerprint() != a.fingerprint()


def test_magnitude_map_is_absolute_value(rng):
    v = rng.normal(size=50)
    assert np.array_equal(magnitude_map(v), np.abs(v))
    with pytest.raises(UsageError):
        magnitude_map(np.array([1.0, np.inf]))
    with pytest.raises(UsageError):
        magnitude_map(np.ones((2, 2)))


def test_jacobian_map_is_mean_squared_gradient(rng):
    arch = Architecture("linear", (5,), 3)
    model = build_model(arch, 4)
    batches = [(rng.uniform(0, 1, (4, 5)), rng.integers(0, 3, 4))
               for _ in range(3)]
    scores = jacobian_map(model, batches)
    expected = np.zeros(model.size)
    for xb, yb in batches:
        _, g = forward_backward(model, xb, yb)
        expected += g * g
    expected /= 3
    assert np.allclose(scores, expected, atol=1e-15)
    assert np.all(scores >= 0)
    with pytest.raises(UsageError):
        jacobian_map(model, [])
