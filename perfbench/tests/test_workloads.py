"""The benchmark's input generators are seeded, sized and shaped as stated.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import random

import numpy as np
import pytest

from workloads import (
    ALARM,
    B1_KINDS,
    FLEET_KINDS,
    FIXED_SPEC,
    LANDSCAPE,
    POOL_SIZE,
    STREAM_LENGTH,
    THETA_TILE_ROWS,
    kind_of,
    offline_streams,
    partial_mask,
    poisson_schedule,
    request_pool,
)


@pytest.mark.parametrize("kinds", [B1_KINDS, FLEET_KINDS])
def test_same_seed_same_request_stream(kinds):
    assert request_pool(7, kinds) == request_pool(7, kinds)
    assert request_pool(7, kinds) != request_pool(8, kinds)


def test_pool_mixes_every_kind_and_nothing_else():
    for kinds in (B1_KINDS, FLEET_KINDS):
        pool = request_pool(3, kinds)
        assert len(pool) == POOL_SIZE
        assert {kind_of(payload) for payload in pool} == set(kinds)


def test_request_shapes():
    from repro.bn.networks import alarm_network

    leaves = set(alarm_network().leaves())
    for payload in request_pool(5, FLEET_KINDS):
        kind = kind_of(payload)
        if kind == "theta":
            assert payload["circuit"] == LANDSCAPE
            assert len(payload["theta"]) == THETA_TILE_ROWS
            assert set(payload["evidence"]) <= {"Presence"}
            continue
        assert payload["circuit"] == ALARM
        assert set(payload["evidence"]) <= leaves
        assert ("format" in payload) == (kind == "eval_fixed")
        if kind == "eval_fixed":
            assert payload["format"] == FIXED_SPEC


def test_masks_include_the_empty_and_the_full_case():
    leaves = ["A", "B", "C"]
    rng = random.Random(0)
    masks = {partial_mask(rng, leaves) for _ in range(400)}
    assert () in masks
    assert tuple(leaves) in masks
    assert all(set(mask) <= set(leaves) for mask in masks)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pools_hold_unobserved_and_fully_observed_requests(seed):
    from repro.bn.networks import alarm_network

    leaves = len(alarm_network().leaves())
    sizes = {
        len(payload["evidence"])
        for payload in request_pool(seed, B1_KINDS)
    }
    assert 0 in sizes
    assert leaves in sizes


def test_poisson_schedule_is_seeded():
    assert np.array_equal(
        poisson_schedule(4, 800.0, 2.0), poisson_schedule(4, 800.0, 2.0)
    )
    assert not np.array_equal(
        poisson_schedule(4, 800.0, 2.0), poisson_schedule(5, 800.0, 2.0)
    )


@pytest.mark.parametrize("rate", [50.0, 800.0])
def test_poisson_schedule_matches_its_rate(rate):
    seconds = 40.0
    due = poisson_schedule(11, rate, seconds)
    assert np.all(np.diff(due) > 0)
    assert 0.0 < due[0] and due[-1] < seconds
    # A Poisson count has standard deviation sqrt(rate * seconds); five
    # of them is far outside what a correct generator produces.
    expected = rate * seconds
    assert abs(len(due) - expected) < 5 * np.sqrt(expected)
    gaps = np.diff(due)
    assert gaps.mean() == pytest.approx(1.0 / rate, rel=0.05)
    # Exponential gaps: the standard deviation equals the mean.
    assert gaps.std() == pytest.approx(gaps.mean(), rel=0.05)


def test_poisson_schedule_rejects_nonsense():
    with pytest.raises(ValueError):
        poisson_schedule(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        poisson_schedule(1, 10.0, -1.0)


def test_offline_streams_are_seeded():
    rows = {"net": [{"F0": state} for state in range(5)]}
    first = offline_streams(9, rows)
    assert first == offline_streams(9, rows)
    assert first != offline_streams(10, rows)
    assert set(first) == {ALARM, "net"}
    assert all(len(stream) == STREAM_LENGTH for stream in first.values())
    assert all(row in rows["net"] for row in first["net"])
