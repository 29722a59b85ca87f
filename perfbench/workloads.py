"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of its seed: the same seed gives
the same request pool, the same arrival schedule and the same evidence
streams, and the program under test receives only what these produce.

* :func:`request_pool` — the wire requests of the served workloads:
  ``eval`` (float64), ``eval`` at ``fixed:1:15`` and ``marginals`` on
  ``alarm`` with partly observed leaf evidence, plus (for the fleet)
  4-row ``theta_batch`` tiles on ``landscape``.
* :func:`poisson_schedule` — the open-loop arrival times of the fleet.
* :func:`offline_streams` — the evidence streams the design flow's
  stream simulation replays, one per network.
"""

from __future__ import annotations

import random

import numpy as np

ALARM = "alarm"
LANDSCAPE = "landscape"

#: The quantized format of the ``eval_fixed`` requests.
FIXED_SPEC = "fixed:1:15"

#: Request kinds of each served workload.
B1_KINDS = ("eval", "eval_fixed", "marginals")
FLEET_KINDS = B1_KINDS + ("theta",)

#: Distinct requests per pool; runs cycle through the pool.
POOL_SIZE = 512

#: θ rows per ``theta_batch`` tile, and the side of the landscape raster
#: the tiles are cut from.
THETA_TILE_ROWS = 4
THETA_RASTER = 16

#: Evidence rows per network in one design-flow stream simulation.
STREAM_LENGTH = 256


def partial_mask(rng: random.Random, leaves) -> tuple[str, ...]:
    """A uniformly sized random subset of ``leaves`` (empty and full included).

    The subset size is drawn uniformly from ``0 .. len(leaves)``, so the
    unobserved request (no evidence at all) and the fully observed one
    both occur at a fixed rate.
    """
    leaves = sorted(leaves)
    count = rng.randint(0, len(leaves))
    return tuple(sorted(rng.sample(leaves, count)))


def _theta_raster() -> np.ndarray:
    from repro.experiments.landscape import (
        landscape_parameter_map,
        landscape_theta,
    )

    return landscape_theta(
        THETA_RASTER, THETA_RASTER, landscape_parameter_map()
    )


def request_pool(seed: int, kinds) -> list[dict]:
    """:data:`POOL_SIZE` wire requests (without ids), drawn from ``kinds``.

    ``alarm`` evidence starts from a leaf sample forward-sampled from
    the network (so its probability is never zero) and keeps a
    :func:`partial_mask` of it. θ tiles are consecutive rows of the
    landscape raster, with ``Presence`` observed or not.
    """
    from repro.bn.networks import alarm_network
    from repro.experiments.validation import alarm_marginal_evidences

    rng = random.Random(seed)
    network = alarm_network()
    leaves = network.leaves()
    samples = alarm_marginal_evidences(network, POOL_SIZE, seed=seed)
    raster = _theta_raster() if "theta" in kinds else None
    pool = []
    for sample in samples:
        kind = rng.choice(kinds)
        if kind == "theta":
            start = rng.randrange(len(raster) - THETA_TILE_ROWS + 1)
            presence = rng.choice((None, 0, 1))
            pool.append({
                "op": "theta_batch",
                "circuit": LANDSCAPE,
                "evidence": {} if presence is None else {"Presence": presence},
                "theta": raster[start:start + THETA_TILE_ROWS].tolist(),
            })
            continue
        evidence = {leaf: sample[leaf] for leaf in partial_mask(rng, leaves)}
        payload = {
            "op": "marginals" if kind == "marginals" else "eval",
            "circuit": ALARM,
            "evidence": evidence,
        }
        if kind == "eval_fixed":
            payload["format"] = FIXED_SPEC
        pool.append(payload)
    return pool


def kind_of(payload: dict) -> str:
    """The :data:`FLEET_KINDS` name of one pool request."""
    if payload["op"] == "theta_batch":
        return "theta"
    if payload["op"] == "marginals":
        return "marginals"
    return "eval_fixed" if "format" in payload else "eval"


def poisson_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Due times (seconds from the start) of a Poisson stream of ``rate``/s.

    Exponential gaps with mean ``1 / rate``, accumulated until the run
    length is reached; every due time is ``< seconds``.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    rng = np.random.default_rng(seed)
    chunk = int(rate * seconds) + 64
    due = np.cumsum(rng.exponential(1.0 / rate, chunk))
    while due[-1] < seconds:
        more = np.cumsum(rng.exponential(1.0 / rate, chunk)) + due[-1]
        due = np.concatenate([due, more])
    return due[due < seconds]


def offline_streams(seed: int, test_rows: dict) -> dict[str, list[dict]]:
    """One :data:`STREAM_LENGTH` evidence stream per design-flow network.

    ``alarm`` streams are fully observed leaf samples (the paper's Alarm
    setup); the sensor networks replay test-set rows, drawn with
    replacement from ``test_rows[name]``.
    """
    from repro.bn.networks import alarm_network
    from repro.experiments.validation import alarm_marginal_evidences

    rng = random.Random(seed)
    streams = {
        ALARM: alarm_marginal_evidences(
            alarm_network(), STREAM_LENGTH, seed=seed
        )
    }
    for name, rows in test_rows.items():
        streams[name] = [
            dict(rows[rng.randrange(len(rows))])
            for _ in range(STREAM_LENGTH)
        ]
    return streams
