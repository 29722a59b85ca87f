"""In-process timings of the engine and protocol public functions.

Each function times one public call per recorded input, one call at a
time, and returns the per-call times in microseconds. The inputs are
the workload's own requests and responses, so the figures describe the
work the served path does on them.
"""

from __future__ import annotations

import json
import time

from workloads import ALARM, kind_of


def _per_call_us(call, inputs) -> list[float]:
    times = []
    for item in inputs:
        started = time.perf_counter_ns()
        call(item)
        times.append((time.perf_counter_ns() - started) / 1e3)
    return times


def protocol_parse_us(pool) -> list[float]:
    """Wire line → typed request (``json.loads`` + ``parse_request``)."""
    from repro.serve import parse_request

    lines = [
        (json.dumps({**payload, "id": position}) + "\n").encode()
        for position, payload in enumerate(pool)
    ]
    return _per_call_us(lambda line: parse_request(json.loads(line)), lines)


def protocol_encode_us(responses) -> list[float]:
    """Result dict → wire line (``Response.to_wire`` + ``encode_line``)."""
    from repro.serve import Response
    from repro.serve.transport import encode_line

    return _per_call_us(
        lambda response: encode_line(
            Response(response["id"], True, response["result"]).to_wire()
        ),
        responses,
    )


def _alarm_evidence(pool) -> list[dict]:
    return [p["evidence"] for p in pool if p["circuit"] == ALARM]


def encoder_us(session, pool, batch: int) -> list[float]:
    """``EvidenceEncoder.encode`` on consecutive ``batch``-row slices."""
    evidence = _alarm_evidence(pool)
    slices = [
        evidence[start:start + batch]
        for start in range(0, len(evidence) - batch + 1, batch)
    ]
    return _per_call_us(
        lambda rows: session.encoder.encode(rows, strict=True), slices
    )


def session_us(oracle, pool) -> dict[str, list[float]]:
    """Batch-1 direct ``InferenceSession`` calls, one list per call."""
    alarm = oracle.sessions[ALARM]
    evidence = _alarm_evidence(pool)
    tiles = [p for p in pool if kind_of(p) == "theta"]
    landscape = oracle.sessions[tiles[0]["circuit"]]
    return {
        "evaluate_batch": _per_call_us(
            lambda e: alarm.evaluate_batch([e], strict=True), evidence
        ),
        "evaluate_quantized_batch": _per_call_us(
            lambda e: alarm.evaluate_quantized_batch(
                oracle.fixed, [e], strict=True
            ),
            evidence,
        ),
        "marginals_batch": _per_call_us(
            lambda e: alarm.marginals_batch([e], strict=True), evidence
        ),
        "evaluate_theta_batch": _per_call_us(
            lambda p: landscape.evaluate_theta_batch(
                p["theta"], p["evidence"]
            ),
            tiles,
        ),
    }


def native_evaluate_us(session, pool) -> list[float]:
    """``NativeTapeKernels.evaluate`` at batch 1 on the alarm tape."""
    from repro.engine import native_kernels_for

    kernels = native_kernels_for(session.tape, session.encoder)
    return _per_call_us(kernels.evaluate, _alarm_evidence(pool))
