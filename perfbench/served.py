"""The served workloads: servers, load generators and answer checks.

The benchmark reaches the server only over its wire protocol. The
closed loop (``b1_closed``) uses :class:`repro.serve.ServeClient`; the
open loop (``fleet_open``) writes pre-encoded request lines on one
socket from a sender thread and reads responses on a receiver thread,
so that a slow response never delays the next arrival.

:class:`Oracle` computes every expected answer with direct
:class:`repro.engine.InferenceSession` calls before any server starts;
a served answer is correct only when it equals that answer bit for bit.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

from workloads import ALARM, FIXED_SPEC, LANDSCAPE, kind_of

#: Seconds of one untraced + traced block pair when the closed loop
#: alternates them, so that both halves see the same machine conditions.
ALTERNATE_BLOCK_S = 0.5

#: How long the receiver waits for a missing response before giving up.
RESPONSE_TIMEOUT_S = 30.0


def _same(served, expected) -> bool:
    """Structural equality with floats compared bit for bit."""
    if isinstance(expected, float):
        return isinstance(served, float) and served.hex() == expected.hex()
    if isinstance(expected, list):
        return (
            isinstance(served, list)
            and len(served) == len(expected)
            and all(_same(s, e) for s, e in zip(served, expected))
        )
    if isinstance(expected, dict):
        return isinstance(served, dict) and all(
            key in served and _same(served[key], value)
            for key, value in expected.items()
        )
    return served == expected


class Oracle:
    """Direct-call answers for the served circuits."""

    def __init__(self, circuits) -> None:
        from repro.ac.transform import binarize
        from repro.bn.networks import get_network
        from repro.compile import compile_network
        from repro.engine import InferenceSession
        from repro.serve import parse_format_spec

        self.sessions = {
            name: InferenceSession(
                binarize(compile_network(get_network(name)).circuit).circuit
            )
            for name in circuits
        }
        self.fixed = parse_format_spec(FIXED_SPEC)

    def build_native(self) -> None:
        """Compile (or load) every served circuit's native module now.

        Raises when the toolchain fell back to numpy: the benchmark
        measures the production backend or nothing.
        """
        for name, session in self.sessions.items():
            session.evaluate_batch([{}], strict=True)
            if session.backend != "native":
                raise RuntimeError(
                    f"native backend unavailable for {name}: "
                    f"{session.backend_fallback_reason}"
                )

    def expected(self, payload: dict) -> dict:
        """The result fields a served response to ``payload`` must carry."""
        session = self.sessions[payload["circuit"]]
        evidence = payload["evidence"]
        kind = kind_of(payload)
        if kind == "theta":
            values = session.evaluate_theta_batch(payload["theta"], evidence)
            return {"values": [float(v) for v in values]}
        if kind == "marginals":
            exact = session.marginals_batch([evidence], strict=True)
            return {"posteriors": {
                variable: [float(p) for p in exact[variable][:, 0]]
                for variable in session.marginal_index.variables
            }}
        expected = {
            "value": float(session.evaluate_batch([evidence], strict=True)[0])
        }
        if kind == "eval_fixed":
            expected["quantized"] = float(
                session.evaluate_quantized_batch(
                    self.fixed, [evidence], strict=True
                )[0]
            )
        return expected


@dataclass
class Outcome:
    """One request of a measured run, judged as it is recorded.

    Only traced runs keep the decoded response (for its spans): holding
    thousands of response dicts would make the process's garbage
    collections, and so the latencies being measured, grow with the run.
    """

    index: int  # position in the request pool
    at_s: float  # when it was sent (closed loop) or due (open loop)
    latency_ms: float | None  # None when no response arrived
    ok: bool  # answered, without error, equal to the oracle's answer
    native: bool  # answered correctly by the native backend
    response: dict | None = None
    late_ms: float = 0.0  # open loop: how late the generator sent it
    cpu_ms: float = 0.0  # closed loop: the process's CPU time meanwhile


def verdict(response: dict | None, expected: dict) -> tuple[bool, bool]:
    """``(ok, native)`` for one wire response against its oracle answer."""
    if response is None or not response.get("ok"):
        return False, False
    result = response.get("result")
    if not _same(result, expected):
        return False, False
    return True, result.get("backend") == "native"


# -- b1_closed -----------------------------------------------------------
def start_single(pool) -> tuple:
    """A single server on ``alarm``, answered once per request kind.

    Returns ``(server, client)`` once the last warm-up answer is in, so
    the call covers server start, circuit compile and kernel load.
    """
    from repro.serve import (
        BackgroundServer,
        CircuitRegistry,
        CircuitSource,
        ServeClient,
    )

    server = BackgroundServer(
        CircuitRegistry([CircuitSource(ALARM, "builtin")])
    ).start()
    client = ServeClient(server.host, server.port)
    _warm(client, pool)
    return server, client


def stop_single(handle) -> None:
    server, client = handle
    client.close()
    server.stop()


def _warm(client, pool) -> None:
    seen = set()
    for payload in pool:
        kind = kind_of(payload)
        if kind not in seen:
            seen.add(kind)
            client.request(dict(payload)).raise_for_error()


def closed_loop(
    client, pool, expected, seconds, traced, start_index=0
) -> list[Outcome]:
    """Send pool requests one at a time for ``seconds``; time each.

    Only one request is in flight, so the process CPU time spent while
    it was (client, server loop and executor threads alike) is its own.
    """
    outcomes = []
    index = start_index
    started = time.perf_counter_ns()
    deadline = started + int(seconds * 1e9)
    while time.perf_counter_ns() < deadline:
        slot = index % len(pool)
        payload = dict(pool[slot])
        if traced:
            payload["trace"] = {}
        cpu_before = time.process_time_ns()
        sent = time.perf_counter_ns()
        response = client.request(payload)
        latency_ms = (time.perf_counter_ns() - sent) / 1e6
        cpu_ms = (time.process_time_ns() - cpu_before) / 1e6
        wire = response.to_wire()
        outcomes.append(Outcome(
            slot,
            (sent - started) / 1e9,
            latency_ms,
            *verdict(wire, expected[slot]),
            response=wire if traced else None,
            cpu_ms=cpu_ms,
        ))
        index += 1
    return outcomes


def alternating_closed_loop(client, pool, expected, seconds) -> tuple:
    """Untraced and traced closed loops in alternating short blocks."""
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for outcomes, trace in ((untraced, False), (traced, True)):
            outcomes.extend(closed_loop(
                client, pool, expected, ALTERNATE_BLOCK_S / 2, trace,
                len(untraced) + len(traced),
            ))
    return untraced, traced


# -- fleet_open ------------------------------------------------------------
def start_fleet(pool):
    """A 2-shard × 1-replica fleet serving ``alarm`` and ``landscape``.

    Returns it once every worker has answered each request kind.
    """
    from repro.serve import (
        CircuitRegistry,
        CircuitSource,
        ServeClient,
        ShardedServer,
    )

    fleet = ShardedServer(
        CircuitRegistry([
            CircuitSource(ALARM, "builtin"),
            CircuitSource(LANDSCAPE, "builtin"),
        ]),
        shards=2,
        replicas=1,
    ).start()
    with ServeClient(fleet.host, fleet.port) as client:
        _warm(client, pool)
    return fleet


def open_loop(host, port, pool, expected, schedule, traced) -> list[Outcome]:
    """Send ``pool`` requests at the ``schedule`` due times on one socket.

    Latency runs from each request's due time to its response, so a
    stall is charged to every request that queued behind it. The
    receiver only stamps raw lines; they are decoded after the run.
    """
    lines = []
    for position in range(len(schedule)):
        payload = dict(pool[position % len(pool)])
        payload["id"] = position
        if traced:
            payload["trace"] = {}
        lines.append((json.dumps(payload) + "\n").encode())
    received: list[tuple[float, bytes]] = []
    sock = socket.create_connection((host, port))
    sock.settimeout(RESPONSE_TIMEOUT_S)
    reader = sock.makefile("rb")

    def receive() -> None:
        try:
            for _ in lines:
                line = reader.readline()
                if not line:
                    return
                received.append((time.perf_counter(), line))
        except OSError:
            return  # timed out: the missing responses count as failed

    receiver = threading.Thread(target=receive, name="bench-receiver")
    late = [0.0] * len(lines)
    origin = time.perf_counter() + 0.01
    try:
        receiver.start()
        for position, line in enumerate(lines):
            due = origin + schedule[position]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late[position] = time.perf_counter() - due
            sock.sendall(line)
        receiver.join(RESPONSE_TIMEOUT_S + 5)
    finally:
        sock.close()
        reader.close()
        receiver.join()
    answered = {}
    for arrived, line in received:
        response = json.loads(line)
        answered[response.get("id")] = (arrived, response)
    outcomes = []
    for position in range(len(lines)):
        slot = position % len(pool)
        arrived, response = answered.get(position, (None, None))
        outcomes.append(Outcome(
            slot,
            float(schedule[position]),
            None if arrived is None
            else (arrived - origin - schedule[position]) * 1e3,
            *verdict(response, expected[slot]),
            response=response if traced else None,
            late_ms=late[position] * 1e3,
        ))
    return outcomes


# -- spans -----------------------------------------------------------------
def span_durations_ms(response: dict) -> dict[str, float]:
    """``{span name: duration}`` of one traced response's timing tree."""
    timing = response["result"]["timing"]
    return {
        span["name"]: (span["end_us"] - span["start_us"]) / 1e3
        for span in timing["spans"]
    }


def batch_size(response: dict) -> int:
    for span in response["result"]["timing"]["spans"]:
        if span["name"] == "batch.execute":
            return int(span["batch_size"])
    raise KeyError("traced response has no batch.execute span")
