#!/usr/bin/env python3
"""The repository benchmark: served batch-1, open-loop fleet, design flow.

Run from the repository root::

    python3 perfbench/run.py --workload b1_closed --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``b1_closed``
    One ``BackgroundServer`` (default 2 ms batching window, ``auto``
    backend) and one client sending batch-1 ``eval`` / ``eval``
    ``fixed:1:15`` / ``marginals`` requests on ``alarm`` in a closed
    loop.
``paper_suite_offline``
    The paper's design flow on ``alarm`` and the HAR, UNIMIB and UIWADS
    stand-ins, one pass after another.

``--trace 0`` prints the end-to-end metrics of the named workload from
an untraced run, with every time rescaled to a reference host speed
(``speed.py``). ``--trace 1`` prints the per-layer table instead: it
runs a traced ``b1_closed`` section (alternating with untraced blocks,
for the tracing overhead), a traced open-loop section through a sharded
fleet (``fleet_open``: a ``ShardedServer`` of 2 shards × 1 replica fed a
seeded Poisson stream of :data:`FLEET_RATE` requests/s, the
``b1_closed`` mix plus 4-row ``theta_batch`` tiles), a few design-flow
passes, and times the engine and protocol public functions on the same
seeded inputs. The table has the same rows whichever
workload is named, so every per-layer metric is measured in every
traced run; ``README.md`` maps each row to the end-to-end metric and
workload it should move.

Every served answer is compared bit for bit with a direct
``InferenceSession`` call, and every design-flow pass checks its
selected formats and simulated outputs. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every answer was correct and
every response came from the native backend.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
from offline import NETWORKS, STAGES, build_networks, run_pass
from served import (
    Oracle,
    alternating_closed_loop,
    batch_size,
    closed_loop,
    open_loop,
    span_durations_ms,
    start_fleet,
    start_single,
    stop_single,
)
from speed import SpeedProbe, at_reference
from workloads import (
    ALARM,
    B1_KINDS,
    FLEET_KINDS,
    LANDSCAPE,
    offline_streams,
    poisson_schedule,
    request_pool,
)

ROOT = Path(__file__).resolve().parents[1]

#: Kernel modules are built here once and reused by every later run.
NATIVE_CACHE = ROOT / ".bench_cache" / "native"

#: Arrival rate of the traced ``fleet_open`` section, requests per second.
FLEET_RATE = 400.0

#: Seconds of closed-loop requests between two host-speed samples.
PROBE_EVERY_S = 0.1

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPS = 25

#: Unrecorded traffic after set-up, before the measured run.
WARMUP_S = 0.5

#: Fewest design-flow passes in one measured run.
MIN_PASSES = 3

#: How a traced run splits ``--seconds`` between its sections.
TRACE_SHARES = {"b1": 0.4, "fleet": 0.35, "offline": 0.25}

WORKLOADS = ("b1_closed", "paper_suite_offline")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def span_p50_ms(durations_ms) -> float:
    """Median of span durations, which carry whole microseconds.

    Uses the grouped-data median (``statistics.median_grouped``), which
    interpolates inside the middle microsecond: a plain median of spans
    as short as ``scatter`` (about 20 µs) would read the same whole
    microsecond on most runs, and a time that never changes from run to
    run tells a later change nothing.
    """
    return statistics.median_grouped(
        [round(duration * 1e3) for duration in durations_ms]
    ) / 1e3


class Report:
    """Metric values plus the attempt/failure tally of one run."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Figures printed for reading but left out of the result line.
        self.notes: list[str] = []

    def add(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def tally(self, outcomes) -> int:
        """Count one served run's outcomes; returns the native answers."""
        ok = sum(outcome.ok for outcome in outcomes)
        native = sum(outcome.native for outcome in outcomes)
        self.attempted += len(outcomes)
        self.failed += len(outcomes) - ok
        if native != ok:
            self.problems.append(
                f"{ok - native} of {ok} answers left the native backend"
            )
        return native

    def tally_flows(self, flows: int, wrong: int) -> None:
        self.attempted += flows
        self.failed += wrong

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems


def repeated_setup(start, stop, probe):
    """Run ``start`` :data:`SETUP_REPS` times; keep the last handle.

    Every handle but the last is passed to ``stop``. A ``probe`` sample
    precedes each call, and each call's time is rescaled by the samples
    around it. Returns ``(handle, median reference seconds)``.
    """
    measured = []
    handle = None
    for _ in range(SETUP_REPS):
        if handle is not None:
            stop(handle)
        probe.sample()
        cpu = time.process_time()
        started = time.perf_counter()
        handle = start()
        wall = time.perf_counter() - started
        measured.append((wall, time.process_time() - cpu))
    return handle, statistics.median(
        at_reference(wall, cpu, probe.scale(rep, rep + 1))
        for rep, (wall, cpu) in enumerate(measured)
    )


def prepared(seed, kinds, circuits):
    """``(oracle, pool, expected)``, with native kernels built."""
    oracle = Oracle(circuits)
    oracle.build_native()
    pool = request_pool(seed, kinds)
    return oracle, pool, [oracle.expected(payload) for payload in pool]


def rate_note(latencies_ms, per_second: float, unit: str) -> str:
    """Tail percentiles and throughput, as measured, printed for reading.

    They are not bounded metrics: on a shared 2-CPU machine their
    run-to-run spread exceeds the largest bound a metric may have.
    """
    p50, p90, p99 = (percentile(latencies_ms, q) for q in (50, 90, 99))
    return (
        f"as measured: latency_p50_ms {p50:.3f}, latency_p90_ms {p90:.3f}, "
        f"latency_p99_ms {p99:.3f} over {len(latencies_ms)} {unit}; "
        f"{per_second:.3f} {unit}/s"
    )


def speed_note(probe: SpeedProbe) -> str:
    return (
        f"host speed scale {probe.scale():.3f} "
        f"(median of {len(probe.samples)} probe samples)"
    )


def b1_closed(seed: int, seconds: float) -> Report:
    _, pool, expected = prepared(seed, B1_KINDS, (ALARM,))
    handle, setup_s = repeated_setup(
        lambda: start_single(pool), stop_single, SpeedProbe()
    )
    probe = SpeedProbe()
    blocks = []
    try:
        client = handle[1]
        closed_loop(client, pool, expected, WARMUP_S, traced=False)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            probe.sample()
            blocks.append(closed_loop(
                client, pool, expected, PROBE_EVERY_S, False,
                sum(map(len, blocks)),
            ))
    finally:
        stop_single(handle)
    outcomes = [outcome for block in blocks for outcome in block]
    latencies = [
        at_reference(o.latency_ms, o.cpu_ms, probe.scale(index, index + 1))
        for index, block in enumerate(blocks)
        for o in block
    ]
    report = Report()
    report.tally(outcomes)
    ok = sum(o.ok for o in outcomes)
    report.add("latency_p50_ms", percentile(latencies, 50))
    report.add("ok_share", ok / len(outcomes))
    report.add("setup_s", setup_s)
    measured = [o.latency_ms for o in outcomes]
    report.notes.append(
        rate_note(measured, ok / (sum(measured) / 1e3), "requests")
    )
    report.notes.append(speed_note(probe))
    return report


def design_passes(
    seed, seconds, networks, test_rows, before_network=lambda: None
):
    """Warm-up pass, then passes until ``seconds`` (at least MIN_PASSES).

    ``before_network`` runs before each timed network flow. Returns
    ``([per-pass stage times], flows, wrong)``.
    """
    streams = offline_streams(seed, test_rows)
    _, wrong = run_pass(networks, streams)  # fills the kernel-module cache
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        times, bad = run_pass(networks, streams, before_network)
        passes.append(times)
        wrong += bad
    return passes, len(NETWORKS) * (len(passes) + 1), wrong


def paper_suite_offline(seed: int, seconds: float) -> Report:
    built, setup_s = repeated_setup(
        build_networks, lambda _: None, SpeedProbe()
    )
    probe = SpeedProbe()
    passes, flows, wrong = design_passes(seed, seconds, *built, probe.sample)
    report = Report()
    report.tally_flows(flows, wrong)
    pass_ms = [sum(times.values()) * 1e3 for times in passes]
    # A pass never leaves the CPU, so all of its time scales. Pass i
    # follows the samples taken before each of its networks.
    each = len(NETWORKS)
    report.add("latency_p50_ms", percentile([
        ms * probe.scale(each * index, each * (index + 1))
        for index, ms in enumerate(pass_ms)
    ], 50))
    report.add("ok_share", (flows - wrong) / flows)
    report.add("setup_s", setup_s)
    report.notes.append(
        rate_note(pass_ms, len(pass_ms) / (sum(pass_ms) / 1e3), "passes")
    )
    report.notes.append(speed_note(probe))
    return report


def layer_table(seed: int, seconds: float) -> Report:
    """The traced run: every per-layer metric, on this seed's inputs."""
    report = Report()
    oracle, pool, expected = prepared(seed, FLEET_KINDS, (ALARM, LANDSCAPE))
    b1_pool = request_pool(seed, B1_KINDS)
    b1_expected = [oracle.expected(payload) for payload in b1_pool]

    # b1_closed section: traced and untraced blocks alternate.
    handle = start_single(b1_pool)
    try:
        closed_loop(handle[1], b1_pool, b1_expected, WARMUP_S, False)
        untraced, traced = alternating_closed_loop(
            handle[1], b1_pool, b1_expected, seconds * TRACE_SHARES["b1"]
        )
    finally:
        stop_single(handle)
    native = report.tally(untraced) + report.tally(traced)
    b1_spans = [
        (outcome, span_durations_ms(outcome.response))
        for outcome in traced
        if outcome.ok
    ]

    # fleet_open section: every request traced.
    fleet = start_fleet(pool)
    try:
        warmup = poisson_schedule(seed + 1, FLEET_RATE, WARMUP_S)
        open_loop(fleet.host, fleet.port, pool, expected, warmup, False)
        schedule = poisson_schedule(
            seed, FLEET_RATE, seconds * TRACE_SHARES["fleet"]
        )
        fleet_run = open_loop(
            fleet.host, fleet.port, pool, expected, schedule, True
        )
    finally:
        fleet.stop()
    native += report.tally(fleet_run)
    fleet_ok = [outcome.response for outcome in fleet_run if outcome.ok]
    fleet_spans = [span_durations_ms(response) for response in fleet_ok]
    sizes = [batch_size(response) for response in fleet_ok]

    # paper_suite_offline section.
    passes, flows, wrong = design_passes(
        seed, seconds * TRACE_SHARES["offline"], *build_networks()
    )
    report.tally_flows(flows, wrong)

    add = report.add
    add("serve.transport.gap_ms_p50", percentile(
        [o.latency_ms - spans["shard.replica"] for o, spans in b1_spans], 50
    ))
    add("serve.protocol.parse_us_p50",
        percentile(layers.protocol_parse_us(pool), 50))
    # Untraced requests get their results back without the timing rider.
    untraced_responses = [
        {**response, "result": {
            key: value for key, value in response["result"].items()
            if key != "timing"
        }}
        for response in fleet_ok
    ]
    add("serve.protocol.encode_us_p50",
        percentile(layers.protocol_encode_us(untraced_responses), 50))
    add("serve.sharding.relay_ms_p50", span_p50_ms(
        [s["front.route"] - s["shard.replica"] for s in fleet_spans]
    ))
    waits = [spans["batch.wait"] for _, spans in b1_spans]
    add("serve.batching.wait_ms_p50", span_p50_ms(waits))
    add("serve.batching.wait_ms_p99", percentile(waits, 99))
    add("serve.batching.batch_size_mean", statistics.fmean(sizes))
    add("serve.batching.coalesce_share",
        sum(size > 1 for size in sizes) / len(sizes))
    add("serve.server.execute_ms_p50", span_p50_ms(
        [spans["batch.execute"] for _, spans in b1_spans]
    ))
    add("serve.server.scatter_ms_p50", span_p50_ms(
        [spans["scatter"] for _, spans in b1_spans]
    ))

    alarm = oracle.sessions[ALARM]
    mean_batch = max(1, round(statistics.fmean(sizes)))
    add("engine.encoder.encode_us_b1",
        percentile(layers.encoder_us(alarm, pool, 1), 50))
    add("engine.encoder.encode_us_bN",
        percentile(layers.encoder_us(alarm, pool, mean_batch), 50))
    for call, times in layers.session_us(oracle, pool).items():
        add(f"engine.session.{call}_us", percentile(times, 50))
    add("engine.session.native_share",
        native / (len(untraced) + len(traced) + len(fleet_run)))
    add("engine.native.evaluate_us_b1",
        percentile(layers.native_evaluate_us(alarm, pool), 50))

    for stage in STAGES:
        for network in NETWORKS:
            add(f"{stage}.{network}_ms", statistics.median(
                times[stage, network] * 1e3 for times in passes
            ))

    add("obs.trace_overhead_ms_p50", percentile(
        [o.latency_ms for o in traced], 50
    ) - percentile([o.latency_ms for o in untraced], 50))
    add("bench.generator_late_p99_ms", percentile(
        [o.late_ms for o in fleet_run], 99
    ))
    fleet_latencies = [o.latency_ms for o in fleet_run if o.ok]
    add("fleet.latency_ms_p50", percentile(fleet_latencies, 50))
    add("fleet.latency_ms_p99", percentile(fleet_latencies, 99))
    return report


def pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts, on one CPU.

    An end-to-end workload runs one step at a time, so a second CPU buys
    it nothing but cross-CPU wake-ups, whose cost varies with the host's
    load; and on one CPU the speed probe times the core the work runs on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _tool_output(command) -> str:
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip().splitlines()[0] if done.stdout.strip() else ""


def stamp(args) -> dict:
    """Where and how this result was measured."""
    git_sha = "unknown"
    if (ROOT / ".git").exists():
        git_sha = _tool_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {
        "git_sha": git_sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gcc": _tool_output(["gcc", "--version"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fleet_rate_rps": FLEET_RATE,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no ProbLP sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    sys.path.insert(0, str(ROOT / "src"))
    NATIVE_CACHE.mkdir(parents=True, exist_ok=True)
    os.environ["PROBLP_NATIVE_CACHE"] = str(NATIVE_CACHE)
    os.environ.pop("PROBLP_BACKEND", None)  # measure the default policy

    print("stamp " + json.dumps(stamp(args)), flush=True)
    if args.trace:
        report = layer_table(args.seed, args.seconds)
    else:
        pin_to_one_cpu()
        report = globals()[args.workload](args.seed, args.seconds)
    if set(report.metrics) != set(units):
        raise RuntimeError(
            "measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(report.metrics) ^ set(units))}"
        )
    for name, value in report.metrics.items():
        print(f"{name:<40} {value:>16.6f} {units[name]}")
    print(f"attempted {report.attempted}, failed {report.failed}")
    for note in report.notes:
        print(f"note: {note}")
    for problem in report.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report.metrics.items()
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
