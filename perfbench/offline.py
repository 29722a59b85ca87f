"""The paper's design flow, timed stage by stage.

One pass runs, for each of the four networks, ``compile_network`` →
``ProbLP`` (binarize + circuit analysis) → ``analyze`` →
``generate_hardware`` → ``emit_verilog`` → ``StreamSimulator.run_stream``
on fresh copies of the networks, so no compiled-tape or analysis memo
carries over from an earlier pass, as in a real design run.

After each network's flow (outside the timed region) the pass checks
that the selected format is the recorded one and that the simulated
hardware's outputs equal ``evaluate_quantized_batch`` bit for bit.
"""

from __future__ import annotations

import copy
import gc
import time

from workloads import ALARM

#: The networks of one pass, in pass order.
NETWORKS = (ALARM, "har", "unimib", "uiwads")

#: The format the flow selects for each network (marginal query,
#: absolute tolerance 0.01). A different selection is a wrong answer.
EXPECTED_FORMATS = {
    ALARM: "fixed(I=1, F=15)",
    "har": "fixed(I=1, F=16)",
    "unimib": "fixed(I=1, F=13)",
    "uiwads": "fixed(I=1, F=12)",
}

#: The three stage groups each network's flow time is split into.
STAGES = ("compile", "core", "hw")


def build_networks() -> tuple[dict, dict]:
    """``(networks, test_rows)`` — the Bayesian networks of one pass.

    The sensor networks are the Naive Bayes classifiers trained on the
    ``repro.datasets`` stand-ins; ``test_rows`` holds their test-set
    evidence, which the stream simulation replays.
    """
    from repro.bn.networks import alarm_network
    from repro.datasets import (
        har_benchmark,
        uiwads_benchmark,
        unimib_benchmark,
    )

    networks = {ALARM: alarm_network()}
    test_rows = {}
    for name, build in (
        ("har", har_benchmark),
        ("unimib", unimib_benchmark),
        ("uiwads", uiwads_benchmark),
    ):
        benchmark = build()
        networks[name] = benchmark.classifier.network
        test_rows[name] = benchmark.test_evidences()
    return networks, test_rows


def run_pass(
    networks: dict, streams: dict, before_network=lambda: None
) -> tuple[dict, int]:
    """One timed pass: ``({(stage, network): seconds}, wrong answers)``.

    ``before_network`` is called, untimed, before each network's flow.
    """
    from repro.compile import compile_network
    from repro.core import ErrorTolerance, ProbLP, QueryType
    from repro.hw import StreamSimulator, emit_verilog

    fresh = copy.deepcopy(networks)
    gc.collect()
    times: dict[tuple[str, str], float] = {}
    wrong = 0
    for name in NETWORKS:
        before_network()
        started = time.perf_counter()
        compiled = compile_network(fresh[name])
        compiled_at = time.perf_counter()
        framework = ProbLP(
            compiled, QueryType.MARGINAL, ErrorTolerance.absolute(0.01)
        )
        result = framework.analyze()
        analyzed_at = time.perf_counter()
        design = framework.generate_hardware(result=result)
        emit_verilog(design)
        outputs = StreamSimulator(design).run_stream(streams[name])
        finished = time.perf_counter()
        times["compile", name] = compiled_at - started
        times["core", name] = analyzed_at - compiled_at
        times["hw", name] = finished - analyzed_at

        fmt = result.selected_format
        expected = framework.evaluate_quantized_batch(fmt, streams[name])
        if fmt.describe() != EXPECTED_FORMATS[name] or [
            value.hex() for value in outputs
        ] != [float(value).hex() for value in expected]:
            wrong += 1
    return times, wrong
