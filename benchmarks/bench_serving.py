"""Micro-batched serving throughput benchmark (gated ≥ 5×).

Measures the serving layer end to end — sockets, JSON protocol and all —
on the binarized Alarm circuit:

* **sequential per-request dispatch**: one request on the wire at a
  time, each answered before the next is sent. Every query pays its own
  tape replay (a micro-batch of one).
* **micro-batched dispatch**: the same requests pipelined on one
  connection; the server's micro-batching queue coalesces them into
  vectorized tape replays and scatters the answers back.

Both modes run against the same server with the same ``batch_window=0``
configuration. Batching is continuous, so the window only opens when
concurrency exists: a lone sequential request runs on the next loop
tick with no waiting penalty, and the comparison isolates *coalescing*,
not added latency. The speedup is asserted ≥ 5× for
exact float64 evaluation, quantized evaluation and all-marginals
serving; answers are additionally checked bit-identical to direct
:class:`InferenceSession` calls. Results are persisted as a stamped
JSON artifact (``serving_microbatch.json``) that CI uploads.

Run with ``-s`` to see the table::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q -s
"""

from __future__ import annotations

import time

import pytest

from conftest import write_json_result, write_result
from repro.arith import FixedPointFormat
from repro.serve import (
    BackgroundServer,
    CircuitRegistry,
    CircuitSource,
    ClientPool,
    ServeClient,
    ShardedServer,
)

#: Requests per burst: large enough that coalescing dominates socket
#: overhead, small enough to keep the whole bench sub-minute in CI.
EVAL_REQUESTS = 96
MARGINAL_REQUESTS = 48
REPEATS = 3

FIXED = FixedPointFormat(1, 15)


@pytest.fixture(scope="module")
def serving():
    import os

    # Pin the numpy backend: this benchmark isolates *coalescing*
    # (sequential vs micro-batched dispatch of the same executor), and
    # the native backend shrinks the sequential side's per-request cost
    # so much the ratio stops measuring batching. The native-vs-numpy
    # comparison lives in TestServedBackendLatency below.
    previous = os.environ.get("PROBLP_BACKEND")
    os.environ["PROBLP_BACKEND"] = "numpy"
    try:
        registry = CircuitRegistry(
            [
                CircuitSource("alarm", "builtin"),
                CircuitSource("landscape", "builtin"),
            ]
        )
        with BackgroundServer(registry, batch_window=0.0) as server:
            with ServeClient(server.host, server.port, timeout=300) as client:
                # Warm up: compile the tape, executors, backward program.
                client.eval("alarm", {}, fmt=FIXED)
                client.marginals("alarm", {})
                yield registry, client
    finally:
        if previous is None:
            os.environ.pop("PROBLP_BACKEND", None)
        else:
            os.environ["PROBLP_BACKEND"] = previous


def _measure(worker) -> float:
    """Best-of-N wall time of a traffic pattern (seconds)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        worker()
        best = min(best, time.perf_counter() - start)
    return best


def _run_pattern(client, requests):
    """Sequential vs pipelined timings plus the pipelined responses."""
    sequential = _measure(
        lambda: [client.request(request) for request in requests]
    )
    pipelined_responses = []

    def burst():
        pipelined_responses.clear()
        pipelined_responses.extend(client.request_many(requests))
    pipelined = _measure(burst)
    for response in pipelined_responses:
        assert response.ok, response.error_message
    return sequential, pipelined, pipelined_responses


def _row(name, count, sequential, pipelined, largest):
    return {
        "workload": name,
        "requests": count,
        "sequential_s": sequential,
        "microbatched_s": pipelined,
        "speedup": sequential / pipelined,
        "largest_batch": largest,
        "sequential_rps": count / sequential,
        "microbatched_rps": count / pipelined,
    }


def _render(rows) -> str:
    lines = [
        f"{'workload':<22}{'requests':>9}{'sequential':>12}"
        f"{'batched':>10}{'speedup':>9}{'max batch':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<22}{row['requests']:>9}"
            f"{row['sequential_s'] * 1e3:>10.1f}ms"
            f"{row['microbatched_s'] * 1e3:>8.1f}ms"
            f"{row['speedup']:>8.1f}x"
            f"{row['largest_batch']:>10}"
        )
    return "\n".join(lines)


class TestServingThroughput:
    def test_microbatching_speedup(self, serving):
        registry, client = serving
        session = registry.entry("alarm").session
        rows = []

        # -- exact float64 eval ----------------------------------------
        requests = [
            {"op": "eval", "circuit": "alarm", "evidence": {}}
            for _ in range(EVAL_REQUESTS)
        ]
        sequential, pipelined, responses = _run_pattern(client, requests)
        expected = float(session.evaluate_batch([{}], strict=True)[0])
        assert all(
            response.result["value"] == expected for response in responses
        )
        rows.append(
            _row(
                "eval float64",
                EVAL_REQUESTS,
                sequential,
                pipelined,
                max(r.result["batched"] for r in responses),
            )
        )

        # -- quantized eval --------------------------------------------
        requests = [
            {
                "op": "eval",
                "circuit": "alarm",
                "evidence": {},
                "format": "fixed:1:15",
            }
            for _ in range(EVAL_REQUESTS)
        ]
        sequential, pipelined, responses = _run_pattern(client, requests)
        expected = float(
            session.evaluate_quantized_batch(FIXED, [{}], strict=True)[0]
        )
        assert all(
            response.result["quantized"] == expected
            for response in responses
        )
        rows.append(
            _row(
                "eval fixed:1:15",
                EVAL_REQUESTS,
                sequential,
                pipelined,
                max(r.result["batched"] for r in responses),
            )
        )

        # -- all-marginals ---------------------------------------------
        requests = [
            {"op": "marginals", "circuit": "alarm", "evidence": {}}
            for _ in range(MARGINAL_REQUESTS)
        ]
        sequential, pipelined, responses = _run_pattern(client, requests)
        direct = session.marginals_batch([{}], strict=True)
        sample = responses[0].result["posteriors"]
        assert sample["HYPOVOLEMIA"] == [
            float(p) for p in direct["HYPOVOLEMIA"][:, 0]
        ]
        rows.append(
            _row(
                "marginals float64",
                MARGINAL_REQUESTS,
                sequential,
                pipelined,
                max(r.result["batched"] for r in responses),
            )
        )

        # -- θ tile streaming (PR 7) -----------------------------------
        # The raster landscape served one ``theta_batch`` request per
        # map tile: sequential tile dispatch pays one round trip and one
        # (tile-sized) replay each; pipelined tiles coalesce into a few
        # whole-raster sweeps.
        from repro.experiments.landscape import (
            landscape_parameter_map,
            landscape_theta,
            landscape_tiles,
        )

        pmap = landscape_parameter_map()
        theta = landscape_theta(24, 24, pmap)
        tile_requests = [
            {
                "op": "theta_batch",
                "circuit": "landscape",
                "evidence": {"Presence": 1},
                "theta": [list(row) for row in tile],
            }
            for _, tile in landscape_tiles(theta, tile_rows=4)
        ]
        client.request(tile_requests[0])  # warm the landscape entry
        sequential, pipelined, responses = _run_pattern(client, tile_requests)
        stitched = [
            value
            for response in responses
            for value in response.result["values"]
        ]
        want = registry.entry("landscape").session.evaluate_theta_batch(
            theta, {"Presence": 1}
        )
        assert stitched == [float(v) for v in want]  # bit-identical
        theta_row = _row(
            "theta tiles 24x24/4",
            len(tile_requests),
            sequential,
            pipelined,
            max(r.result["batched"] for r in responses),
        )
        rows.append(theta_row)

        report = _render(rows)
        print()
        print(report)
        write_result("serving_microbatch.txt", report + "\n")
        write_json_result("serving_microbatch.json", rows)

        # The acceptance gate: micro-batched serving ≥ 5× sequential
        # per-request dispatch, on every workload.
        for row in rows[:-1]:
            assert row["speedup"] >= 5.0, report
            assert row["largest_batch"] > 1, report
        # Tile streaming's sequential side is already batched (one
        # tile-sized replay per request), so the ratio measures
        # round-trip amortization, not replay coalescing — modest bar.
        assert theta_row["speedup"] >= 2.0, report
        assert theta_row["largest_batch"] > 1, report


class TestServedBackendLatency:
    """Served batch-1 p50: native C kernels vs numpy executors (PR 6).

    Spins one server per backend (``PROBLP_BACKEND`` is read when the
    registry lazily builds its :class:`InferenceSession`, so each server
    gets its own policy) and measures per-request latency medians over
    single sequential requests — the protocol path the native backend
    was built to accelerate. Served answers must be bit-identical across
    backends; the marginals p50 must improve (the per-query sweep
    dominates there; eval f64 is reported but not gated, its sweep is
    small enough that socket+JSON overhead can hide the win).
    """

    REQUESTS = 60

    def _serve_p50(self, backend: str):
        import os
        import statistics

        previous = os.environ.get("PROBLP_BACKEND")
        os.environ["PROBLP_BACKEND"] = backend
        try:
            registry = CircuitRegistry([CircuitSource("alarm", "builtin")])
            with BackgroundServer(registry, batch_window=0.0) as server:
                with ServeClient(
                    server.host, server.port, timeout=300
                ) as client:
                    client.eval("alarm", {}, fmt=FIXED)  # warm everything
                    client.marginals("alarm", {})
                    session = registry.entry("alarm").session
                    assert session.backend == backend, (
                        session.backend_fallback_reason
                    )
                    p50 = {}
                    answers = {}
                    for kind in ("eval", "marginals"):
                        request = {
                            "op": kind,
                            "circuit": "alarm",
                            "evidence": {"HRBP": 1},
                        }
                        times = []
                        for _ in range(self.REQUESTS):
                            start = time.perf_counter()
                            response = client.request(request)
                            times.append(time.perf_counter() - start)
                            assert response.ok, response.error_message
                            assert response.result["backend"] == backend
                        p50[kind] = statistics.median(times)
                        answers[kind] = response.result
                    return p50, answers
        finally:
            if previous is None:
                os.environ.pop("PROBLP_BACKEND", None)
            else:
                os.environ["PROBLP_BACKEND"] = previous

    def test_native_vs_numpy_served_p50(self):
        from repro.engine import native_available

        if not native_available():
            pytest.skip("native toolchain unavailable (cffi or C compiler)")

        native_p50, native_answers = self._serve_p50("native")
        numpy_p50, numpy_answers = self._serve_p50("numpy")

        # Bit-identical served answers, backend fields aside.
        assert (
            native_answers["eval"]["value"] == numpy_answers["eval"]["value"]
        )
        assert (
            native_answers["marginals"]["posteriors"]
            == numpy_answers["marginals"]["posteriors"]
        )

        rows = [
            {
                "workload": f"served p50 {kind}",
                "requests": self.REQUESTS,
                "numpy_p50_ms": numpy_p50[kind] * 1e3,
                "native_p50_ms": native_p50[kind] * 1e3,
                "speedup": numpy_p50[kind] / native_p50[kind],
            }
            for kind in ("eval", "marginals")
        ]
        lines = [
            f"{'workload':<22}{'numpy p50':>12}{'native p50':>12}"
            f"{'speedup':>9}"
        ]
        for row in rows:
            lines.append(
                f"{row['workload']:<22}"
                f"{row['numpy_p50_ms']:>10.2f}ms"
                f"{row['native_p50_ms']:>10.2f}ms"
                f"{row['speedup']:>8.1f}x"
            )
        report = "\n".join(lines)
        print()
        print(report)
        write_result("serving_backend_p50.txt", report + "\n")
        write_json_result("serving_backend_p50.json", rows)

        # Gate: served all-marginals p50 must improve on native — the
        # backward sweep dominates the request there. Modest bar (1.2×):
        # sockets and JSON encoding sit on both sides of the division.
        marginals_speedup = rows[1]["speedup"]
        assert marginals_speedup >= 1.2, report


class TestObsOverhead:
    """PR 10 acceptance gate: telemetry must be invisible at p50.

    The metric hot path is a per-thread ``cell.value += n`` and a span is
    four integer reads of ``monotonic_ns`` — both should vanish inside a
    served request. Measured end to end: served p50 for ``eval`` and
    ``theta_batch`` with the registry enabled vs ``set_enabled(False)``,
    rounds *interleaved* (en, dis, en, dis, …) so drift on a shared CI
    core hits both sides equally. Gate: instrumented p50 within 5% of
    uninstrumented (plus a 50 µs absolute floor — on a single core the
    difference of two ~ms medians jitters by more than 5% of nothing).
    Stamped into ``serving_obs_overhead.json`` for the CI artifact.
    """

    ROUNDS = 6
    REQUESTS_PER_ROUND = 40

    def _served_p50s(self, client, request) -> dict[bool, float]:
        import statistics

        from repro.obs.metrics import set_enabled

        times: dict[bool, list[float]] = {True: [], False: []}
        try:
            for round_index in range(self.ROUNDS):
                enabled = round_index % 2 == 0
                set_enabled(enabled)
                for _ in range(self.REQUESTS_PER_ROUND):
                    start = time.perf_counter()
                    response = client.request(request)
                    times[enabled].append(time.perf_counter() - start)
                    assert response.ok, response.error_message
        finally:
            set_enabled(True)
        return {
            enabled: statistics.median(samples)
            for enabled, samples in times.items()
        }

    def test_telemetry_overhead_within_5_percent(self, serving):
        from repro.experiments.landscape import (
            landscape_parameter_map,
            landscape_theta,
        )

        _registry, client = serving
        theta = landscape_theta(2, 4, landscape_parameter_map())
        workloads = {
            "eval": {"op": "eval", "circuit": "alarm", "evidence": {}},
            "theta_batch": {
                "op": "theta_batch",
                "circuit": "landscape",
                "evidence": {"Presence": 1},
                "theta": [list(row) for row in theta],
            },
        }
        for request in workloads.values():  # warm both circuits
            assert client.request(request).ok

        rows = []
        for name, request in workloads.items():
            p50 = self._served_p50s(client, request)
            rows.append(
                {
                    "workload": f"served p50 {name}",
                    "requests": self.ROUNDS * self.REQUESTS_PER_ROUND // 2,
                    "uninstrumented_p50_ms": p50[False] * 1e3,
                    "instrumented_p50_ms": p50[True] * 1e3,
                    "overhead_pct": (p50[True] / p50[False] - 1.0) * 100.0,
                    "budget": "5% + 50us",
                }
            )

        lines = [
            f"{'workload':<24}{'disabled p50':>14}{'enabled p50':>13}"
            f"{'overhead':>10}"
        ]
        for row in rows:
            lines.append(
                f"{row['workload']:<24}"
                f"{row['uninstrumented_p50_ms']:>12.3f}ms"
                f"{row['instrumented_p50_ms']:>11.3f}ms"
                f"{row['overhead_pct']:>+9.1f}%"
            )
        report = "\n".join(lines)
        print()
        print(report)
        write_result("serving_obs_overhead.txt", report + "\n")
        write_json_result("serving_obs_overhead.json", rows)

        for row in rows:
            un = row["uninstrumented_p50_ms"] / 1e3
            instr = row["instrumented_p50_ms"] / 1e3
            assert instr <= un * 1.05 + 50e-6, report


class TestServingSoak:
    """Replicated-shard soak: R=3 vs a single worker under pooled load.

    The workload is θ-tile streaming on the landscape circuit, chosen
    because its cost scales with total *rows* — micro-batching coalesces
    the protocol overhead but not the replay compute, so this is the
    serving pattern where process replication genuinely multiplies
    throughput (unlike eval/marginals, where one batch-16 replay costs
    about one batch-1 replay and a single worker amortizes perfectly).

    16 threads hammer each fleet through a shared :class:`ClientPool`
    (persistent connections, ``overloaded``-aware retry). Gates:

    * every response bit-identical to a direct
      :meth:`InferenceSession.evaluate_theta_batch` on the same rows;
    * with ≥ 3 CPUs, R=3 throughput ≥ 2× the single worker (the
      replication acceptance bar — skipped, but still *recorded* in the
      artifact, on smaller machines where the fleet shares one core);
    * a replica SIGKILLed mid-soak costs **zero** failed requests.

    Results land in ``serving_soak.json`` for CI to upload.
    """

    CLIENTS = 16
    ITERS_PER_CLIENT = 12
    TILE_ROWS = 48

    @staticmethod
    def _cpus() -> int:
        import os

        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # non-Linux
            return os.cpu_count() or 1

    def _tiles(self):
        from repro.experiments.landscape import (
            landscape_parameter_map,
            landscape_theta,
            landscape_tiles,
        )

        theta = landscape_theta(24, 24, landscape_parameter_map())
        return [
            [list(row) for row in tile]
            for _, tile in landscape_tiles(theta, tile_rows=self.TILE_ROWS)
        ]

    def _soak(self, host, port, tiles, expected, *, kill=None):
        """Hammer one fleet; returns (throughput_rps, failures)."""
        import threading

        failures = []
        done = [0] * self.CLIENTS
        with ClientPool(
            host, port, size=self.CLIENTS, timeout=300, max_retries=64
        ) as pool:
            pool.theta_batch(  # warm every replica's landscape entry
                "landscape", tiles[0], evidence={"Presence": 1}
            )

            def worker(index):
                for iteration in range(self.ITERS_PER_CLIENT):
                    tile = tiles[(index + iteration) % len(tiles)]
                    try:
                        result = pool.theta_batch(
                            "landscape", tile, evidence={"Presence": 1}
                        )
                        if result["values"] != expected[
                            (index + iteration) % len(tiles)
                        ]:
                            failures.append(
                                (index, iteration, "value mismatch")
                            )
                    except Exception as error:  # noqa: BLE001
                        failures.append((index, iteration, repr(error)))
                    done[index] += 1

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(self.CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            if kill is not None:
                # Let the soak ramp, then hard-kill one replica.
                time.sleep(0.05)
                kill()
            for thread in threads:
                thread.join(timeout=600)
            elapsed = time.perf_counter() - start
        total = self.CLIENTS * self.ITERS_PER_CLIENT
        assert sum(done) == total, "soak workers did not finish"
        return total / elapsed, failures

    def test_replicated_soak(self):
        import os

        # One compute backend for fleet and reference alike.
        previous = os.environ.get("PROBLP_BACKEND")
        os.environ["PROBLP_BACKEND"] = "numpy"
        try:
            sources = [CircuitSource("landscape", "builtin")]
            tiles = self._tiles()
            session = CircuitRegistry(sources).entry("landscape").session
            expected = [
                [
                    float(v)
                    for v in session.evaluate_theta_batch(
                        tile, {"Presence": 1}
                    )
                ]
                for tile in tiles
            ]

            with ShardedServer(
                sources, shards=1, replicas=1, batch_window=0.001
            ) as single:
                single_rps, single_failures = self._soak(
                    single.host, single.port, tiles, expected
                )
            assert single_failures == [], single_failures[:5]

            with ShardedServer(
                sources, shards=1, replicas=3, batch_window=0.001
            ) as fleet:
                fleet_rps, fleet_failures = self._soak(
                    fleet.host, fleet.port, tiles, expected
                )
            assert fleet_failures == [], fleet_failures[:5]

            with ShardedServer(
                sources, shards=1, replicas=3, batch_window=0.001
            ) as chaos:
                chaos_rps, chaos_failures = self._soak(
                    chaos.host,
                    chaos.port,
                    tiles,
                    expected,
                    kill=lambda: chaos.kill_replica(0, 1),
                )
            # The headline kill-one-replica gate: graceful degradation
            # means zero failed client requests, not merely "few".
            assert chaos_failures == [], chaos_failures[:5]

            cpus = self._cpus()
            ratio = fleet_rps / single_rps
            rows = [
                {
                    "workload": f"theta soak {self.CLIENTS} clients",
                    "tile_rows": self.TILE_ROWS,
                    "requests": self.CLIENTS * self.ITERS_PER_CLIENT,
                    "single_worker_rps": single_rps,
                    "replicated_rps": fleet_rps,
                    "replicas": 3,
                    "speedup": ratio,
                    "killed_replica_rps": chaos_rps,
                    "killed_replica_failures": len(chaos_failures),
                    "cpus": cpus,
                    "gate_enforced": cpus >= 3,
                }
            ]
            report = (
                f"{'fleet':<18}{'rps':>10}{'speedup':>9}\n"
                f"{'1 worker':<18}{single_rps:>10.1f}{'':>9}\n"
                f"{'3 replicas':<18}{fleet_rps:>10.1f}{ratio:>8.2f}x\n"
                f"{'3 minus 1 killed':<18}{chaos_rps:>10.1f}"
                f"{'0 failed':>9}"
            )
            print()
            print(report)
            write_result("serving_soak.txt", report + "\n")
            write_json_result("serving_soak.json", rows)

            # The replication acceptance gate needs real parallel CPUs;
            # on 1–2 core machines three replicas time-slice one core
            # and the ratio measures the scheduler, not the design.
            if cpus >= 3:
                assert ratio >= 2.0, report
            else:
                pytest.skip(
                    f"replication ratio {ratio:.2f}x recorded but not "
                    f"gated on a {cpus}-CPU machine (needs >= 3)"
                )
        finally:
            if previous is None:
                os.environ.pop("PROBLP_BACKEND", None)
            else:
                os.environ["PROBLP_BACKEND"] = previous
