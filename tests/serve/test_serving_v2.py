"""Serving v2 features on the single-process server.

Covers the PR 9 surface end to end where one process is enough:
backpressure (the typed ``overloaded`` shed path), live per-circuit
metrics on ``ping``/``circuits``, hot registry reload, the persistent
reconnecting :class:`ServeClient`, and the :class:`ClientPool`'s
checkout/retry behavior. Replicated-shard behavior lives in
``test_replication.py``.
"""

import threading
import time

import pytest

from repro.obs import set_enabled
from repro.serve import (
    BackgroundServer,
    CircuitRegistry,
    CircuitSource,
    ClientPool,
    ProbLPServer,
    ServeClient,
    ServeError,
)


def fresh_registry(*names):
    return CircuitRegistry(
        [CircuitSource(name, "builtin") for name in names]
    )


@pytest.fixture
def dispatch_gate(monkeypatch):
    """Park every batch of servers built in the test until ``set()``.

    The gate wraps the server's batch executor, so a request held by it
    is admitted and queued but not answered — deterministically, where
    a long batch window only delays an idle key's flush by chance.
    """
    gate = threading.Event()
    execute = ProbLPServer._execute_batch

    def gated(self, key, requests):
        assert gate.wait(timeout=30)
        return execute(self, key, requests)

    monkeypatch.setattr(ProbLPServer, "_execute_batch", gated)
    yield gate
    gate.set()


# ---------------------------------------------------------------------------
# Backpressure / overload shedding
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_per_connection_limit_sheds_with_typed_code(self):
        # A long batch window parks admitted evals in the coalescing
        # queue, so a pipelined burst overlaps in flight deterministically.
        with BackgroundServer(
            fresh_registry("sprinkler"),
            batch_window=0.3,
            max_inflight_per_connection=2,
            max_inflight=0,
        ) as server:
            with ServeClient(server.host, server.port) as client:
                responses = client.request_many(
                    {"op": "eval", "circuit": "sprinkler", "evidence": {}}
                    for _ in range(6)
                )
            shed = [r for r in responses if not r.ok]
            served = [r for r in responses if r.ok]
            assert len(served) == 2
            assert len(shed) == 4
            assert {r.error_code for r in shed} == {"overloaded"}
            # The refusal keeps the request id, so pipelined clients can
            # retry exactly the shed requests.
            assert all(r.id is not None for r in shed)
            assert all(r.result["value"] == 1.0 for r in served)

    def test_global_limit_counts_across_connections(self):
        with BackgroundServer(
            fresh_registry("sprinkler"),
            batch_window=0.3,
            max_inflight_per_connection=0,
            max_inflight=2,
        ) as server:
            with ServeClient(server.host, server.port) as client:
                responses = client.request_many(
                    {"op": "eval", "circuit": "sprinkler", "evidence": {}}
                    for _ in range(5)
                )
            codes = sorted(
                "ok" if r.ok else r.error_code for r in responses
            )
            assert codes == ["ok", "ok", "overloaded", "overloaded",
                             "overloaded"]

    def test_overload_counter_surfaces_in_ping(self):
        with BackgroundServer(
            fresh_registry("sprinkler"),
            batch_window=0.2,
            max_inflight_per_connection=1,
        ) as server:
            with ServeClient(server.host, server.port) as client:
                client.request_many(
                    {"op": "eval", "circuit": "sprinkler", "evidence": {}}
                    for _ in range(4)
                )
            with ServeClient(server.host, server.port) as probe:
                info = probe.ping()
            assert info["metrics"]["overloaded"] == 3

    def test_unlimited_when_disabled(self):
        with BackgroundServer(
            fresh_registry("sprinkler"),
            batch_window=0.05,
            max_inflight_per_connection=0,
            max_inflight=0,
        ) as server:
            with ServeClient(server.host, server.port) as client:
                responses = client.request_many(
                    {"op": "eval", "circuit": "sprinkler", "evidence": {}}
                    for _ in range(64)
                )
            assert all(r.ok for r in responses)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetricsSurface:
    def test_ping_reports_uptime_inflight_and_per_circuit_stats(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.01
        ) as server:
            with ServeClient(server.host, server.port) as client:
                client.request_many(
                    {"op": "eval", "circuit": "sprinkler", "evidence": {}}
                    for _ in range(5)
                )
                info = client.ping()
        assert info["uptime_s"] >= 0.0
        assert isinstance(info["inflight"], int)
        assert info["capabilities"] == {"theta_batch": True,
                                        "reload": True,
                                        "metrics": True,
                                        "trace": True}
        stats = info["metrics"]["circuits"]["sprinkler"]
        assert stats["requests"] == 5
        assert stats["errors"] == 0
        assert stats["p50_ms"] >= 0.0
        assert stats["p99_ms"] >= stats["p50_ms"]
        assert stats["qps"] > 0.0
        # 5 pipelined evals of one key coalesce: fewer batches than
        # requests, so the live coalescing factor exceeds one.
        assert stats["batches"] >= 1
        assert stats["mean_batch"] > 1.0

    def test_errors_are_counted_per_circuit(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.0
        ) as server:
            with ServeClient(server.host, server.port) as client:
                response = client.request(
                    {
                        "op": "marginals",
                        "circuit": "sprinkler",
                        "evidence": {"Sprinkler": 0, "Rain": 0,
                                     "WetGrass": 1},
                    }
                )
                assert response.error_code == "zero_evidence"
                stats = client.ping()["metrics"]["circuits"]["sprinkler"]
        assert stats["errors"] == 1

    def test_circuits_op_carries_metrics_blocks(self):
        with BackgroundServer(
            fresh_registry("sprinkler", "asia"), batch_window=0.0
        ) as server:
            with ServeClient(server.host, server.port) as client:
                client.eval("sprinkler", {})
                described = {c["name"]: c for c in client.circuits()}
        assert described["sprinkler"]["metrics"]["requests"] == 1
        # Untouched circuits have no metrics block yet — absence, not
        # a zeroed placeholder, so dashboards can tell idle from new.
        assert "metrics" not in described["asia"]

    def test_metrics_interval_logs_lines(self):
        lines = []
        with BackgroundServer(
            fresh_registry("sprinkler"),
            batch_window=0.0,
            metrics_interval=0.05,
            metrics_log=lines.append,
        ) as server:
            with ServeClient(server.host, server.port) as client:
                client.eval("sprinkler", {})
                deadline = time.monotonic() + 5
                while not lines and time.monotonic() < deadline:
                    time.sleep(0.01)
        assert lines
        assert "qps=" in lines[0] and "sprinkler" in lines[0]

    def test_server_snapshot_aggregates_circuits(self):
        lines = []
        with BackgroundServer(
            fresh_registry("sprinkler", "asia"),
            batch_window=0.1,
            max_inflight_per_connection=1,
            metrics_interval=0.05,
            metrics_log=lines.append,
        ) as server:
            with ServeClient(server.host, server.port) as client:
                # The second pipelined request is shed: one in flight.
                responses = client.request_many(
                    {"op": "eval", "circuit": name, "evidence": {}}
                    for name in ("sprinkler", "asia")
                )
                assert [r.error_code for r in responses] == [
                    None, "overloaded"
                ]
                client.eval("asia", {})
                snapshot = client.ping()["metrics"]
            deadline = time.monotonic() + 5
            while not any("asia:" in line for line in lines):
                assert time.monotonic() < deadline, lines
                time.sleep(0.01)
        assert snapshot["requests"] == 2
        assert snapshot["overloaded"] == 1
        assert set(snapshot["circuits"]) == {"sprinkler", "asia"}
        line = next(line for line in lines if "asia:" in line)
        assert "requests=2" in line and "overloaded=1" in line
        assert "sprinkler:" in line

    def test_failed_over_batch_counts_once(self):
        # One zero-evidence row fails the coalesced batch, which then
        # re-runs per request; the re-runs are not flushes of their own.
        good = {"op": "marginals", "circuit": "sprinkler",
                "evidence": {"Rain": 1}}
        bad = {**good, "evidence": {"Sprinkler": 0, "Rain": 0,
                                    "WetGrass": 1}}
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.05
        ) as server:
            with ServeClient(server.host, server.port) as client:
                responses = client.request_many([good, good, bad, good])
                info = client.ping()
                families = client.metrics()["families"]
        assert [r.ok for r in responses] == [True, True, False, True]
        assert info["batching"]["requests"] == 4
        assert info["batching"]["batches"] == 1
        assert info["batching"]["mean_batch"] == 4.0
        stats = info["metrics"]["circuits"]["sprinkler"]
        assert stats["batches"] == 1
        assert stats["mean_batch"] == 4.0
        (family,) = [f for f in families if f["name"] == "problp_batch_size"]
        (sample,) = [
            s for s in family["samples"]
            if s["labels"] == {"circuit": "sprinkler", "kind": "marginals"}
        ]
        assert sample["count"] == 1
        assert sample["sum"] == 4

    def test_queue_depth_survives_a_kill_switch_toggle(self, dispatch_gate):
        # The depth gauge rises at admission and falls at the answer;
        # disabling metrics in between must not strand it at one. The
        # gate holds the request between the two.
        with BackgroundServer(fresh_registry("sprinkler")) as server:
            with ServeClient(server.host, server.port) as client, \
                    ServeClient(server.host, server.port) as probe:

                def depth():
                    circuits = probe.ping()["metrics"]["circuits"]
                    return circuits.get("sprinkler", {}).get("queue_depth")

                answers = []
                worker = threading.Thread(
                    target=lambda: answers.append(
                        client.eval("sprinkler", {})
                    )
                )
                worker.start()
                try:
                    deadline = time.monotonic() + 5
                    while depth() != 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.005)
                    set_enabled(False)
                    dispatch_gate.set()
                    worker.join(timeout=30)
                finally:
                    dispatch_gate.set()
                    set_enabled(True)
                assert answers and answers[0]["value"] == 1.0
                assert depth() == 0


# ---------------------------------------------------------------------------
# Hot registry reload
# ---------------------------------------------------------------------------


class TestReload:
    def test_add_then_serve_then_remove(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.0
        ) as server:
            with ServeClient(server.host, server.port) as client:
                assert client.ping()["circuits"] == 1
                result = client.reload(
                    add=[{"name": "asia", "kind": "builtin"}]
                )
                assert result == {"added": ["asia"], "removed": [],
                                  "circuits": 2}
                assert client.eval("asia", {})["value"] == 1.0
                result = client.reload(remove=["asia"])
                assert result["circuits"] == 1
                response = client.request(
                    {"op": "eval", "circuit": "asia", "evidence": {}}
                )
                assert response.error_code == "unknown_circuit"
                # The surviving circuit is untouched.
                assert client.eval("sprinkler", {})["value"] == 1.0

    def test_replace_in_one_step(self):
        with BackgroundServer(
            fresh_registry("sprinkler", "asia"), batch_window=0.0
        ) as server:
            with ServeClient(server.host, server.port) as client:
                client.eval("asia", {})
                result = client.reload(
                    add=[{"name": "asia", "kind": "builtin"}],
                    remove=["asia"],
                )
                assert result["circuits"] == 2
                # The replacement entry recompiles lazily on next hit.
                assert client.eval("asia", {})["value"] == 1.0

    def test_invalid_reloads_mutate_nothing(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.0
        ) as server:
            with ServeClient(server.host, server.port) as client:
                for payload, code in [
                    ({"op": "reload"}, "bad_request"),
                    ({"op": "reload", "remove": ["nope"]},
                     "unknown_circuit"),
                    ({"op": "reload",
                      "add": [{"name": "sprinkler",
                               "kind": "builtin"}]},
                     "bad_request"),
                    ({"op": "reload",
                      "add": [{"name": "x", "kind": "martian"}]},
                     "bad_request"),
                    ({"op": "reload",
                      "add": [{"name": "x", "kind": "bif"}]},
                     "bad_request"),
                    ({"op": "reload",
                      "add": [{"name": "x", "kind": "builtin"},
                              {"name": "x", "kind": "builtin"}]},
                     "bad_request"),
                ]:
                    response = client.request(payload)
                    assert not response.ok, payload
                    assert response.error_code == code, payload
                assert client.ping()["circuits"] == 1

    def test_reload_from_saved_circuit_file(self, tmp_path):
        from repro.ac.io import save_circuit
        from repro.compile import compile_network
        from repro.bn.networks import get_network

        circuit = compile_network(get_network("sprinkler")).circuit
        path = tmp_path / "saved.acjson"
        save_circuit(circuit, path)
        with BackgroundServer(
            fresh_registry("asia"), batch_window=0.0
        ) as server:
            with ServeClient(server.host, server.port) as client:
                client.reload(
                    add=[{"name": "saved", "kind": "acjson",
                          "path": str(path)}]
                )
                assert client.eval("saved", {})["value"] == 1.0


# ---------------------------------------------------------------------------
# Persistent client semantics
# ---------------------------------------------------------------------------


class TestClientLifecycle:
    def test_one_socket_reused_across_requests(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.0
        ) as server:
            with ServeClient(server.host, server.port) as client:
                client.ping()
                sock = client._sock
                client.eval("sprinkler", {})
                client.circuits()
                assert client._sock is sock

    def test_close_is_idempotent_and_reconnect_is_transparent(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.0
        ) as server:
            client = ServeClient(server.host, server.port)
            assert client.connected
            client.close()
            client.close()  # second close is a no-op, not an error
            assert not client.connected
            # The next request dials again on its own.
            assert client.eval("sprinkler", {})["value"] == 1.0
            assert client.connected
            client.close()

    def test_lazy_client_dials_on_first_request(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.0
        ) as server:
            client = ServeClient(server.host, server.port, lazy=True)
            assert not client.connected
            assert client.eval("sprinkler", {})["value"] == 1.0
            client.close()

    def test_client_survives_a_server_side_hangup(self):
        registry = fresh_registry("sprinkler")
        with BackgroundServer(registry, batch_window=0.0) as first:
            client = ServeClient(first.host, first.port)
            assert client.eval("sprinkler", {})["value"] == 1.0
            host, port = first.host, first.port
        # The server is gone; the kept-alive socket is now stale. A new
        # server on the same port must be reachable through the same
        # client object via reconnect-on-send.
        with BackgroundServer(
            CircuitRegistry([CircuitSource("sprinkler", "builtin")]),
            host=host,
            port=port,
            batch_window=0.0,
        ):
            assert client.eval("sprinkler", {})["value"] == 1.0
        client.close()


# ---------------------------------------------------------------------------
# Connection pool
# ---------------------------------------------------------------------------


class TestClientPool:
    def test_pooled_answers_match_single_connection(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.01
        ) as server:
            with ServeClient(server.host, server.port) as single:
                expected = single.eval("sprinkler", {})["value"]
            with ClientPool(server.host, server.port, size=4) as pool:
                values = pool.map(
                    lambda client: client.eval("sprinkler", {})["value"],
                    workers=8,
                )
        assert values == [expected] * 8

    def test_connections_are_reused_not_redialed(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.0
        ) as server:
            with ClientPool(server.host, server.port, size=2) as pool:
                with pool.connection() as first:
                    first.ping()
                with pool.connection() as second:
                    pass
                assert second is first

    def test_overloaded_responses_are_retried_until_served(self):
        # Admission: 1 request in flight server-wide. 6 threads hammer
        # through the pool; every request must eventually succeed, with
        # the pool absorbing the overloaded refusals.
        with BackgroundServer(
            fresh_registry("sprinkler"),
            batch_window=0.02,
            max_inflight_per_connection=0,
            max_inflight=1,
        ) as server:
            with ClientPool(
                server.host,
                server.port,
                size=6,
                max_retries=200,
                backoff=0.005,
                max_backoff=0.02,
            ) as pool:
                values = [None] * 6
                errors = []

                def worker(index):
                    try:
                        values[index] = pool.call(
                            "eval", "sprinkler", {}
                        )["value"]
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)

                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        assert errors == []
        assert values == [1.0] * 6

    def test_non_retryable_errors_surface_immediately(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.0
        ) as server:
            with ClientPool(server.host, server.port, size=2) as pool:
                with pytest.raises(ServeError) as excinfo:
                    pool.call("eval", "missing", {})
                assert excinfo.value.code == "unknown_circuit"
                assert pool.retries == 0

    def test_pool_bounds_concurrent_checkouts(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.0
        ) as server:
            pool = ClientPool(
                server.host, server.port, size=1, checkout_timeout=0.1
            )
            with pool.connection():
                start = time.monotonic()
                with pytest.raises(TimeoutError):
                    with pool.connection():
                        pass
                assert time.monotonic() - start >= 0.1
            pool.close()

    def test_broken_connections_are_not_returned_to_the_pool(self):
        with BackgroundServer(
            fresh_registry("sprinkler"), batch_window=0.0
        ) as server:
            with ClientPool(server.host, server.port, size=1) as pool:
                with pytest.raises(ConnectionError):
                    with pool.connection() as client:
                        client.ping()
                        raise ConnectionError("simulated mid-use death")
                assert pool._idle == []
                # The slot is free again and a fresh dial works.
                assert pool.ping()["server"] == "problp-serve"
