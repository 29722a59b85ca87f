"""The ``problp`` command line.

Subcommands:

* ``analyze`` — run the ProbLP analysis for a circuit (from a benchmark
  network name or a saved ``.acjson`` file) and print the report;
* ``hwgen`` — generate Verilog for the selected (or a forced) format;
* ``hw`` — full hardware-generation report as JSON: format search (or a
  forced format), forward or backward-pass (marginal accelerator)
  datapath, latency/register/energy metrics and a stream-simulated
  bit-exactness verdict; ``--output`` additionally writes the RTL;
* ``eval`` — serve evidence batches from the compiled-tape engine
  (exact float64 and/or a quantized format); ``--theta-file`` adds a
  parameter batch axis, replaying the tape once over a whole
  ``(n_theta, n_params)`` matrix of CPT instantiations;
* ``landscape`` — the raster landscape workload: one θ row per map
  cell, exact and quantized sweeps plus the raster-wide §3 certificate;
* ``marginals`` — all posterior marginals of every instance via the
  backward (derivative) tape sweep, optionally quantized, as JSON lines;
* ``optimize`` — workload-aware §3.3 format search (joint evaluations
  vs posterior marginals) with optional empirical validation, as JSON;
* ``fig5`` — regenerate the Figure-5 bound-validation series;
* ``table2`` — regenerate one Table-2 row for a named benchmark;
* ``networks`` — list the built-in benchmark networks.

Examples::

    problp analyze --network alarm --query marginal --tolerance abs:0.01
    problp analyze --circuit model.acjson --query conditional \\
        --tolerance rel:0.01 --variant paper
    problp hwgen --network sprinkler --query marginal \\
        --tolerance abs:0.01 --output sprinkler.v
    problp hw --network alarm --tolerance abs:0.01 --verify 50
    problp hw --network alarm --workload marginals --verify 20 \\
        --output alarm_marginals.v
    problp eval --network alarm --evidence-file batch.json \\
        --format fixed:1:15
    problp eval --network sprinkler --sample 1000 --format float:8:14
    problp eval --network landscape --theta-file sweep.json \\
        --format fixed:2:14
    problp landscape --height 32 --width 48 --format fixed:2:14
    problp marginals --network alarm --sample 100 --variables HYPOVOLEMIA
    problp marginals --network sprinkler --format fixed:4:20
    problp optimize --network alarm --tolerance abs:0.01 \\
        --workload marginals --validate 100
    problp fig5 --instances 100
    problp table2 --benchmark UIWADS --query marginal --tolerance abs:0.01
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.framework import ProbLP, ProbLPConfig
from .core.queries import ErrorTolerance, QueryType


def _parse_tolerance(text: str) -> ErrorTolerance:
    from .specs import SpecError, parse_tolerance_spec

    try:
        return parse_tolerance_spec(text)
    except SpecError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_query(text: str) -> QueryType:
    try:
        return QueryType(text)
    except ValueError:
        choices = ", ".join(q.value for q in QueryType)
        raise argparse.ArgumentTypeError(
            f"query must be one of: {choices}"
        ) from None


def _load_network(args):
    if getattr(args, "bif", None) is not None:
        from .bn.bif import load_bif

        return load_bif(args.bif)
    if args.network is not None:
        from .bn.networks import get_network

        return get_network(args.network)
    return None


def _load_circuit(args, network=None) -> object:
    if args.circuit is not None:
        from .ac.io import load_circuit

        return load_circuit(args.circuit)
    if network is None:
        network = _load_network(args)
    if network is not None:
        from .compile import compile_mpe, compile_network

        if args.query is QueryType.MPE:
            return compile_mpe(network)
        return compile_network(network)
    raise SystemExit("one of --network, --bif or --circuit is required")


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--network", help="built-in benchmark network name (see 'networks')"
    )
    parser.add_argument(
        "--bif", type=Path, help="path to a Bayesian network in BIF format"
    )
    parser.add_argument(
        "--circuit", type=Path, help="path to a saved .acjson circuit"
    )
    parser.add_argument(
        "--query",
        type=_parse_query,
        default=QueryType.MARGINAL,
        help="marginal | conditional | mpe (default: marginal)",
    )
    parser.add_argument(
        "--tolerance",
        type=_parse_tolerance,
        default=ErrorTolerance.absolute(0.01),
        help="error tolerance, e.g. abs:0.01 or rel:0.01",
    )
    parser.add_argument(
        "--variant",
        choices=("rigorous", "paper"),
        default="rigorous",
        help="bound variant (see repro.core.queries)",
    )
    parser.add_argument(
        "--max-bits",
        type=int,
        default=64,
        help="search cap on fraction/mantissa bits (default 64)",
    )
    parser.add_argument(
        "--rounding",
        choices=("nearest-even", "nearest-up", "truncate"),
        default="nearest-even",
        help="operator rounding mode (default nearest-even)",
    )


def _build_framework(args, network=None) -> ProbLP:
    from .arith.rounding import RoundingMode

    config = ProbLPConfig(
        max_precision_bits=args.max_bits,
        bound_variant=args.variant,
        rounding=RoundingMode(getattr(args, "rounding", "nearest-even")),
    )
    return ProbLP(
        _load_circuit(args, network), args.query, args.tolerance, config
    )


def cmd_compile(args) -> int:
    """Compile a network to an .acjson circuit (and optionally .dot)."""
    from .ac.io import save_circuit
    from .compile import compile_mpe, compile_network

    network = _load_network(args)
    if network is None:
        raise SystemExit("one of --network or --bif is required")
    if args.query is QueryType.MPE:
        compiled = compile_mpe(network)
    else:
        compiled = compile_network(network)
    save_circuit(compiled.circuit, args.output)
    print(f"wrote {args.output}: {compiled.circuit!r}")
    if args.dot:
        from .ac.dot import save_dot

        save_dot(compiled.circuit, args.dot, max_nodes=args.dot_max_nodes)
        print(f"wrote {args.dot}")
    return 0


def cmd_analyze(args) -> int:
    framework = _build_framework(args)
    # Typed errors (InfeasibleFormatError, NonBinaryCircuitError, …)
    # are turned into clean one-line exits by main()'s backstop.
    result = framework.analyze()
    print(result.summary())
    return 0


def cmd_optimize(args) -> int:
    """Workload-aware format search with JSON output (§3.3, Figure 2)."""
    import json

    from .errors import ZeroEvidenceError

    network = _load_network(args)
    framework = _build_framework(args, network)
    validation_batch = None
    if args.validate:
        if network is None:
            raise SystemExit("--validate needs --network or --bif")
        validation_batch = _sample_leaf_evidence(
            network, args.validate, args.seed
        )
    try:
        result = framework.optimize(
            workload=args.workload, validation_batch=validation_batch
        )
    except ZeroEvidenceError as error:
        raise SystemExit(
            f"cannot validate posterior marginals: {error}"
        ) from None
    except ValueError as error:
        # Covers the typed errors (subclasses) plus validation-policy
        # complaints — one clean line either way.
        raise SystemExit(str(error)) from None
    print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    if args.summary:
        print(result.summary(), file=sys.stderr)
    return 0


def cmd_hwgen(args) -> int:
    framework = _build_framework(args)
    result = framework.analyze()
    design = framework.generate_hardware(result=result)
    verilog = design.verilog()
    if args.output:
        Path(args.output).write_text(verilog)
        print(f"wrote {args.output}: {design.describe()}")
    else:
        print(verilog)
    return 0


def _sample_leaf_evidence(network, count: int, seed: int) -> list[dict]:
    """Leaf-evidence instances for verification/validation batches."""
    from .bn.sampling import forward_sample

    leaves = network.leaves()
    return [
        {leaf: sample[leaf] for leaf in leaves}
        for sample in forward_sample(network, count, rng=seed)
    ]


def cmd_hw(args) -> int:
    """Tape-native hardware generation with a JSON design report."""
    import json

    network = _load_network(args)
    framework = _build_framework(args, network)
    try:
        fmt = args.format
        result = None
        if fmt is not None:
            from dataclasses import replace

            from .arith.rounding import RoundingMode

            fmt = replace(fmt, rounding=RoundingMode(args.rounding))
        else:
            result = framework.analyze(args.workload)
            fmt = result.selected_format
        design = framework.generate_hardware(
            fmt=fmt, result=result, workload=args.workload
        )
    except ValueError as error:
        # Covers the typed errors (subclasses) and e.g. "marginals
        # hardware for a max circuit" — one clean line either way.
        raise SystemExit(str(error)) from None

    payload = design.report_dict()
    payload["selected_by_search"] = result is not None
    if result is not None:
        payload["query_bound"] = result.selected.query_bound
        payload["tolerance"] = {
            "kind": result.spec.tolerance.kind.value,
            "value": result.spec.tolerance.value,
        }

    if args.verify:
        from .hw.verify import check_equivalence

        if network is None:
            raise SystemExit("--verify needs --network or --bif")
        batch = _sample_leaf_evidence(network, args.verify, args.seed)
        try:
            report = check_equivalence(design, batch)
        except ArithmeticError as error:
            raise SystemExit(
                f"stream simulation failed in {design.fmt.describe()}: "
                f"{error}"
            ) from None
        payload["verification"] = {
            "vectors": report.num_vectors,
            "mismatches": report.num_mismatches,
            "max_abs_difference": report.max_abs_difference,
            "equivalent": report.equivalent,
        }
    else:
        payload["verification"] = None

    if args.output:
        Path(args.output).write_text(design.verilog())
        payload["verilog"] = str(args.output)
        print(f"wrote {args.output}: {design.describe()}", file=sys.stderr)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_fig5(args) -> int:
    from .ac.transform import binarize
    from .bn.networks import alarm_network
    from .compile import compile_network
    from .core.optimizer import CircuitAnalysis
    from .experiments.validation import (
        alarm_marginal_evidences,
        render_series,
        run_fixed_validation,
        run_float_validation,
    )

    network = alarm_network()
    binary = binarize(compile_network(network).circuit).circuit
    analysis = CircuitAnalysis.of(binary)
    evidences = alarm_marginal_evidences(network, args.instances)
    sweep = tuple(range(8, args.max_sweep_bits + 1, 2))
    print(render_series(run_fixed_validation(binary, evidences, sweep, analysis)))
    print()
    print(render_series(run_float_validation(binary, evidences, sweep, analysis)))
    return 0


def cmd_table2(args) -> int:
    from .experiments.overall import QueryCase, run_alarm_case, run_benchmark_case
    from .experiments.tables import render_table2

    case = QueryCase(args.query, args.tolerance)
    if args.benchmark.lower() == "alarm":
        row = run_alarm_case(case, num_instances=args.instances)
    else:
        from .datasets import har_benchmark, uiwads_benchmark, unimib_benchmark

        makers = {
            "har": har_benchmark,
            "unimib": unimib_benchmark,
            "uiwads": uiwads_benchmark,
        }
        maker = makers.get(args.benchmark.lower())
        if maker is None:
            raise SystemExit(
                f"unknown benchmark {args.benchmark!r}; "
                f"choose from HAR, UNIMIB, UIWADS, Alarm"
            )
        row = run_benchmark_case(maker(), case, test_limit=args.instances)
    print(render_table2([row]))
    return 0


def _parse_format(text: str):
    """``fixed:I:F`` or ``float:E:M`` → a number format."""
    from .specs import SpecError, parse_format_spec

    try:
        return parse_format_spec(text)
    except SpecError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _resolve_eval_setup(args):
    """Shared setup of ``eval``/``marginals``: circuit, batch, format."""
    import json

    from .ac.transform import binarize

    circuit = _load_circuit(args)
    if hasattr(circuit, "circuit"):  # CompiledCircuit and friends
        circuit = circuit.circuit
    if args.format is not None and not circuit.is_binary:
        circuit = binarize(circuit).circuit

    if args.evidence_file is not None:
        batch = json.loads(Path(args.evidence_file).read_text())
        if isinstance(batch, dict):
            batch = [batch]
        if not isinstance(batch, list):
            raise SystemExit(
                "evidence file must hold a JSON object or list of objects"
            )
    elif args.sample:
        network = _load_network(args)
        if network is None:
            raise SystemExit("--sample needs --network or --bif")
        from .bn.sampling import forward_sample

        leaves = network.leaves()
        batch = [
            {leaf: sample[leaf] for leaf in leaves}
            for sample in forward_sample(network, args.sample, rng=args.seed)
        ]
    else:
        batch = [{}]

    fmt = args.format
    if fmt is not None:
        from dataclasses import replace

        from .arith.rounding import RoundingMode

        fmt = replace(fmt, rounding=RoundingMode(args.rounding))
    return circuit, batch, fmt


def _load_theta_file(path: Path):
    """A JSON ``(n_theta, n_params)`` matrix (or ``{"theta": matrix}``)."""
    import json

    import numpy as np

    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data.get("theta")
    try:
        theta = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError):
        raise SystemExit(
            "theta file must hold a JSON matrix of numbers "
            '(a list of equal-length rows, or {"theta": matrix})'
        ) from None
    if theta.ndim != 2 or theta.size == 0:
        raise SystemExit(
            "theta file must hold a non-empty JSON matrix "
            "(one row per parameterization)"
        )
    return theta


def cmd_eval(args) -> int:
    """Serve an evidence batch from a compiled-tape InferenceSession."""
    import time

    from .engine import InferenceSession

    circuit, batch, fmt = _resolve_eval_setup(args)
    theta = (
        _load_theta_file(args.theta_file)
        if args.theta_file is not None
        else None
    )
    try:
        session = InferenceSession(circuit, backend=args.backend)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    start = time.perf_counter()
    try:
        # Strict: a typo'd variable name at the CLI should fail loudly,
        # not silently read as "unobserved".
        exact = session.evaluate_batch(batch, strict=True, theta=theta)
        quantized = (
            session.evaluate_quantized_batch(fmt, batch, theta=theta)
            if fmt is not None
            else None
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    except ArithmeticError as error:
        raise SystemExit(
            f"quantized evaluation failed in {fmt.describe()}: {error}"
        ) from None
    elapsed = time.perf_counter() - start
    for row in range(len(exact)):
        if quantized is None:
            print(f"{exact[row]:.17g}")
        else:
            print(f"{exact[row]:.17g}\t{quantized[row]:.17g}")
    sweep = f" ({theta.shape[0]}-row theta sweep)" if theta is not None else ""
    print(
        f"# {len(exact)} evaluations{sweep} in {elapsed * 1e3:.2f} ms on "
        f"{session.tape.describe()} ({session.backend} backend)",
        file=sys.stderr,
    )
    note = session.fallback_note()
    if note:
        print(f"# fallback: {note}", file=sys.stderr)
    return 0


def cmd_marginals(args) -> int:
    """Serve batched all-marginals from the backward tape sweep."""
    import json
    import time

    from .engine import InferenceSession
    from .errors import ZeroEvidenceError

    circuit, batch, fmt = _resolve_eval_setup(args)
    variables = (
        [v.strip() for v in args.variables.split(",") if v.strip()]
        if args.variables
        else None
    )
    try:
        session = InferenceSession(circuit, backend=args.backend)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if variables is not None:
        known = set(session.marginal_index.variables)
        unknown = [v for v in variables if v not in known]
        if unknown:
            raise SystemExit(
                f"circuit has no indicators for variable(s) {unknown}"
            )
    start = time.perf_counter()
    try:
        exact = session.marginals_batch(batch, strict=True, joint=args.joint)
        quantized = (
            session.quantized_marginals_batch(fmt, batch, joint=args.joint)
            if fmt is not None
            else None
        )
    except ZeroEvidenceError as error:
        raise SystemExit(f"cannot normalize marginals: {error}") from None
    except ValueError as error:
        raise SystemExit(str(error)) from None
    except ArithmeticError as error:
        raise SystemExit(
            f"quantized marginals failed in {fmt.describe()}: {error}"
        ) from None
    elapsed = time.perf_counter() - start
    kind = "joint" if args.joint else "posterior"
    fallback = session.backend_fallback_reason
    for row in range(len(batch)):
        for variable in variables if variables is not None else exact:
            record = {
                "instance": row,
                "variable": variable,
                kind: [float(p) for p in exact[variable][:, row]],
                "backend": session.backend,
            }
            if fallback:
                record["fallback_reason"] = fallback
            if quantized is not None:
                record["quantized"] = [
                    float(p) for p in quantized[variable][:, row]
                ]
            print(json.dumps(record))
    num_queries = len(batch) * (
        len(variables) if variables is not None else len(exact)
    )
    print(
        f"# {num_queries} {kind} distributions ({len(batch)} instances) in "
        f"{elapsed * 1e3:.2f} ms on {session.tape.describe()} "
        f"({session.backend} backend)",
        file=sys.stderr,
    )
    note = session.fallback_note()
    if note:
        print(f"# fallback: {note}", file=sys.stderr)
    return 0


def cmd_landscape(args) -> int:
    """Raster landscape: θ-batched sweeps plus the §3 certificate."""
    from .arith.fixedpoint import FixedPointFormat
    from .experiments.landscape import render_landscape, run_landscape

    fmt = args.format
    if fmt is not None and not isinstance(fmt, FixedPointFormat):
        raise SystemExit(
            "landscape certifies a fixed-point format (fixed:I:F); "
            f"got {fmt.describe()}"
        )
    try:
        result = run_landscape(args.height, args.width, fmt=fmt)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    print(render_landscape(result, raster=not args.no_raster))
    # Non-zero exit when the measured raster error escapes the bound:
    # lets CI smoke-run the workload as an end-to-end certificate check.
    return 0 if result.certified else 1


def cmd_serve(args) -> int:
    """Serve circuits over the async micro-batching protocol."""
    import asyncio
    import os

    from .serve import CircuitRegistry, ProbLPServer, ShardedServer

    if args.backend is not None:
        # Environment, not constructor plumbing: shard workers are
        # separate processes and pick the policy up from PROBLP_BACKEND.
        os.environ["PROBLP_BACKEND"] = args.backend

    explicit = (
        args.network or args.bif or args.network_json or args.circuit
    )
    try:
        if explicit:
            from .bn.networks import available_networks

            registry = CircuitRegistry()
            for name in args.network or ():
                if name not in available_networks():
                    raise SystemExit(
                        f"unknown built-in network {name!r}; available: "
                        f"{', '.join(available_networks())}"
                    )
                registry.add_builtin(name)
            for flag, suffix, paths in (
                ("--bif", ".bif", args.bif or ()),
                ("--network-json", ".json", args.network_json or ()),
                ("--circuit", ".acjson", args.circuit or ()),
            ):
                for path in paths:
                    if path.suffix.lower() != suffix:
                        raise SystemExit(
                            f"{flag} expects a {suffix} file, got {path}"
                        )
                    if not path.is_file():
                        raise SystemExit(f"{flag}: no such file: {path}")
                    registry.add_path(path)
        else:
            registry = CircuitRegistry.default()
    except ValueError as error:
        # e.g. two sources whose stems collide on one circuit name.
        raise SystemExit(str(error)) from None

    # SIGTERM must drain exactly like Ctrl-C: the shard workers are
    # daemon processes, reaped only by a clean parent exit — a default
    # SIGTERM death would orphan them still serving their ports.
    import signal

    def _term(_signum, _frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _term)

    window = args.batch_window_ms / 1000.0
    metrics_interval = args.metrics_interval or None
    if args.replicas < 1:
        raise SystemExit("problp serve: --replicas must be >= 1")
    if args.replicas > 1 and args.shards < 1:
        raise SystemExit(
            "problp serve: --replicas needs the multi-process front "
            "(--shards >= 1)"
        )
    if not 0.0 <= args.trace_sample_rate <= 1.0:
        raise SystemExit(
            "problp serve: --trace-sample-rate must be in [0, 1]"
        )
    slow_ms = args.slow_ms if args.slow_ms and args.slow_ms > 0 else None

    def _start_obs(render_metrics, render_health):
        """The sidecar ``GET /metrics`` + ``GET /healthz`` HTTP thread."""
        if args.obs_port is None:
            return None
        from .obs import ObsHttpServer

        obs = ObsHttpServer(
            render_metrics,
            render_health=render_health,
            host=args.host,
            port=args.obs_port,
        )
        try:
            obs.start()
        except OSError as error:
            raise SystemExit(
                f"problp serve: --obs-port {args.obs_port}: {error}"
            ) from None
        print(
            f"problp serve: observability on "
            f"http://{args.host}:{obs.port}/metrics",
            file=sys.stderr,
        )
        return obs

    if args.shards > 0:
        sharded = ShardedServer(
            registry,
            shards=args.shards,
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            batch_window=window,
            max_batch=args.max_batch,
            metrics_interval=metrics_interval,
            max_inflight=args.max_inflight,
            max_inflight_per_connection=args.max_inflight_per_conn,
            trace_sample_rate=args.trace_sample_rate,
            slow_ms=slow_ms,
        )
        try:
            sharded.start()
        except (OSError, RuntimeError) as error:
            # The front runs on a loop thread, so a bind failure arrives
            # wrapped — report the root cause in one clean line.
            raise SystemExit(
                f"problp serve: {error.__cause__ or error}"
            ) from None

        def _scrape_merged() -> str:
            # Replica metrics live in worker processes; the front's
            # ``metrics`` op fans out and merges, so the HTTP thread
            # just dials the front like any other client.
            from .obs import render_prometheus
            from .serve import ServeClient

            with ServeClient(
                sharded.host, sharded.port, timeout=10.0
            ) as client:
                merged = client.metrics()
            return render_prometheus(merged["families"])

        def _sharded_health() -> dict:
            workers = sum(len(group) for group in sharded.shard_addresses)
            return {
                "ok": workers > 0,
                "shards": len(sharded.shard_addresses),
                "workers": workers,
            }

        obs = _start_obs(_scrape_merged, _sharded_health)
        workers = sum(len(group) for group in sharded.shard_addresses)
        print(
            f"problp serve: {len(registry)} circuit(s) on "
            f"{sharded.host}:{sharded.port} across "
            f"{len(sharded.shard_addresses)} shard(s) x "
            f"{sharded.replicas} replica(s) = {workers} worker(s) "
            f"(batch window {args.batch_window_ms:g} ms) — Ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            import threading

            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            print("problp serve: draining...", file=sys.stderr)
            if obs is not None:
                obs.stop()
            sharded.stop()
        return 0

    async def run() -> None:
        from .obs import get_registry

        server = ProbLPServer(
            registry,
            args.host,
            args.port,
            batch_window=window,
            max_batch=args.max_batch,
            metrics_interval=metrics_interval,
            max_inflight=args.max_inflight,
            max_inflight_per_connection=args.max_inflight_per_conn,
            trace_sample_rate=args.trace_sample_rate,
            slow_ms=slow_ms,
        )
        await server.start()
        obs = _start_obs(
            get_registry().render,
            lambda: {"ok": True, "circuits": len(registry)},
        )
        print(
            f"problp serve: {len(registry)} circuit(s) on "
            f"{server.host}:{server.port} "
            f"(batch window {args.batch_window_ms:g} ms) — Ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            await server.serve_until_shutdown()
        finally:
            if obs is not None:
                obs.stop()
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("problp serve: stopped", file=sys.stderr)
    except OSError as error:
        # e.g. the port is already in use — one clean line, like every
        # other CLI failure path.
        raise SystemExit(f"problp serve: {error}") from None
    return 0


def cmd_networks(_args) -> int:
    from .bn.networks import available_networks, get_network

    for name in available_networks():
        print(f"{name:12} {get_network(name)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="problp",
        description=(
            "ProbLP: low-precision analysis and hardware generation for "
            "probabilistic inference on arithmetic circuits (DAC 2019 "
            "reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser(
        "analyze", help="bound search + representation selection"
    )
    _add_model_arguments(analyze)
    analyze.set_defaults(handler=cmd_analyze)

    hwgen = subparsers.add_parser("hwgen", help="emit Verilog RTL")
    _add_model_arguments(hwgen)
    hwgen.add_argument("--output", type=Path, help="output .v file")
    hwgen.set_defaults(handler=cmd_hwgen)

    hw = subparsers.add_parser(
        "hw",
        help="hardware generation report (forward or marginal datapath, "
        "stream-verified) as JSON",
    )
    _add_model_arguments(hw)
    hw.add_argument(
        "--workload",
        choices=("joint", "marginals"),
        default="joint",
        help="datapath direction: joint evaluations (default) or the "
        "backward-pass marginal accelerator",
    )
    hw.add_argument(
        "--format",
        type=_parse_format,
        help="skip the search and force a format, e.g. fixed:1:15",
    )
    hw.add_argument(
        "--verify",
        type=int,
        default=0,
        metavar="N",
        help="stream-simulate N sampled leaf-evidence vectors and check "
        "bit-exactness against the engine (needs --network or --bif)",
    )
    hw.add_argument("--seed", type=int, default=1000)
    hw.add_argument("--output", type=Path, help="also write the .v file")
    hw.set_defaults(handler=cmd_hw)

    optimize = subparsers.add_parser(
        "optimize",
        help="workload-aware format search (joint vs marginals) as JSON",
    )
    _add_model_arguments(optimize)
    optimize.add_argument(
        "--workload",
        choices=("joint", "marginals"),
        default="joint",
        help="what the format must bound: joint evaluations (default) or "
        "posterior marginals served by the backward sweep",
    )
    optimize.add_argument(
        "--validate",
        type=int,
        default=0,
        metavar="N",
        help="also measure the selected format on N sampled leaf-evidence "
        "instances (needs --network or --bif)",
    )
    optimize.add_argument("--seed", type=int, default=1000)
    optimize.add_argument(
        "--summary",
        action="store_true",
        help="additionally print the human-readable report to stderr",
    )
    optimize.set_defaults(handler=cmd_optimize)

    compile_cmd = subparsers.add_parser(
        "compile", help="compile a BN to an .acjson circuit"
    )
    compile_cmd.add_argument("--network")
    compile_cmd.add_argument("--bif", type=Path)
    compile_cmd.add_argument(
        "--query", type=_parse_query, default=QueryType.MARGINAL
    )
    compile_cmd.add_argument("--output", type=Path, required=True)
    compile_cmd.add_argument("--dot", type=Path, help="also write Graphviz")
    compile_cmd.add_argument("--dot-max-nodes", type=int, default=500)
    compile_cmd.set_defaults(handler=cmd_compile)

    def _add_evidence_arguments(parser: argparse.ArgumentParser) -> None:
        _add_model_arguments(parser)
        parser.add_argument(
            "--evidence-file",
            type=Path,
            help="JSON file: one evidence object or a list of them",
        )
        parser.add_argument(
            "--sample",
            type=int,
            default=0,
            help="sample N leaf-evidence instances from the network instead",
        )
        parser.add_argument("--seed", type=int, default=1000)
        parser.add_argument(
            "--format",
            type=_parse_format,
            help="also evaluate quantized, e.g. fixed:1:15 or float:8:14",
        )
        parser.add_argument(
            "--backend",
            choices=("auto", "native", "numpy"),
            help="execution backend: compiled C kernels (native), the "
            "numpy executors, or auto-select (default; also settable "
            "via PROBLP_BACKEND)",
        )

    eval_cmd = subparsers.add_parser(
        "eval", help="evaluate evidence batches on the compiled tape"
    )
    _add_evidence_arguments(eval_cmd)
    eval_cmd.add_argument(
        "--theta-file",
        type=Path,
        help="JSON (n_theta, n_params) matrix of CPT instantiations: "
        "replay the tape once over the whole parameter sweep (rows zip "
        "against the evidence batch; either side may have one row)",
    )
    eval_cmd.set_defaults(handler=cmd_eval)

    marginals_cmd = subparsers.add_parser(
        "marginals",
        help="all posterior marginals per instance via the backward tape "
        "sweep (one upward + one downward pass)",
    )
    _add_evidence_arguments(marginals_cmd)
    marginals_cmd.add_argument(
        "--variables",
        help="comma-separated variables to report (default: all)",
    )
    marginals_cmd.add_argument(
        "--joint",
        action="store_true",
        help="print unnormalized joints Pr(x, e \\ X) instead of posteriors",
    )
    marginals_cmd.set_defaults(handler=cmd_marginals)

    fig5 = subparsers.add_parser(
        "fig5", help="regenerate the Figure-5 bound validation"
    )
    fig5.add_argument("--instances", type=int, default=50)
    fig5.add_argument("--max-sweep-bits", type=int, default=40)
    fig5.set_defaults(handler=cmd_fig5)

    table2 = subparsers.add_parser(
        "table2", help="regenerate one Table-2 row"
    )
    table2.add_argument(
        "--benchmark", required=True, help="HAR | UNIMIB | UIWADS | Alarm"
    )
    table2.add_argument(
        "--query", type=_parse_query, default=QueryType.MARGINAL
    )
    table2.add_argument(
        "--tolerance", type=_parse_tolerance, default=ErrorTolerance.absolute(0.01)
    )
    table2.add_argument("--instances", type=int, default=40)
    table2.set_defaults(handler=cmd_table2)

    landscape_cmd = subparsers.add_parser(
        "landscape",
        help="raster landscape workload: one theta row per map cell, "
        "exact + quantized sweeps and a raster-wide section-3 "
        "certificate",
    )
    landscape_cmd.add_argument(
        "--height", type=int, default=24, help="raster rows (default 24)"
    )
    landscape_cmd.add_argument(
        "--width", type=int, default=24, help="raster columns (default 24)"
    )
    landscape_cmd.add_argument(
        "--format",
        type=_parse_format,
        help="fixed-point format under certificate (default fixed:2:14)",
    )
    landscape_cmd.add_argument(
        "--no-raster",
        action="store_true",
        help="omit the ASCII heat map, print only the certificate summary",
    )
    landscape_cmd.set_defaults(handler=cmd_landscape)

    serve = subparsers.add_parser(
        "serve",
        help="serve circuits over the async micro-batching JSON protocol "
        "(optionally sharded across worker processes)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=7501,
        help="TCP port (0 picks an ephemeral port; default 7501)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition circuits across N worker processes behind a "
        "routing front (0 = single-process, default)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="run R identical workers per shard; the front load-balances "
        "per request across replicas and fails over when one dies "
        "(needs --shards >= 1; default 1)",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="log a per-circuit qps/latency/batching line every N "
        "seconds (0 disables, default)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4096,
        help="shed requests with the 'overloaded' error once this many "
        "are in flight server-wide (0 = unlimited, default 4096)",
    )
    serve.add_argument(
        "--max-inflight-per-conn",
        type=int,
        default=1024,
        help="per-connection in-flight admission limit "
        "(0 = unlimited, default 1024)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="upper bound on micro-batching wait: requests against the "
        "same (circuit, format, workload) that arrive while a batch of "
        "theirs runs coalesce into one vectorized tape replay, run when "
        "that batch finishes or after this long, whichever is first; an "
        "idle key never waits (default 2 ms)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="flush a micro-batch early at this many requests",
    )
    serve.add_argument(
        "--obs-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics (Prometheus text, merged across "
        "replicas when sharded) and GET /healthz on this HTTP port "
        "(0 picks an ephemeral port; default: off)",
    )
    serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="attach a span-timing breakdown to this fraction of "
        "responses even when the client did not ask for a trace "
        "(0..1, default 0)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log a slow-query line (with the span breakdown) for any "
        "request slower than this many milliseconds (default: off)",
    )
    serve.add_argument(
        "--backend",
        choices=("auto", "native", "numpy"),
        help="execution backend for every served session (exported as "
        "PROBLP_BACKEND so shard workers inherit it)",
    )
    serve.add_argument(
        "--network",
        action="append",
        help="serve this built-in network (repeatable; default: all)",
    )
    serve.add_argument(
        "--bif",
        action="append",
        type=Path,
        help="serve a Bayesian network from a BIF file (repeatable)",
    )
    serve.add_argument(
        "--network-json",
        action="append",
        type=Path,
        help="serve a Bayesian network saved as JSON by "
        "repro.bn.io.save_network (repeatable)",
    )
    serve.add_argument(
        "--circuit",
        action="append",
        type=Path,
        help="serve a saved .acjson circuit (repeatable)",
    )
    serve.set_defaults(handler=cmd_serve)

    networks = subparsers.add_parser(
        "networks", help="list built-in benchmark networks"
    )
    networks.set_defaults(handler=cmd_networks)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _typed_errors() as error:
        # Backstop: every subcommand turns the library's typed errors
        # (infeasible format, non-binary circuit, zero-probability
        # evidence) into one clean line on stderr and a non-zero exit,
        # traceback-free — whether or not the handler added context.
        raise SystemExit(str(error)) from None


def _typed_errors() -> tuple[type[BaseException], ...]:
    from .errors import (
        InfeasibleFormatError,
        NonBinaryCircuitError,
        ZeroEvidenceError,
    )

    return (InfeasibleFormatError, NonBinaryCircuitError, ZeroEvidenceError)


if __name__ == "__main__":
    sys.exit(main())
