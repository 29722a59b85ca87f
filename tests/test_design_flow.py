"""Fingerprints of the paper's design flow (compile → analyse → RTL).

The flow is deterministic, so its artefacts are pinned: a change that
should leave them alone (a faster builder, a leaner compile) and
silently moves the selected format, the binarized circuit or the
emitted Verilog fails here. ``alarm`` has hard-coded CPTs, so its whole
flow is pinned; the sensor classifiers are trained with numpy, whose
last bits may differ across versions, so only their selected format is.
"""

import hashlib

import pytest

from repro.compile import compile_network
from repro.core import ErrorTolerance, ProbLP, QueryType
from repro.datasets import har_benchmark, uiwads_benchmark, unimib_benchmark
from repro.hw import emit_verilog


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def design_flow(network) -> ProbLP:
    """The flow ``perfbench`` times: marginal query, absolute 0.01."""
    return ProbLP(
        compile_network(network),
        QueryType.MARGINAL,
        ErrorTolerance.absolute(0.01),
    )


class TestAlarmFingerprint:
    @pytest.fixture(scope="class")
    def flow(self, alarm):
        framework = design_flow(alarm)
        return framework, framework.analyze()

    def test_selected_format(self, flow):
        _, result = flow
        assert result.selected_format.describe() == "fixed(I=1, F=15)"

    def test_binarized_node_sequence(self, flow):
        framework, _ = flow
        nodes = framework.binary_circuit.nodes
        assert digest("\n".join(map(repr, nodes))) == "d1afe4049a30a8e7"

    def test_verilog_text(self, flow):
        framework, result = flow
        design = framework.generate_hardware(result=result)
        assert digest(emit_verilog(design)) == "dbe0e07b75f6c6d6"


@pytest.mark.parametrize(
    "build, expected",
    [
        (har_benchmark, "fixed(I=1, F=16)"),
        (unimib_benchmark, "fixed(I=1, F=13)"),
        (uiwads_benchmark, "fixed(I=1, F=12)"),
    ],
    ids=["har", "unimib", "uiwads"],
)
def test_sensor_classifier_selected_format(build, expected):
    framework = design_flow(build().classifier.network)
    assert framework.analyze().selected_format.describe() == expected
