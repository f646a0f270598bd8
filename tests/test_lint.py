"""Static-analysis tests: the rule registry, the driver, and the wiring.

Coverage contract: every registered rule id has a corrupt-graph fixture
that makes it (and only deliberately it) fire, every zoo model lints clean
at error severity, diagnostics round-trip through their wire format, the
convert passes enforce their post-conditions on every run, and
the sweep pre-flight turns statically-doomed variants into skipped
results with diagnostics attached.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    Diagnostic,
    LINT_SCHEMA_VERSION,
    LintReport,
    RULES,
    lint_graph,
    make_diagnostic,
    preflight_lineup,
    rule_catalog,
    severity_rank,
    verify_pass,
)
from repro.analysis.arena import pack_arena
from repro.graph.spec import TensorSpec
from repro.quantize.params import QuantParams
from repro.runtime.plan import ExecutionPlan
from repro.runtime.resolver import OpResolver
from repro.util.errors import GraphError, ValidationError
from repro.validate.variants import SweepVariant
from repro.zoo import get_model, list_models

from arena_faults import corrupt_layout_for_test
from test_zoo import UNQUANTIZABLE


# --------------------------------------------------------------------------
# Corrupt-graph factory: one deliberately-broken graph per rule id.
# Each breaker takes (mobile graph, quantized graph) copies it may mutate
# freely and returns (graph, lint_graph kwargs) such that exactly the rule
# under test has something to say.
# --------------------------------------------------------------------------

def _quant_spec(graph):
    return next(s for s in graph.tensors.values() if s.quant is not None)


def _break_g001(mobile, quantized):
    mobile.nodes[-1].inputs = ["ghost"]
    return mobile, {"categories": ("graph",)}


def _break_g002(mobile, quantized):
    # Move the head node to the front: it now consumes a tensor produced
    # only later, so the node list is no topological order.
    mobile.nodes.insert(0, mobile.nodes.pop())
    return mobile, {"categories": ("graph",)}


def _break_g003(mobile, quantized):
    stem = mobile.nodes[0]
    dead = copy.copy(stem)
    dead.name = "dead"
    dead.outputs = ["dead_out"]
    spec = mobile.tensors[stem.outputs[0]]
    mobile.tensors["dead_out"] = TensorSpec("dead_out", spec.shape, spec.dtype)
    mobile.nodes.append(dead)
    return mobile, {"categories": ("graph",)}


def _break_g004(mobile, quantized):
    out = mobile.nodes[0].outputs[0]
    old = mobile.tensors[out]
    mobile.tensors[out] = TensorSpec(out, (None, 1, 1, 999), old.dtype)
    return mobile, {"categories": ("graph",)}


def _break_g005(mobile, quantized):
    mobile.nodes[1].name = mobile.nodes[0].name
    return mobile, {"categories": ("graph",)}


def _break_q001(mobile, quantized):
    # QuantParams rejects bad scales at construction, so corrupt one the
    # way a broken loader or bit flip would: behind the frozen dataclass.
    object.__setattr__(_quant_spec(quantized).quant, "scale",
                       np.array(-1.0))
    return quantized, {"categories": ("quant",)}


def _break_q002(mobile, quantized):
    object.__setattr__(_quant_spec(quantized).quant, "zero_point",
                       np.array(999))
    return quantized, {"categories": ("quant",)}


def _break_q003(mobile, quantized):
    # Fully constructible through the public API: per-channel params whose
    # length disagrees with the weight's channel dimension.
    node = next(n for n in quantized.nodes if "weights" in n.weight_quant)
    node.weight_quant["weights"] = QuantParams(
        np.full(5, 0.1), np.zeros(5, np.int64), "int8", axis=0)
    return quantized, {"categories": ("quant",)}


def _break_q004(mobile, quantized):
    node = next(
        n for n in quantized.nodes
        if n.attrs.get("activation") in ("relu", "relu6")
        and len(n.outputs) == 1
        and quantized.tensors[n.outputs[0]].quant is not None)
    object.__setattr__(quantized.tensors[node.outputs[0]].quant,
                       "zero_point", np.array(127))
    return quantized, {"categories": ("quant",)}


def _break_q005(mobile, quantized):
    # Strip the quantization annotation off a tensor feeding a
    # quantized-domain consumer: the domain boundary loses its bridge.
    node = next(
        n for n in quantized.nodes
        if n.op not in ("quantize", "dequantize")
        and quantized.tensors.get(n.outputs[0]) is not None
        and quantized.tensors[n.outputs[0]].quant is not None)
    t = next(t for t in node.inputs
             if quantized.tensors.get(t) is not None
             and quantized.tensors[t].quant is not None)
    old = quantized.tensors[t]
    quantized.tensors[t] = TensorSpec(t, old.shape, "float32")
    return quantized, {"categories": ("quant",)}


def _break_p001(mobile, quantized):
    resolver = OpResolver()
    resolver._registry.pop(("softmax", False))
    return mobile, {"categories": ("plan",), "resolver": resolver}


def _tamper_frees(graph, how):
    """A plan for ``graph`` whose free schedule is broken ``how``: "leak"
    drops the last free, "early" moves it one node earlier, "output" frees
    a graph output after the last node. Returns (tensor, plan)."""
    plan = ExecutionPlan(graph, OpResolver())
    frees = [list(dead) for dead in plan.frees]
    index = max(i for i, dead in enumerate(frees) if dead)
    if how == "output":
        tensor = graph.outputs[0]
        frees[-1].append(tensor)
    else:
        tensor = frees[index].pop()
        if how == "early":
            frees[index - 1].append(tensor)
    plan.frees = tuple(map(tuple, frees))
    return tensor, plan


def _break_p002(mobile, quantized):
    _, plan = _tamper_frees(mobile, "leak")
    return mobile, {"categories": ("plan",), "resolver": plan.resolver,
                    "plan": plan}


def _break_d001(mobile, quantized):
    # A 200k-deep int8 dense layer provably overflows the int32
    # accumulator: even one row of 128 * 127 products summed 200k times
    # exceeds 2**31.
    node = next(n for n in quantized.nodes if n.op == "dense")
    w = node.weights["weights"]
    node.weights["weights"] = np.full((200_000, w.shape[1]), 127, np.int8)
    return quantized, {"categories": ("dataflow",)}


def _break_d002(mobile, quantized):
    # An absurd output scale makes the requant multiplier so small every
    # reachable accumulator rounds to the same code: guaranteed saturation.
    node = next(n for n in quantized.nodes
                if n.op in ("conv2d", "depthwise_conv2d", "dense"))
    object.__setattr__(quantized.tensors[node.outputs[0]].quant,
                       "scale", np.array(1e9))
    return quantized, {"categories": ("dataflow",)}


def _break_d003(mobile, quantized):
    # Zeroed weights and bias make the stem conv's output provably the
    # constant 0 — the subgraph below it is constant-foldable.
    node = next(n for n in mobile.nodes if n.op == "conv2d")
    node.weights["weights"] = np.zeros_like(node.weights["weights"])
    if "bias" in node.weights:
        node.weights["bias"] = np.zeros_like(node.weights["bias"])
    return mobile, {"categories": ("dataflow",)}


def _break_d004(mobile, quantized):
    # Calibration claims the softmax output lives in [1000, 2000]; the
    # derived reachable range is inside [0, 1] — provably disjoint.
    sm = next(n for n in quantized.nodes if n.op == "softmax")
    quantized.metadata["calibration_ranges"] = {
        sm.outputs[0]: [1000.0, 2000.0]}
    return quantized, {"categories": ("dataflow",)}


def _break_a001(mobile, quantized):
    # A plan carrying a deliberately-corrupted arena layout (two live
    # tensors aliased onto the same bytes) must be rejected by the
    # independent verifier.
    resolver = OpResolver()
    plan = ExecutionPlan(mobile, resolver)
    plan.arena = corrupt_layout_for_test(pack_arena(mobile, plan))
    return mobile, {"categories": ("arena",), "resolver": resolver,
                    "plan": plan}


def _break_s001(mobile, quantized):
    mobile.metadata["pipeline"] = {
        "task": "classification",
        "image_preprocess": {"target_size": [64, 64]},
    }
    return mobile, {"categories": ("pipeline",)}  # input is 8x8, not 64x64


def _break_s002(mobile, quantized):
    return mobile, {"categories": ("pipeline",),
                    "variant": SweepVariant("v", resolver="optimzed")}


def _break_s003(mobile, quantized):
    # Kernel-bug presets only affect quantized kernels; on a float stage
    # the preset is inert and the experiment tests nothing.
    return mobile, {"categories": ("pipeline",),
                    "variant": SweepVariant("v",
                                            kernel_bugs="paper-optimized")}


def _break_s004(mobile, quantized):
    mobile.metadata["pipeline"] = {"task": "classification"}
    return mobile, {"categories": ("pipeline",),
                    "variant": SweepVariant(
                        "v", {"chanel_order": "bgr"})}


BREAKERS = {
    "G001": _break_g001,
    "G002": _break_g002,
    "G003": _break_g003,
    "G004": _break_g004,
    "G005": _break_g005,
    "Q001": _break_q001,
    "Q002": _break_q002,
    "Q003": _break_q003,
    "Q004": _break_q004,
    "Q005": _break_q005,
    "D001": _break_d001,
    "D002": _break_d002,
    "D003": _break_d003,
    "D004": _break_d004,
    "P001": _break_p001,
    "P002": _break_p002,
    "A001": _break_a001,
    "S001": _break_s001,
    "S002": _break_s002,
    "S003": _break_s003,
    "S004": _break_s004,
}


class TestRuleCoverage:
    @pytest.mark.parametrize("rule_id", sorted(BREAKERS))
    def test_each_rule_fires_on_its_broken_graph(
            self, rule_id, small_cnn_mobile, small_cnn_quantized):
        graph, kwargs = BREAKERS[rule_id](small_cnn_mobile,
                                          small_cnn_quantized)
        report = lint_graph(graph, **kwargs)
        fired = {d.rule_id for d in report.diagnostics}
        assert rule_id in fired, report.render()

    @pytest.mark.parametrize("how, verdict", [
        ("leak", "never frees"),
        ("early", "while a consumer still needs it"),
        ("output", "frees graph output"),
    ], ids=["leak", "early", "output"])
    def test_p002_flags_tampered_free_schedule(self, small_cnn_mobile,
                                               how, verdict):
        tensor, plan = _tamper_frees(small_cnn_mobile, how)
        report = lint_graph(small_cnn_mobile, categories=("plan",),
                            plan=plan)
        assert [(d.rule_id, d.tensor) for d in report.diagnostics] == \
            [("P002", tensor)], report.render()
        assert verdict in report.diagnostics[0].message

    def test_s005_fires_when_stage_cannot_build(self):
        # nnlm_lite has an embedding op, which full-integer quantization
        # rejects — its quantized stage cannot be built at all.
        reports = preflight_lineup(
            "nnlm_lite", [SweepVariant("q", stage="quantized")])
        fired = {d.rule_id for d in reports["q"].diagnostics}
        assert "S005" in fired
        assert reports["q"].has_errors

    def test_every_registered_rule_has_a_fixture(self):
        catalog = rule_catalog()
        assert {r.rule_id for r in catalog} == set(BREAKERS) | {"S005"}
        for rule in catalog:
            assert rule.doc  # catalog text for README/--help

    def test_readme_catalog_in_sync_with_registry(self):
        # The README rule-catalog table must list every registered rule id
        # exactly once, and nothing else — new rules ship with their docs.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `([A-Z]\d{3})` \|", readme.read_text(),
                          flags=re.M)
        registered = sorted(r.rule_id for r in rule_catalog())
        assert sorted(rows) == registered, (
            f"README table drifted from the registry: "
            f"table={sorted(rows)} registry={registered}")

    def test_clean_graph_fires_nothing(self, small_cnn_mobile,
                                       small_cnn_quantized):
        for g in (small_cnn_mobile, small_cnn_quantized):
            report = lint_graph(g)
            assert not report.diagnostics, report.render()

    def test_plan_rules_skipped_on_structural_errors(self, small_cnn_mobile):
        # A miswired graph cannot compile a plan; the driver must report
        # the G-rule findings without drowning them in plan noise.
        small_cnn_mobile.nodes[-1].inputs = ["ghost"]
        report = lint_graph(small_cnn_mobile)
        categories = {d.category for d in report.diagnostics}
        assert "graph" in categories and "plan" not in categories


class TestDriver:
    def test_unknown_category_rejected(self, small_cnn_mobile):
        with pytest.raises(ValidationError, match="did you mean 'quant'"):
            lint_graph(small_cnn_mobile, categories=("qant",))

    def test_make_diagnostic_unknown_rule(self):
        with pytest.raises(ValidationError, match="S005"):
            make_diagnostic("S05", "nope")


class TestZooModelsClean:
    @pytest.mark.parametrize("model", list_models())
    def test_mobile_stage_clean_at_error_level(self, model):
        report = lint_graph(get_model(model, stage="mobile"),
                            target=f"{model}:mobile")
        assert report.ok("error"), report.render()

    @pytest.mark.parametrize("model", ["micro_mobilenet_v2", "speech_cnn_a"])
    def test_quantized_stage_clean_at_error_level(self, model):
        report = lint_graph(get_model(model, stage="quantized"),
                            target=f"{model}:quantized")
        assert report.ok("error"), report.render()


class TestWireFormat:
    def test_diagnostic_round_trip(self):
        d = Diagnostic(rule_id="G001", severity="error", category="graph",
                       message="m", graph="g", node="n", tensor="t",
                       evidence={"op": "conv2d"})
        assert Diagnostic.from_doc(d.to_doc()) == d

    def test_diagnostic_omits_unset_anchors(self):
        d = Diagnostic(rule_id="S002", severity="error",
                       category="pipeline", message="m")
        doc = d.to_doc()
        assert "node" not in doc and "evidence" not in doc
        assert Diagnostic.from_doc(doc) == d

    def test_diagnostic_missing_field_named(self):
        with pytest.raises(ValidationError, match="severity"):
            Diagnostic.from_doc({"rule": "G001", "category": "graph",
                                 "message": "m"})

    def test_numpy_evidence_survives_json_dumps(self):
        # Rules naturally attach numpy scalars/arrays as evidence; the
        # Diagnostic constructor canonicalizes them so the *real*
        # json.dumps (no default= hook) serializes the document.
        d = make_diagnostic(
            "G001", "m",
            evidence={"f": np.float32(1.5), "i": np.int64(7),
                      "b": np.bool_(True),
                      "arr": np.arange(3, dtype=np.int32),
                      5: (np.float64(0.25),)})
        text = json.dumps(d.to_doc())
        back = Diagnostic.from_doc(json.loads(text))
        assert back.evidence == {"f": 1.5, "i": 7, "b": True,
                                 "arr": [0, 1, 2], "5": [0.25]}

    def test_report_round_trip(self, small_cnn_mobile):
        small_cnn_mobile.nodes[-1].inputs = ["ghost"]
        report = lint_graph(small_cnn_mobile, backend="optimized")
        doc = report.to_doc()
        assert doc["schema_version"] == LINT_SCHEMA_VERSION
        back = LintReport.from_doc(doc)
        assert back.diagnostics == report.diagnostics
        assert back.target == report.target
        assert back.backend == "optimized"

    def test_report_wrong_schema_version_rejected(self):
        with pytest.raises(ValidationError, match="schema version"):
            LintReport.from_doc({"schema_version": 99, "target": "t",
                                 "diagnostics": []})

    def test_severity_rank_orders_and_rejects(self):
        assert (severity_rank("info") < severity_rank("warning")
                < severity_rank("error"))
        with pytest.raises(ValidationError, match="did you mean"):
            severity_rank("warnign")


class TestConvertVerify:
    def test_passes_verify_clean_conversion(self, small_cnn, calib_batch):
        from repro.convert import convert_to_mobile, quantize_graph
        mobile = convert_to_mobile(small_cnn)
        quantize_graph(mobile, [calib_batch])

    def test_verify_pass_raises_on_broken_graph(self, small_cnn_mobile):
        small_cnn_mobile.nodes[-1].inputs = ["ghost"]
        with pytest.raises(GraphError, match="G001"):
            verify_pass(small_cnn_mobile, "some_pass")

    def test_forbid_escalates_warnings(self, small_cnn_mobile):
        graph, _ = _break_g003(small_cnn_mobile, None)
        verify_pass(graph, "x")  # dead node is only a warning...
        with pytest.raises(GraphError, match="G003"):
            verify_pass(graph, "x", forbid=("G003",))  # ...unless forbidden


class TestSweepPreflight:
    def test_doomed_variant_skipped_with_diagnostics(self):
        from repro.validate.reporting import SweepReport
        from repro.validate.sweep import run_sweep

        report = run_sweep(
            "micro_mobilenet_v1",
            [SweepVariant("clean"),
             SweepVariant("doomed", resolver="optimzed")],
            frames=4, executor="serial")
        doomed = report.result("doomed")
        assert doomed.status == "skipped"
        assert [d.rule_id for d in doomed.diagnostics] == ["S002"]
        assert not report.result("clean").diagnostics

        # The diagnostics survive the sweep wire format; clean variants'
        # documents stay byte-identical to the pre-diagnostics format.
        doc = report.to_doc()
        by_name = {r["variant"]["name"]: r for r in doc["results"]}
        assert "diagnostics" not in by_name["clean"]
        assert by_name["doomed"]["diagnostics"][0]["rule"] == "S002"
        back = SweepReport.from_doc(doc)
        assert back.result("doomed").diagnostics == doomed.diagnostics

    def test_warning_findings_ride_along_on_run_variants(self):
        from repro.validate.sweep import run_sweep

        # An inert kernel-bug preset is only a warning: the variant still
        # runs, with the advisory attached to its completed result.
        report = run_sweep(
            "micro_mobilenet_v1",
            [SweepVariant("inert", kernel_bugs="paper-optimized")],
            frames=4, executor="serial")
        result = report.result("inert")
        assert result.completed
        assert [d.rule_id for d in result.diagnostics] == ["S003"]

    def test_valid_lineup_report_unchanged(self):
        from repro.validate.sweep import run_sweep

        report = run_sweep("micro_mobilenet_v1", [SweepVariant("clean")],
                           frames=4, executor="serial")
        doc = report.to_doc()
        assert all("diagnostics" not in r for r in doc["results"])
        assert "pre-flight" not in report.render()


class TestVacuousKernelBugsMatchesExecution:
    """S003 against concrete execution: on every int8 zoo model the rule
    fires exactly when the preset leaves every layer output unchanged."""

    FRAMES = 8
    CASES = (("optimized", "paper-optimized"),
             ("optimized", "paper-reference"),
             ("reference", "paper-reference"))

    @staticmethod
    def _layers(graph, resolver, x):
        from repro.runtime.interpreter import Interpreter

        interp = Interpreter(graph, resolver)
        seen = []
        interp.add_observer(lambda rec: seen.append(rec.output.tobytes()))
        interp.invoke(x)
        return seen

    @pytest.mark.parametrize("model", sorted(set(list_models())
                                             - UNQUANTIZABLE))
    def test_fires_iff_no_layer_output_moves(self, model):
        from repro.runtime.resolver import make_resolver
        from repro.zoo import eval_data

        graph = get_model(model, stage="quantized")
        x = np.ascontiguousarray(eval_data(model, self.FRAMES)[0])
        for kind, preset in self.CASES:
            clean = self._layers(graph, make_resolver(kind), x)
            moved = self._layers(graph, make_resolver(kind, preset), x) != clean
            variant = SweepVariant("v", stage="quantized", resolver=kind,
                                   kernel_bugs=preset)
            fired = [d.rule_id for d in lint_graph(
                graph, variant=variant, categories=("pipeline",)).diagnostics]
            assert fired == ([] if moved else ["S003"]), (kind, preset)
