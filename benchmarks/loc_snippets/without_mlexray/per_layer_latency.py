"""Debugging target: per-layer latency — WITHOUT ML-EXray (Table 1 row 4).

The developer must re-implement per-op timing inside the interpreter loop,
persist and parse the timelines, aggregate by op, and write the straggler
analysis themselves.
"""

import json
import time
from pathlib import Path

import numpy as np


def instrument(graph, resolver, inputs, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values = {name: np.asarray(inputs[name]) for name in graph.inputs}
    timeline = []
    for position, node in enumerate(graph.nodes):
        op_inputs = [values[t] for t in node.inputs]
        quantized = graph.spec(node.output).quant is not None
        executor = resolver.lookup(node.op, quantized)

        class _Ctx:
            pass

        ctx = _Ctx()
        ctx.graph = graph
        ctx.resolver = resolver
        ctx.bugs = resolver.bugs
        start = time.perf_counter()
        values[node.output] = executor(node, op_inputs, ctx)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        timeline.append({
            "position": position,
            "name": node.name,
            "op": node.op,
            "latency_ms": elapsed_ms,
        })
    (out_dir / "timeline.json").write_text(json.dumps(timeline))
    return {t: values[t] for t in graph.outputs}


def assertion(log_dir, share_threshold=0.2, median_factor=10.0):
    timeline = json.loads((Path(log_dir) / "timeline.json").read_text())
    if not timeline:
        raise AssertionError("empty timeline; instrumentation failed")
    latencies = np.array([rec["latency_ms"] for rec in timeline])
    total = latencies.sum()
    if total <= 0:
        raise AssertionError("degenerate timeline")
    median = float(np.median(latencies)) or 1e-9
    stragglers = []
    for rec in timeline:
        share = rec["latency_ms"] / total
        ratio = rec["latency_ms"] / median
        if share >= share_threshold and ratio >= median_factor:
            stragglers.append((rec, share, ratio))
    by_op = {}
    for rec in timeline:
        by_op.setdefault(rec["op"], 0.0)
        by_op[rec["op"]] += rec["latency_ms"]
    if stragglers:
        rec, share, ratio = max(stragglers, key=lambda s: s[1])
        raise AssertionError(
            f"straggler {rec['name']} ({rec['op']}): {share:.0%} of "
            f"inference, {ratio:.0f}x median; per-op totals: {by_op}"
        )
