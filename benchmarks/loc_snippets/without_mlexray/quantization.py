"""Debugging target: quantization — WITHOUT ML-EXray (Table 1 row 2).

Without per-layer observability the developer must hook every op by hand,
persist each intermediate tensor with its dequantization parameters, write
a parser for the resulting log directory, align two such directories layer
by layer, and implement the error analysis — for both pipelines.
"""

import json
from pathlib import Path

import numpy as np


def instrument(graph, resolver, inputs, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values = {name: np.asarray(inputs[name]) for name in graph.inputs}
    manifest = []
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
        out = executor(node, op_inputs, ctx)
        values[node.output] = out
        spec = graph.spec(node.output)
        record = {
            "position": position,
            "name": node.name,
            "op": node.op,
            "dtype": spec.dtype,
            "file": f"layer_{position:04d}.npy",
        }
        if spec.quant is not None:
            record["scale"] = spec.quant.scale.tolist()
            record["zero_point"] = spec.quant.zero_point.tolist()
        np.save(out_dir / record["file"], out)
        manifest.append(record)
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    return {t: values[t] for t in graph.outputs}


def _load_layer(directory, record):
    raw = np.load(Path(directory) / record["file"])
    if "scale" in record:
        scale = np.asarray(record["scale"], dtype=np.float64)
        zero_point = np.asarray(record["zero_point"], dtype=np.float64)
        if scale.size > 1:
            shape = [1] * raw.ndim
            shape[-1] = -1
            scale = scale.reshape(shape)
            zero_point = zero_point.reshape(shape)
        return (raw.astype(np.float64) - zero_point) * scale
    return raw.astype(np.float64)


def assertion(edge_dir, ref_dir, threshold=0.1, jump_factor=3.0):
    edge_manifest = json.loads((Path(edge_dir) / "manifest.json").read_text())
    ref_manifest = json.loads((Path(ref_dir) / "manifest.json").read_text())
    ref_by_name = {rec["name"]: rec for rec in ref_manifest}
    common = [rec for rec in edge_manifest if rec["name"] in ref_by_name]
    if not common:
        raise AssertionError("no layers in common; wrong model version?")
    series = []
    for rec in common:
        edge = _load_layer(edge_dir, rec)
        ref = _load_layer(ref_dir, ref_by_name[rec["name"]])
        if edge.shape != ref.shape:
            raise AssertionError(f"layer {rec['name']}: shape mismatch")
        err = float(np.sqrt(np.mean((edge - ref) ** 2)))
        span = float(ref.max() - ref.min())
        series.append((rec, err / span if span > 0 else err))
    running = 1e-6
    flagged = []
    for rec, err in series:
        if err > threshold and err > jump_factor * running:
            flagged.append((rec, err))
        running = max(running, err)
    if flagged:
        rec, err = max(flagged, key=lambda item: item[1])
        raise AssertionError(
            f"op {rec['op']} at layer {rec['position']} ({rec['name']}) "
            f"drifts nrMSE={err:.3f}"
        )
