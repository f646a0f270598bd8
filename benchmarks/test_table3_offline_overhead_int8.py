"""Table 3: offline per-layer validation overhead, quantized int8 models.

Paper columns for five image models (Mobilenet v1/v2, Resnet50 v2,
Inception v3, Densenet 121): layer count, parameter count, per-layer-logging
latency, memory, and log size on disk. Findings: latency grows with model
complexity; per-layer logs are 1-2 orders of magnitude larger than default
logs; comparing logs offline is orders of magnitude faster than collecting
them on-device.

Shape assertions: layer count increases across the lineup (as in the
paper's 92 -> 429 ordering) and disk grows with activation volume. Memory
is the run log's peak (weights plus the interpreter's planned activation
arena). That the offline comparison is far cheaper than simulated
on-device logging is a wall-clock bound, gated in the CI benchmarks job on
the saved ``table3.json``.
"""

import time

from benchmarks.conftest import run_experiment, save_result
from repro import MLEXray, EdgeApp, save_log
from repro.perfmodel import PIXEL4_CPU
from repro.util.tabulate import format_table
from repro.validate import per_layer_diff
from repro.zoo import get_model
from repro.zoo.registry import image_dataset

MODELS = ("micro_mobilenet_v1", "micro_mobilenet_v2", "micro_resnet",
          "micro_inception", "micro_densenet")
NUM_FRAMES = 20
STAGE = "quantized"


def profile_model(name, frames, tmp_dir, stage=STAGE):
    graph = get_model(name, stage)
    monitor = MLEXray("edge", per_layer=True)
    app = EdgeApp(graph, device=PIXEL4_CPU, monitor=monitor)
    app.run(frames)
    simulated_s = sum(f.latency_ms for f in monitor.frames) / 1e3
    # Weights plus the interpreter's planned activation arena.
    mem_mb = app.log().peak_memory_mb()
    disk_mb = save_log(monitor, tmp_dir) / 2**20
    t0 = time.perf_counter()
    per_layer_diff(app.log(), app.log())
    compare_s = time.perf_counter() - t0
    return {
        "layers": graph.num_layers(),
        "params": graph.num_params(),
        "latency_s": simulated_s,
        "memory_mb": mem_mb,
        "disk_mb": disk_mb,
        "compare_s": compare_s,
    }


def run_table(benchmark, stage, title, result_name, tmp_path):
    frames, _ = image_dataset().sample(NUM_FRAMES, "bench-table3")

    def experiment():
        return {name: profile_model(name, frames, tmp_path / name, stage)
                for name in MODELS}

    results = run_experiment(benchmark, experiment)
    rows = [(name, r["layers"], f"{r['params']/1e3:.1f}K",
             f"{r['latency_s']:.2f}", f"{r['memory_mb']:.2f}",
             f"{r['disk_mb']:.2f}", f"{r['compare_s']*1e3:.0f}ms")
            for name, r in results.items()]
    print()
    print(format_table(
        ("model", "layers", "params", "log lat (s)", "mem (MB)",
         "disk (MB)", "offline compare"),
        rows, title=title))
    save_result(result_name, results)
    return results


def test_table3_offline_validation_int8(benchmark, tmp_path):
    results = run_table(
        benchmark, "quantized",
        f"Table 3: per-layer validation overhead, int8 models "
        f"({NUM_FRAMES} frames, simulated Pixel 4)",
        "table3", tmp_path)

    layers = [results[m]["layers"] for m in MODELS]
    # Layer-count ordering mirrors the paper's lineup (92 .. 429).
    assert layers == sorted(layers)
    # Offline comparison is cheap relative to on-device per-layer logging
    # (paper: "two orders of magnitude"): compare_s < latency_s is a
    # wall-clock bound, asserted by the CI benchmarks job on table3.json.
    for name in MODELS:
        assert results[name]["disk_mb"] > 0.05  # vs 0.4KB default logs
    # More layers -> at least as much disk (up to measurement noise).
    assert (results["micro_densenet"]["disk_mb"]
            > results["micro_mobilenet_v1"]["disk_mb"])
