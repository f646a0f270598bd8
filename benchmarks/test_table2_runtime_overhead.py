"""Table 2: run-time instrumentation overhead (latency, memory, disk).

Paper setup: an image-classification app (MobileNet v2) over 100 ImageNet
frames on Pixel 4 / Pixel 3, CPU and GPU, with and without ML-EXray default
logging. Findings: logging adds ~1-3ms per frame (small % on CPU, larger %
on the faster GPU path), a few MB of monitor memory, and ~0.4KB of log per
frame.

We regenerate all eight rows. Device inference latency is simulated (the
deterministic cost model); the *instrumentation overhead* is the real
measured cost of our monitor on this machine, reported per frame.
"""

import numpy as np

from benchmarks.conftest import run_experiment, save_result
from repro import MLEXray, EdgeApp, save_log
from repro.perfmodel import PIXEL3_CPU, PIXEL3_GPU, PIXEL4_CPU, PIXEL4_GPU
from repro.util.sizes import array_nbytes
from repro.util.tabulate import format_table
from repro.zoo import get_model
from repro.zoo.registry import image_dataset

NUM_FRAMES = 100

DEVICES = {
    "Pixel 4": (PIXEL4_CPU, PIXEL4_GPU),
    "Pixel 3": (PIXEL3_CPU, PIXEL3_GPU),
}


def run_app(graph, device, instrumented, frames, tmp_dir):
    monitor = MLEXray("edge", per_layer=False)
    # Default always-on logging profile: outputs + performance telemetry
    # (per-layer tensors and raw inputs belong to offline validation).
    app = EdgeApp(graph, device=device, monitor=monitor, log_inputs=False)
    app.run(frames)
    lat = np.array([f.latency_ms for f in monitor.frames])
    row = {
        "lat_mean": float(lat.mean()),
        "lat_std": float(lat.std()),
        # Weights plus the interpreter's planned activation arena.
        "memory_mb": app.log().peak_memory_mb(),
    }
    if instrumented:
        # Instrumented latency = device inference + real monitor overhead.
        overhead_per_frame = monitor.monitor_overhead_ms / NUM_FRAMES
        row["lat_mean"] += overhead_per_frame
        row["overhead_ms"] = overhead_per_frame
        row["monitor_mb"] = array_nbytes(
            [f.tensors for f in monitor.frames]) / 2**20
        nbytes = save_log(monitor, tmp_dir)
        row["disk_kb_per_frame"] = nbytes / 1024 / NUM_FRAMES
    return row


def test_table2_runtime_overhead(benchmark, tmp_path):
    frames, _ = image_dataset().sample(NUM_FRAMES, "bench-table2")
    graph = get_model("micro_mobilenet_v2", "mobile")

    def experiment():
        results = {}
        for phone, (cpu, gpu) in DEVICES.items():
            for dev_name, device in (("CPU", cpu), ("GPU", gpu)):
                for instrumented in (False, True):
                    key = (phone, dev_name, instrumented)
                    results[key] = run_app(
                        graph, device, instrumented, frames,
                        tmp_path / f"{phone}_{dev_name}_{instrumented}")
        return results

    results = run_experiment(benchmark, experiment)

    rows = []
    for (phone, dev, instrumented), r in results.items():
        label = f"{phone} ({dev})" + (" +EXray" if instrumented else "")
        mem = r["memory_mb"] + r.get("monitor_mb", 0.0)
        rows.append((
            label,
            f"{r['lat_mean']:.2f}±{r['lat_std']:.2f}",
            f"{mem + 6.0:.2f}",   # + bare-app baseline memory
            f"{r['disk_kb_per_frame']:.2f}" if instrumented else "-",
        ))
    print()
    print(format_table(
        ("configuration", "lat (ms)", "mem (MB)", "disk (KB/frame)"),
        rows, title=f"Table 2: instrumentation overhead "
                    f"({NUM_FRAMES} frames, micro-MobileNet-v2)"))
    save_result("table2", {
        f"{p}|{d}|{'inst' if i else 'plain'}": r
        for (p, d, i), r in results.items()})

    # The overhead bounds (inst - plain < 5 ms, and < 25% of plain on CPU)
    # add the monitor's wall-clock cost, so the CI benchmarks job asserts
    # them on the saved table2.json; tier-1 keeps the deterministic shape.
    for phone in DEVICES:
        # GPU is the faster path, so the same overhead is a larger fraction.
        assert (results[(phone, "GPU", False)]["lat_mean"]
                < results[(phone, "CPU", False)]["lat_mean"])
    # Disk: default logs are well under a few KB per frame.
    assert all(r["disk_kb_per_frame"] < 4.0
               for k, r in results.items() if k[2])
    # Pixel 3 slower than Pixel 4 (same model, same logs).
    assert (results[("Pixel 3", "CPU", False)]["lat_mean"]
            > results[("Pixel 4", "CPU", False)]["lat_mean"])
