"""Per-frame monitor overhead by sink: streaming vs in-memory (Table-2 style).

The sink redesign's bargain: a ``DirectorySink`` bounds resident memory at
O(1) frames (vs the ``MemorySink``'s O(stream)), paying per frame with one
JSONL append plus one tensor-shard write. This benchmark measures the
always-on profile of Table 2 — default logging, no per-layer tensors, no
raw inputs — end to end per frame for each sink; the CI benchmarks job
gates that streaming to disk keeps a frame within 2x of the in-memory
frame cost. The isolated
monitor-side overhead (``monitor_overhead_ms``, which includes the sink
emit) and the on-disk footprint are reported alongside.

Results land in ``.cache/bench_results/monitor_sinks.json`` (CI gates on
the ratio and uploads the JSON).
"""

import time

from benchmarks.conftest import run_experiment, save_result
from repro import DirectorySink, EdgeApp, MLEXray, MemorySink, RingBufferSink
from repro.perfmodel import PIXEL4_CPU
from repro.util.errors import ValidationError
from repro.util.tabulate import format_table
from repro.zoo import get_model
from repro.zoo.registry import image_dataset

NUM_FRAMES = 120
RING_CAPACITY = 16


def run_with_sink(graph, frames, sink):
    """One instrumented always-on run; returns per-frame costs."""
    monitor = MLEXray("edge", per_layer=False, sink=sink)
    app = EdgeApp(graph, device=PIXEL4_CPU, monitor=monitor, log_inputs=False)
    t0 = time.perf_counter()
    app.run(frames)
    wall_ms = (time.perf_counter() - t0) * 1e3
    monitor.close()
    row = {
        "wall_ms_per_frame": wall_ms / NUM_FRAMES,
        "monitor_overhead_ms_per_frame": monitor.monitor_overhead_ms / NUM_FRAMES,
    }
    try:
        # What the sink actually retained after the whole stream (a sink
        # that keeps nothing refuses the frames view entirely; the strict
        # per-frame O(1) residency is pinned by weakref in test_sinks.py).
        row["resident_frames"] = len(sink.frames)
    except ValidationError:
        row["resident_frames"] = 0
    if isinstance(sink, DirectorySink):
        row["disk_kb_per_frame"] = sink.total_bytes() / 1024 / NUM_FRAMES
    return row


def test_monitor_sink_overhead(benchmark, tmp_path):
    frames, _ = image_dataset().sample(NUM_FRAMES, "bench-monitor-sinks")
    graph = get_model("micro_mobilenet_v2", "mobile")

    def experiment():
        # Warm caches (plan compilation, playback) outside the timed runs.
        warm = EdgeApp(graph, device=PIXEL4_CPU, monitor=MLEXray("warm"),
                       log_inputs=False)
        warm.run(frames[:4])
        return {
            "memory": run_with_sink(graph, frames, MemorySink()),
            "ring": run_with_sink(graph, frames,
                                  RingBufferSink(RING_CAPACITY)),
            "directory": run_with_sink(graph, frames,
                                       DirectorySink(tmp_path / "stream")),
        }

    results = run_experiment(benchmark, experiment)

    rows = []
    for name, r in results.items():
        rows.append((
            name,
            f"{r['wall_ms_per_frame']:.3f}",
            f"{r['monitor_overhead_ms_per_frame']:.4f}",
            str(r["resident_frames"]),
            f"{r['disk_kb_per_frame']:.2f}" if "disk_kb_per_frame" in r else "-",
        ))
    print()
    print(format_table(
        ("sink", "ms/frame", "monitor ms/frame", "resident frames",
         "disk KB/frame"),
        rows,
        title=f"monitor overhead by sink ({NUM_FRAMES} frames, "
              f"micro-MobileNet-v2, default logging)"))

    payload = dict(results)
    payload["streaming_ratio"] = (results["directory"]["wall_ms_per_frame"]
                                  / results["memory"]["wall_ms_per_frame"])
    payload["ring_ratio"] = (results["ring"]["wall_ms_per_frame"]
                             / results["memory"]["wall_ms_per_frame"])
    save_result("monitor_sinks", payload)

    # The always-on bargain (streaming and ring ratios under 2x of
    # buffering in memory) is a wall-clock bound: the CI benchmarks job
    # asserts it on the saved monitor_sinks.json.
    # Bounded memory is actually bounded (and unbounded actually unbounded).
    assert results["memory"]["resident_frames"] == NUM_FRAMES
    assert results["ring"]["resident_frames"] == RING_CAPACITY
    assert results["directory"]["resident_frames"] == 0
    # Default always-on logs remain small on disk (Table 2's ~KB/frame).
    assert results["directory"]["disk_kb_per_frame"] < 8.0
