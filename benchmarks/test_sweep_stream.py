"""Streamed vs blocking sweep: time-to-first-verdict on the serial executor.

The streaming scheduler's operational win is latency, not throughput: a
blocking sweep answers only after the slowest variant, while the stream
hands the first :class:`VariantResult` to the consumer after one variant.
This benchmark runs the Figure-4(a) lineup both ways on the serial executor
(identical per-variant work, so the comparison isolates scheduling) and
reports wall-clock totals plus the first-result latency.

Two wall-clock properties are gated by the CI benchmarks job on the saved
``sweep_stream.json``:

* **streamed first-result beats the blocking total** — the first result
  lands in under 0.75x the blocking total, so the consumer sees a verdict
  while the rest of the fleet is still running;
* **draining the stream costs about the same as blocking** — under 1.5x
  the blocking total: consuming results one at a time adds no meaningful
  overhead over ``run_sweep``.

The test itself asserts only that the stream yields every variant.
"""

import time

from benchmarks.conftest import run_experiment, save_result
from repro.util.tabulate import format_table
from repro.validate.scheduler import iter_sweep
from repro.validate.sweep import DEFAULT_IMAGE_VARIANTS, run_sweep

MODEL = "micro_mobilenet_v1"
FRAMES = 8
REPEATS = 3


def test_sweep_stream_latency(benchmark):
    # Warm the zoo weight cache and playback data outside the timers.
    run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=FRAMES, executor="serial")

    def experiment():
        best_block = best_stream = best_first = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            report = run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=FRAMES,
                               executor="serial")
            best_block = min(best_block, time.perf_counter() - t0)

            t0 = time.perf_counter()
            first = None
            count = 0
            for _ in iter_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=FRAMES,
                                executor="serial"):
                count += 1
                if first is None:
                    first = time.perf_counter() - t0
            best_stream = min(best_stream, time.perf_counter() - t0)
            best_first = min(best_first, first)
        return {
            "blocking_s": best_block,
            "streamed_s": best_stream,
            "first_result_s": best_first,
            "variants": len(report.results),
            "streamed_variants": count,
        }

    results = run_experiment(benchmark, experiment)
    print()
    print(format_table(
        ("path", "seconds"),
        [("blocking total", f"{results['blocking_s']:.3f}"),
         ("streamed total", f"{results['streamed_s']:.3f}"),
         ("streamed first result", f"{results['first_result_s']:.3f}")],
        title=f"serial sweep wall-clock ({MODEL}, "
              f"{results['variants']} variants x best-of-{REPEATS})"))
    save_result("sweep_stream", results)

    # Timing bounds live in the CI benchmarks job; draining the stream
    # must still deliver one result per variant.
    assert results["streamed_variants"] == results["variants"]
