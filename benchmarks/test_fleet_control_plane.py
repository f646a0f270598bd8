"""Fleet control-plane RPC cost: lease/heartbeat/status/report round trips.

The coordinator sits on every fleet worker's critical path: a lease
grant precedes each shard, heartbeats fire several times per TTL window
from every live worker, and CI polls ``/status`` once a second. This
benchmark prices those round trips over real HTTP (loopback, stdlib
``ThreadingHTTPServer``) against a coordinator seeded with a 32-shard
plan — without running any shard, so the numbers are pure control-plane
overhead, not model execution.

Asserted shape: every lease grant is unique and consumed exactly once
(the lease machine under rapid-fire clients). The CI benchmarks job gates
the saved ``fleet_control_plane.json``: the median round trip of each
hot-path RPC (lease, heartbeat, status) stays under 100 ms, far below the
1 s default worker poll cadence — the control plane must never be the
fleet's bottleneck.
"""

import statistics
import threading
import time

from benchmarks.conftest import run_experiment, save_result
from repro.fleet import CoordinatorClient, SweepCoordinator, make_server, \
    server_url
from repro.util.tabulate import format_table
from repro.validate.shard import plan_shards
from repro.validate.variants import SweepVariant

MODEL = "micro_mobilenet_v1"
NUM_SHARDS = 32
HEARTBEATS = 100
STATUS_CALLS = 50
REPORT_CALLS = 5


def timed(fn, repeats) -> list:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def test_control_plane_rpc_latency(benchmark, tmp_path):
    lineup = [SweepVariant(f"probe-{i:02d}") for i in range(NUM_SHARDS)]
    manifests = plan_shards(MODEL, lineup, max_variants_per_shard=1,
                            frames=4)
    coordinator = SweepCoordinator(manifests, tmp_path / "fleet",
                                   ttl_s=3600.0)
    server = make_server(coordinator)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = CoordinatorClient(server_url(server))

    try:
        def experiment():
            grants = []
            lease_ms = timed(
                lambda: grants.append(client.lease("bench-worker")),
                NUM_SHARDS)
            heartbeat_ms = timed(
                lambda: client.heartbeat(grants[0]["lease_id"]), HEARTBEATS)
            status_ms = timed(client.status, STATUS_CALLS)
            report_ms = timed(client.report, REPORT_CALLS)
            return grants, {
                "lease": lease_ms,
                "heartbeat": heartbeat_ms,
                "status": status_ms,
                "report (32 planned shards)": report_ms,
            }

        grants, times = run_experiment(benchmark, experiment)
    finally:
        server.shutdown()
        server.server_close()

    print()
    print(format_table(
        ("rpc", "calls", "median ms", "p max ms"),
        [(name, len(ms), f"{statistics.median(ms):.3f}", f"{max(ms):.3f}")
         for name, ms in times.items()],
        title=f"fleet control-plane round trips "
              f"({NUM_SHARDS}-shard coordinator, loopback HTTP)"))
    save_result("fleet_control_plane", {
        "num_shards": NUM_SHARDS,
        **{name.split(" ")[0]: {"calls": len(ms),
                                "median_ms": statistics.median(ms),
                                "max_ms": max(ms)}
           for name, ms in times.items()},
    })

    # The lease machine under rapid fire: 32 asks, 32 distinct grants,
    # pool exhausted — every shard handed out exactly once.
    lease_ids = [g["lease_id"] for g in grants]
    assert len(set(lease_ids)) == NUM_SHARDS
    assert all("manifest" in g for g in grants)
    assert coordinator.status()["counts"] == {"leased": NUM_SHARDS}
    assert "retry_after_s" in coordinator.lease("one-too-many")
