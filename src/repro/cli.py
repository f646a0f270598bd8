"""Command-line interface for the deployment-validation library.

The paper promises "a Python deployment validation library"; this CLI is
its operational surface::

    python -m repro list-models
    python -m repro export micro_mobilenet_v2 --stage quantized -o v2.rpm
    python -m repro lint micro_mobilenet_v2 --stage quantized
    python -m repro lint v2.rpm --backend reference --format json
    python -m repro lint --explain D001
    python -m repro analyze micro_mobilenet_v1 --stage quantized --arena
    python -m repro validate micro_mobilenet_v2 --bug channel_order=bgr
    python -m repro sweep micro_mobilenet_v2 --variant clean \
        --variant bgr:channel_order=bgr --variant q:stage=quantized
    python -m repro sweep micro_mobilenet_v2 --log-dir /tmp/sweep-logs
    python -m repro sweep micro_mobilenet_v2 --shards 3 --out-dir /tmp/fleet
    python -m repro sweep-worker run /tmp/fleet/shard-001/manifest.json \
        --out /tmp/fleet/shard-001
    python -m repro sweep merge /tmp/fleet/shard-000 /tmp/fleet/shard-001
    python -m repro sweep serve micro_mobilenet_v2 --shards 3 --port 8791
    python -m repro sweep-worker run --coordinator http://127.0.0.1:8791
    python -m repro sweep status http://127.0.0.1:8791
    python -m repro log show /tmp/sweep-logs/clean
    python -m repro profile micro_mobilenet_v2 --stage quantized \
        --resolver reference --device pixel4_cpu

``lint`` runs the static analyzer (:mod:`repro.analysis`) over a zoo model
or an exported ``.rpm`` file — graph wiring, quantization parameters,
dataflow proofs, backend/plan bindings, pipeline metadata — and exits 1
when findings at or above ``--fail-on`` severity exist (the CI gate).
``analyze`` runs the dataflow analyses on their own: per-tensor value
ranges from the interval abstract interpreter, per-tensor live ranges, and
peak activation memory under naive allocation vs a packed static arena
(``--arena`` also runs the independent layout verifier, the CI zoo gate).
Both take ``--explain RULE_ID`` to document any registered rule. The same rules pre-vet
every ``sweep`` lineup: statically-doomed variants are reported as
``skipped`` with their diagnostics instead of burning a worker
(``--no-preflight`` restores raise-on-bad-field behaviour).
``validate`` runs the full Figure-2 flowchart: instrumented edge app (with
optional injected bugs) vs the model's reference pipeline over played-back
data, then prints the validation report. ``sweep`` fans many deployment
variants of one model across a worker pool and aggregates their validation
reports; ``--log-dir`` streams every run's EXray log to disk as it
happens (DirectorySink shards). ``--shards N`` partitions the lineup into
portable shard manifests, executes each as an isolated shard artifact,
and merges — with ``--plan-only`` it stops after writing the manifests so
a fleet of ``sweep-worker`` processes (any machine) can execute them, and
``sweep merge <dir>...`` folds the resulting artifacts back into one
fleet report. ``sweep serve`` runs the fleet *control plane*: an HTTP
coordinator that leases those shard manifests to any ``sweep-worker run
--coordinator URL`` process, digest-verifies uploaded artifacts before
accepting them, and serves a live merged report; ``sweep status <url>``
inspects (and with ``--finalize`` drains) a running coordinator.
``log show`` inspects any streamed or saved log directory
without materializing its tensors. ``profile`` prints the per-layer
latency profile and straggler analysis on a simulated device.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.analysis import SEVERITIES, analyze_graph, explain_rule, lint_graph
from repro.fleet import (
    CoordinatorClient,
    SweepCoordinator,
    make_server,
    run_worker,
    server_url,
)
from repro.graph import load_model, save_model
from repro.instrument import DirectorySink, EXrayLog, MLEXray, log_digest
from repro.perfmodel import DEVICES
from repro.pipelines import EdgeApp, build_reference_app, make_preprocess
from repro.runtime.resolver import KERNEL_BUG_PRESETS, RESOLVERS, make_resolver
from repro.util.errors import ReproError, ValidationError
from repro.util.tabulate import format_table
from repro.validate import DebugSession, find_stragglers, layer_latency_profile
from repro.validate.execution import EXECUTORS, build_reference_log
from repro.validate.merge import merge_shards
from repro.validate.shard import MANIFEST_NAME, plan_shards, run_shard, write_shards
from repro.validate.sweep import (
    DEFAULT_IMAGE_VARIANTS,
    coerce_override_value,
    expand_backends,
    parse_variant_spec,
    run_sweep,
)
from repro.validate.triage import triage_sweep
from repro.zoo import (
    eval_data,
    get_entry,
    get_model,
    get_trained,
    list_models,
    playback_data,
)


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--bug expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key] = coerce_override_value(key, value)
    return overrides


def cmd_list_models(args, out) -> int:
    rows = []
    for name in list_models():
        entry = get_entry(name)
        rows.append((name, entry.family, entry.task))
    print(format_table(("model", "paper family", "task"), rows,
                       title="zoo models"), file=out)
    return 0


def cmd_export(args, out) -> int:
    graph = get_model(args.model, stage=args.stage)
    nbytes = save_model(graph, args.output)
    print(f"wrote {args.output} ({nbytes} bytes, {graph.num_layers()} layers, "
          f"{graph.num_params():,} params, stage={args.stage})", file=out)
    return 0


def _load_lint_target(args):
    """Resolve the lint/analyze positional: a zoo model name or a .rpm path."""
    if args.model is None:
        raise ValidationError(
            f"repro {args.command} needs a model (a zoo name or a .rpm "
            "path) unless --explain RULE_ID is given")
    path = Path(args.model)
    if path.suffix == ".rpm" or path.is_file():
        return load_model(path), str(path)
    return get_model(args.model, stage=args.stage), \
        f"{args.model}:{args.stage}"


def cmd_lint(args, out) -> int:
    # `repro lint <model|file.rpm>`: static deployment verification — no
    # data is played back and no kernels run; exit 1 when findings at or
    # above --fail-on severity exist, so CI can gate on it.
    if args.explain:
        print(explain_rule(args.explain), file=out)
        return 0
    graph, target = _load_lint_target(args)
    report = lint_graph(graph, backend=args.backend, target=target)
    if args.format == "json":
        print(json.dumps(report.to_doc(), indent=2), file=out)
    else:
        print(report.render(args.fail_on), file=out)
    return 0 if report.ok(args.fail_on) else 1


def cmd_analyze(args, out) -> int:
    # `repro analyze <model|file.rpm>`: the dataflow analyses — per-tensor
    # value ranges (interval abstract interpretation), live ranges, and
    # peak activation memory naive vs packed arena. Exit 1 when the range
    # analysis found contradictions or (--arena) the layout verifier
    # rejected the packed layout.
    if args.explain:
        print(explain_rule(args.explain), file=out)
        return 0
    graph, target = _load_lint_target(args)
    report = analyze_graph(graph, batch=args.batch, arena=args.arena,
                           target=target)
    if args.format == "json":
        print(json.dumps(report.to_doc(), indent=2), file=out)
    else:
        print(report.render(), file=out)
    return 0 if report.ok else 1


def cmd_train(args, out) -> int:
    _, _, meta = get_trained(args.model, force_retrain=args.force)
    acc = meta.get("val_accuracy")
    summary = f"val_accuracy={acc:.3f}" if acc is not None else "trained"
    print(f"{args.model}: {summary}", file=out)
    return 0


def cmd_validate(args, out) -> int:
    graph = get_model(args.model, stage=args.stage)
    entry = get_entry(args.model)
    frames, labels = playback_data(args.model, args.frames, "cli-validate")

    overrides = _parse_overrides(args.bug or [])
    preprocess = make_preprocess(graph.metadata["pipeline"], overrides) \
        if overrides else None
    device = DEVICES["pixel4_cpu"]  # EdgeApp's default simulated device
    sink = DirectorySink(args.log_dir) if args.log_dir else None
    edge = EdgeApp(graph, preprocess=preprocess, device=device,
                   resolver=make_resolver(args.resolver, args.kernel_bugs),
                   monitor=MLEXray("edge", per_layer=True, sink=sink))
    edge.run(frames, labels, log_raw=entry.task == "classification")
    edge.monitor.close()
    reference = build_reference_app(get_model(args.model, "mobile"))
    reference.run(frames, labels)

    report = DebugSession(edge.log(), reference.log(), task=entry.task).run(
        always_run_assertions=args.always_assert)
    print(report.render(), file=out)
    if args.log_dir:
        print(f"edge log streamed to {args.log_dir}", file=out)
    return 0 if report.healthy else 1


def _write_report_json(report, path, out) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(report.to_doc(), indent=2))
    print(f"sweep report JSON written to {path}", file=out)


def cmd_sweep(args, out) -> int:
    if args.model == "merge":
        return _sweep_merge(args, out)
    if args.model == "serve":
        return _sweep_serve(args, out)
    if args.model == "status":
        return _sweep_status(args, out)
    if args.shard_dirs:
        raise ValidationError(
            "positional shard directories are only valid with "
            "'repro sweep merge <dir>...'")
    variants = _build_lineup(args, args.model)
    if args.shards is not None:
        return _sweep_sharded(args, variants, out)
    if args.plan_only or args.out_dir:
        raise ValidationError(
            "--plan-only/--out-dir need --shards N (they describe the "
            "sharded-sweep layout)")
    if args.strict:
        raise ValidationError(
            "--strict only applies when merging shard artifacts "
            "('repro sweep merge' or --shards)")

    def progress(result, n_done, n_total):
        # Streamed mode: print each variant's verdict the moment it
        # completes (failure-prone variants are dispatched first); the
        # aggregate report follows in lineup order.
        print(f"[{n_done}/{n_total}] {result.variant.name}: "
              f"{result.verdict()}", file=out, flush=True)

    report = run_sweep(
        args.model, variants, frames=args.frames, executor=args.executor,
        workers=args.workers, always_assert=args.always_assert,
        max_failures=args.max_failures, deadline_s=args.deadline_s,
        on_result=progress if args.stream else None,
        backends=args.backends, log_dir=args.log_dir,
        preflight=not args.no_preflight,
    )
    if args.triage:
        report.triage = triage_sweep(report)
    print(report.render(verbose=args.verbose), file=out)
    if args.log_dir:
        print(f"EXray logs streamed to {args.log_dir} "
              f"(inspect with: repro log show {args.log_dir}/<variant>)",
              file=out)
    if args.report_json:
        _write_report_json(report, args.report_json, out)
    return 0 if report.healthy else 1


def _build_lineup(args, model):
    """The sweep lineup from --variant specs (or the task's default)."""
    if args.variant:
        # With the pre-flight on, field validation is deferred to it so a
        # statically-broken spec becomes a skipped result with diagnostics
        # instead of a parse error.
        return [parse_variant_spec(spec, check=args.no_preflight)
                for spec in args.variant]
    entry = get_entry(model)
    if entry.task not in ("classification", "detection", "segmentation"):
        raise ValidationError(
            f"no default variants for task {entry.task!r}; pass --variant "
            "NAME[:key=value,...] explicitly")
    return list(DEFAULT_IMAGE_VARIANTS)


def _sweep_sharded(args, variants, out) -> int:
    # Fleet mode: partition the lineup into shard manifests, execute each
    # shard as an isolated portable artifact (exactly what a remote
    # `repro sweep-worker run` would produce), then merge — or, with
    # --plan-only, stop after planning so real workers take over.
    if args.max_failures is not None or args.deadline_s is not None:
        raise ValidationError(
            "--max-failures/--deadline-s are per-process scheduling "
            "policies and do not distribute; run them per worker instead")
    if args.log_dir is not None:
        raise ValidationError(
            "--log-dir does not combine with --shards: every shard "
            "artifact already streams its edge logs under "
            "<out-dir>/<shard>/logs/<variant>")
    if args.shards < 1:
        # Fail before the (expensive) reference build dirties out-dir.
        raise ValidationError(f"--shards must be >= 1, got {args.shards}")
    if args.plan_only and args.report_json:
        raise ValidationError(
            "--report-json has nothing to write under --plan-only (no "
            "sweep runs); pass it to 'repro sweep merge' instead")
    if args.backends is not None:
        # Expand the backend axis before partitioning so name@backend
        # clones can land on different shards.
        variants = expand_backends(variants, args.backends)
    out_dir = Path(args.out_dir) if args.out_dir else \
        Path(tempfile.mkdtemp(prefix="exray-fleet-"))
    ref_root = out_dir / "reference"
    build_reference_log(args.model, args.frames, "sweep", log_root=ref_root)
    manifests = plan_shards(
        args.model, variants, n_shards=args.shards, frames=args.frames,
        always_assert=args.always_assert, reference="../reference",
        reference_digest=log_digest(ref_root),
        check=args.no_preflight)
    shard_dirs = write_shards(manifests, out_dir)
    rows = [(m.shard_id, len(m.variants),
             " ".join(v.name for v in m.variants)) for m in manifests]
    print(format_table(("shard", "variants", "lineup slice"), rows,
                       title=f"sharded sweep plan: {len(manifests)} shard(s) "
                             f"under {out_dir}"), file=out)
    if args.plan_only:
        print("run each shard with:", file=out)
        for shard_dir in shard_dirs:
            print(f"  repro sweep-worker run {shard_dir / MANIFEST_NAME} "
                  f"--out {shard_dir}", file=out)
        print(f"then merge: repro sweep merge {out_dir}/shard-*", file=out)
        return 0

    for shard_dir, manifest in zip(shard_dirs, manifests):
        def progress(result, n_done, n_total, shard_id=manifest.shard_id):
            print(f"[{shard_id} {n_done}/{n_total}] {result.variant.name}: "
                  f"{result.verdict()}", file=out, flush=True)

        # verify_reference=False: this process built and hashed the
        # reference moments ago; re-hashing it per shard buys nothing.
        run_shard(shard_dir / MANIFEST_NAME, shard_dir,
                  executor=args.executor, workers=args.workers,
                  on_result=progress if args.stream else None,
                  verify_reference=False,
                  preflight=not args.no_preflight)
    # verify=False: this process wrote every artifact moments ago;
    # re-hashing them buys nothing on the local path. --strict still
    # upgrades structural problems (a worker crash mid-artifact) to errors.
    report = merge_shards(shard_dirs, triage=args.triage,
                          strict=args.strict, verify=False)
    print(report.render(verbose=args.verbose), file=out)
    print(f"shard artifacts under {out_dir} "
          f"(re-merge with: repro sweep merge {out_dir}/shard-*)", file=out)
    if args.report_json:
        _write_report_json(report, args.report_json, out)
    return 0 if report.healthy else 1


def _sweep_merge(args, out) -> int:
    if not args.shard_dirs:
        raise ValidationError(
            "repro sweep merge needs at least one shard artifact directory")
    # Sweep-execution flags have no meaning when folding existing
    # artifacts; reject them loudly rather than silently ignoring them.
    ignored = {"--variant": args.variant, "--backends": args.backends,
               "--shards": args.shards, "--out-dir": args.out_dir,
               "--plan-only": args.plan_only, "--log-dir": args.log_dir,
               "--max-failures": args.max_failures,
               "--deadline-s": args.deadline_s, "--stream": args.stream,
               "--workers": args.workers,
               "--always-assert": args.always_assert,
               "--no-preflight": args.no_preflight}
    passed = [flag for flag, value in ignored.items() if value]
    if passed:
        raise ValidationError(
            f"'repro sweep merge' reads existing shard artifacts and does "
            f"not accept {', '.join(passed)}")
    report = merge_shards(args.shard_dirs, triage=args.triage,
                          strict=args.strict)
    print(report.render(verbose=args.verbose), file=out)
    if args.report_json:
        _write_report_json(report, args.report_json, out)
    return 0 if report.healthy else 1


def _sweep_serve(args, out) -> int:
    # `repro sweep serve MODEL --shards N [--port P]`: the fleet control
    # plane. Plans the shard manifests, then serves the lease/upload/
    # status/report HTTP API until interrupted (or, with --exit-when-done,
    # until every shard artifact is verified).
    if len(args.shard_dirs) != 1:
        raise ValidationError(
            "repro sweep serve needs exactly one model name: "
            "repro sweep serve MODEL --shards N [--port P]")
    model = args.shard_dirs[0]
    if args.shards is None:
        raise ValidationError("repro sweep serve needs --shards N")
    if args.shards < 1:
        raise ValidationError(f"--shards must be >= 1, got {args.shards}")
    variants = _build_lineup(args, model)
    if args.backends is not None:
        variants = expand_backends(variants, args.backends)
    workdir = Path(args.out_dir) if args.out_dir else \
        Path(tempfile.mkdtemp(prefix="exray-fleet-"))
    manifests = plan_shards(
        model, variants, n_shards=args.shards, frames=args.frames,
        always_assert=args.always_assert, check=args.no_preflight)
    coordinator = SweepCoordinator(manifests, workdir, ttl_s=args.ttl_s)
    server = make_server(coordinator, args.host, args.port)
    url = server_url(server)
    thread = threading.Thread(target=server.serve_forever,
                              name="fleet-coordinator", daemon=True)
    thread.start()

    rows = [(m.shard_id, len(m.variants),
             " ".join(v.name for v in m.variants)) for m in manifests]
    print(format_table(("shard", "variants", "lineup slice"), rows,
                       title=f"fleet coordinator: {len(manifests)} shard(s) "
                             f"under {workdir}"), file=out)
    print(f"coordinator listening on {url} (lease ttl {args.ttl_s:g}s)",
          file=out)
    print(f"workers: repro sweep-worker run --coordinator {url}", file=out)
    print(f"status:  repro sweep status {url}", file=out, flush=True)

    last_counts = None
    exit_code = 130
    reported = False
    try:
        while True:
            status = coordinator.status()
            counts = tuple(sorted(status["counts"].items()))
            if counts != last_counts:
                last_counts = counts
                line = ", ".join(f"{n} {state}" for state, n in counts)
                print(f"[{status['uptime_s']:.1f}s] {line}", file=out,
                      flush=True)
            done = status["complete"] or status["finalized"]
            if done and not reported:
                # Print the merged report the moment the fleet settles, but
                # keep serving /status and /report for late pollers; only
                # --exit-when-done turns completion into shutdown (after a
                # short grace so workers see 'complete' on their next
                # lease poll instead of a dropped connection).
                reported = True
                report = coordinator.report(triage=args.triage)
                print(report.render(verbose=args.verbose), file=out,
                      flush=True)
                print(f"shard artifacts under {workdir} (re-merge offline "
                      f"with: repro sweep merge {workdir}/shards/*)",
                      file=out, flush=True)
                if args.report_json:
                    _write_report_json(report, args.report_json, out)
                exit_code = 0 if report.healthy else 1
                if args.exit_when_done:
                    time.sleep(1.0)
                    break
            time.sleep(0.3)
    except KeyboardInterrupt:
        print("interrupted; shutting down coordinator", file=out)
    server.shutdown()
    server.server_close()
    return exit_code


def _sweep_status(args, out) -> int:
    # `repro sweep status <url>`: one status snapshot of a running
    # coordinator. Exit 0 once the sweep is complete, 1 while in flight —
    # so `until repro sweep status URL; do sleep 1; done` is a CI poll
    # loop. --finalize drains the fleet; --report-json saves /report.
    if len(args.shard_dirs) != 1:
        raise ValidationError(
            "repro sweep status needs exactly one coordinator URL: "
            "repro sweep status http://HOST:PORT")
    client = CoordinatorClient(args.shard_dirs[0])
    if args.finalize:
        doc = client.finalize()
        lost = doc.get("lost", [])
        print(f"finalized: {len(lost)} shard(s) marked lost", file=out)
        for path in doc.get("remainder_manifests", []):
            print(f"  remainder: repro sweep-worker run {path} "
                  f"--out {Path(path).parent}", file=out)
    status = client.status()
    if args.json:
        print(json.dumps(status, indent=2), file=out)
    else:
        rows = []
        for shard in status["shards"]:
            expires = shard["expires_in_s"]
            rows.append((
                shard["shard_id"], shard["state"],
                shard["worker"] or "-",
                f"{expires:.1f}s" if expires is not None else "-",
                shard["times_lost"],
                " ".join(shard["variants"]),
            ))
        counts = ", ".join(f"{n} {state}" for state, n
                           in sorted(status["counts"].items()))
        verdict = "complete" if status["complete"] else (
            "finalized" if status["finalized"] else "in flight")
        print(format_table(
            ("shard", "state", "worker", "lease expires", "lost", "variants"),
            rows,
            title=f"fleet sweep: {status['model']} x {status['num_shards']} "
                  f"shard(s), {verdict} ({counts}, "
                  f"up {status['uptime_s']:.1f}s)"), file=out)
    if args.report_json:
        doc = client.report(triage=args.triage)
        Path(args.report_json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report_json).write_text(json.dumps(doc, indent=2))
        print(f"live merged report written to {args.report_json}", file=out)
    return 0 if status["complete"] else 1


def cmd_sweep_worker(args, out) -> int:
    # `repro sweep-worker run <manifest> --out <dir>`: the fleet worker
    # entrypoint — execute one shard manifest into a portable artifact.
    # With --coordinator URL it instead runs the lease → run → upload loop
    # against a `repro sweep serve` control plane until the sweep is done.
    if args.coordinator:
        if args.manifest or args.out:
            raise ValidationError(
                "--coordinator runs leased shards from the control plane; "
                "it does not combine with a manifest path or --out (use "
                "--out-root to keep local artifact copies)")

        def on_event(kind, detail):
            print(f"[{kind}] {detail}", file=out, flush=True)

        summary = run_worker(
            args.coordinator, name=args.name, out_root=args.out_root,
            executor=args.executor, workers=args.workers,
            poll_s=args.poll_s, on_event=on_event)
        print(f"worker {summary.worker}: {len(summary.completed)} shard(s) "
              f"uploaded, {len(summary.duplicates)} duplicate(s), "
              f"{len(summary.failures)} failure(s); "
              f"stopped: {summary.stop_reason}", file=out)
        for failure in summary.failures:
            print(f"  failed: {failure}", file=out)
        return 0 if summary.ok else 1

    if not args.manifest or not args.out:
        raise ValidationError(
            "repro sweep-worker run needs a manifest path and --out DIR "
            "(offline mode), or --coordinator URL (fleet mode)")

    def progress(result, n_done, n_total):
        print(f"[{n_done}/{n_total}] {result.variant.name}: "
              f"{result.verdict()}", file=out, flush=True)

    report = run_shard(args.manifest, args.out, executor=args.executor,
                       workers=args.workers,
                       on_result=progress if args.stream else None)
    print(report.render(verbose=args.verbose), file=out)
    print(f"shard artifact written to {args.out}", file=out)
    return 0 if report.healthy else 1


def cmd_log(args, out) -> int:
    # `repro log show <dir>`: inspect a streamed/saved EXray log without
    # materializing its tensors (a lazy EXrayLog over the directory).
    log = EXrayLog.load(args.dir)
    inference = len(log) - log.num_sensor_only()
    print(f"EXray log: {args.dir}", file=out)
    rows = [
        ("stream", log.name),
        ("format version", f"v{log.version}"),
        ("per-layer tensors", "yes" if log.per_layer else "no"),
        ("frames", f"{len(log)} ({inference} inference, "
                   f"{log.num_sensor_only()} sensor-only)"),
        ("bytes on disk", f"{log.log_bytes:,}"),
        ("bytes/frame", f"{log.log_bytes / max(len(log), 1):,.0f}"),
        ("monitor overhead", f"{log.monitor_overhead_ms:.2f} ms total"),
    ]
    if inference:
        rows.append(("mean latency", f"{log.mean_latency_ms():.2f} ms/frame"))
        rows.append(("peak memory", f"{log.peak_memory_mb():.2f} MB"))
    if len(log):
        first = log.frame(0)
        if first.layer_latency_ms:
            rows.append(("layers", str(len(first.layer_latency_ms))))
        if first.tensors:
            keys = sorted(first.tensors)
            shown = ", ".join(keys[:6]) + (", ..." if len(keys) > 6 else "")
            rows.append(("tensor keys", f"{len(keys)} ({shown})"))
    for label, value in rows:
        print(f"  {label:<18} {value}", file=out)
    if args.frames:
        print(format_table(
            ("step", "latency_ms", "wall_ms", "memory_mb", "kind"),
            [(f.step, f"{f.latency_ms:.2f}", f"{f.wall_ms:.2f}",
              f"{f.memory_mb:.2f}",
              "sensor-only" if f.sensor_only else "inference")
             for f in _take(log.iter_frames(load_tensors=False), args.frames)],
            title=f"first {args.frames} frame(s):"), file=out)
    return 0


def _take(iterator, n: int):
    return [frame for _, frame in zip(range(n), iterator)]


def cmd_profile(args, out) -> int:
    graph = get_model(args.model, stage=args.stage)
    frames, _ = eval_data(args.model, args.frames, "cli-profile")
    device = DEVICES[args.device]
    app = EdgeApp(graph,
                  resolver=make_resolver(args.resolver, args.kernel_bugs),
                  device=device, monitor=MLEXray("edge"))
    app.run_batched(frames[:1])  # warm validation
    app.run(frames)
    log = app.log()
    profile = layer_latency_profile(log)
    rows = [(p.layer, p.op, f"{p.latency_ms:.3f}", f"{p.share:.1%}")
            for p in profile]
    print(format_table(("layer", "op", "ms/frame", "share"), rows,
                       title=f"{args.model} [{args.stage}/{args.resolver}] "
                             f"on {DEVICES[args.device].name}"), file=out)
    print(f"end-to-end: {log.mean_latency_ms():.2f} ms/frame", file=out)
    stragglers = find_stragglers(log)
    for s in stragglers:
        print(f"straggler: {s.layer} ({s.op}) {s.latency_ms:.2f}ms "
              f"= {s.share:.0%}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ML-EXray deployment validation CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="list zoo models")

    p = sub.add_parser("export", help="export a zoo model to a .rpm file")
    p.add_argument("model")
    p.add_argument("--stage", default="mobile",
                   choices=("checkpoint", "mobile", "quantized"))
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("train", help="train (or retrain) a zoo model")
    p.add_argument("model")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser(
        "lint", help="statically verify a model graph/plan/deployment")
    p.add_argument("model", nargs="?",
                   help="zoo model name, or a .rpm model file path")
    p.add_argument("--stage", default="mobile",
                   choices=("checkpoint", "mobile", "quantized"),
                   help="deployment stage to lint (zoo models only; a .rpm "
                        "file already is a stage)")
    p.add_argument("--backend", default=None,
                   choices=sorted(RESOLVERS),
                   help="lint plan/binding rules against this kernel "
                        "backend (default: optimized)")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="text report or the versioned LintReport JSON")
    p.add_argument("--fail-on", default="error", choices=SEVERITIES,
                   help="lowest severity that makes the lint fail (exit 1); "
                        "default: error")
    p.add_argument("--explain", default=None, metavar="RULE_ID",
                   help="print a rule's title, severity, category, and "
                        "documentation (e.g. --explain Q004) and exit")

    p = sub.add_parser(
        "analyze",
        help="dataflow analysis: value ranges, liveness, arena memory")
    p.add_argument("model", nargs="?",
                   help="zoo model name, or a .rpm model file path")
    p.add_argument("--stage", default="mobile",
                   choices=("checkpoint", "mobile", "quantized"),
                   help="deployment stage to analyze (zoo models only; a "
                        ".rpm file already is a stage)")
    p.add_argument("--batch", type=int, default=1,
                   help="batch size the liveness/memory analysis assumes "
                        "(default: 1)")
    p.add_argument("--arena", action="store_true",
                   help="also pack a static arena layout and run the "
                        "independent soundness verifier over it")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="text report or the versioned AnalysisReport JSON")
    p.add_argument("--explain", default=None, metavar="RULE_ID",
                   help="print a rule's title, severity, category, and "
                        "documentation (e.g. --explain D001) and exit")

    p = sub.add_parser("validate",
                       help="edge-vs-reference deployment validation")
    p.add_argument("model")
    p.add_argument("--stage", default="mobile",
                   choices=("checkpoint", "mobile", "quantized"))
    p.add_argument("--frames", type=int, default=24)
    p.add_argument("--bug", action="append", metavar="KEY=VALUE",
                   help="inject a preprocessing bug (repeatable), e.g. "
                        "channel_order=bgr, normalization=[0,1], rotation_k=1")
    p.add_argument("--resolver", default="optimized",
                   choices=sorted(RESOLVERS))
    p.add_argument("--kernel-bugs", default="none", choices=sorted(KERNEL_BUG_PRESETS))
    p.add_argument("--always-assert", action="store_true",
                   help="run assertions even when accuracy looks healthy")
    p.add_argument("--log-dir", default=None, metavar="DIR",
                   help="stream the edge EXray log to DIR as the run "
                        "happens (one JSONL line + tensor shard per frame)")

    p = sub.add_parser(
        "sweep", help="validate many deployment variants in parallel")
    p.add_argument("model",
                   help="zoo model name, or a fleet verb: 'merge' folds "
                        "shard artifact directories into one report, "
                        "'serve' runs the HTTP coordinator for a sharded "
                        "sweep, 'status' inspects a running coordinator")
    p.add_argument("shard_dirs", nargs="*", metavar="ARG",
                   help="with 'merge': shard artifact directories; with "
                        "'serve': the model name; with 'status': the "
                        "coordinator URL")
    p.add_argument("--frames", type=int, default=16)
    p.add_argument("--variant", action="append", metavar="NAME[:k=v,...]",
                   help="a deployment variant (repeatable): preprocess "
                        "overrides plus the special keys stage=, resolver=, "
                        "kernel_bugs=, device= — e.g. "
                        "bgr:channel_order=bgr,device=pixel3_cpu. Defaults "
                        "to the Figure-4(a) bug-injection lineup")
    p.add_argument("--backends", default=None, metavar="NAME,NAME,...",
                   help="fan the lineup across kernel backends (one clone "
                        "per variant per backend, named variant@backend): "
                        "comma-separated registry names or 'all' — e.g. "
                        "--backends optimized,reference")
    p.add_argument("--executor", default="process",
                   choices=("process", "thread", "serial"))
    p.add_argument("--workers", type=int, default=None,
                   help="pool size (default: one per variant, capped at CPUs)")
    p.add_argument("--always-assert", action="store_true",
                   help="run assertions even when accuracy looks healthy")
    p.add_argument("--verbose", action="store_true",
                   help="print every variant's full validation report")
    p.add_argument("--stream", action="store_true",
                   help="print each variant's verdict as it completes "
                        "(failure-prone variants run first)")
    p.add_argument("--max-failures", type=int, default=None, metavar="N",
                   help="stop dispatching variants once N have failed; "
                        "undispatched variants are reported as skipped")
    p.add_argument("--deadline-s", type=float, default=None, metavar="SEC",
                   help="wall-clock budget for the sweep; stragglers past "
                        "it are cancelled")
    p.add_argument("--triage", action="store_true",
                   help="cluster variants by layer-drift fingerprint and "
                        "label each cluster with a root-cause hypothesis")
    p.add_argument("--log-dir", default=None, metavar="DIR",
                   help="stream every run's EXray log under DIR as the "
                        "sweep executes: the shared reference pipeline in "
                        "DIR/reference, each variant in DIR/<variant>")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="fleet mode: partition the lineup into N portable "
                        "shard manifests, execute each as an isolated shard "
                        "artifact, and merge the artifacts back into one "
                        "report")
    p.add_argument("--out-dir", default=None, metavar="DIR",
                   help="with --shards: root directory for the shared "
                        "reference log, shard manifests, and shard "
                        "artifacts (default: a temporary directory)")
    p.add_argument("--plan-only", action="store_true",
                   help="with --shards: write the manifests and shared "
                        "reference log, print per-shard worker commands, "
                        "and exit without executing anything")
    p.add_argument("--report-json", default=None, metavar="FILE",
                   help="also write the final SweepReport as versioned "
                        "JSON (round-trips through SweepReport.from_doc)")
    p.add_argument("--strict", action="store_true",
                   help="with 'merge': treat missing/corrupt shard "
                        "artifacts as errors instead of skipped variants")
    p.add_argument("--no-preflight", action="store_true",
                   help="skip the static pre-flight lint: statically-broken "
                        "variants raise instead of landing in the report "
                        "as skipped results with diagnostics")
    p.add_argument("--host", default="127.0.0.1",
                   help="with 'serve': interface to bind (default "
                        "127.0.0.1; 0.0.0.0 exposes the fleet API)")
    p.add_argument("--port", type=int, default=0,
                   help="with 'serve': TCP port for the coordinator "
                        "(default 0 = pick a free port and print it)")
    p.add_argument("--ttl-s", type=float, default=60.0, metavar="SEC",
                   help="with 'serve': lease time-to-live; a leased shard "
                        "whose worker stops heartbeating for this long "
                        "returns to the pool (default 60)")
    p.add_argument("--exit-when-done", action="store_true",
                   help="with 'serve': shut the coordinator down once "
                        "every shard artifact is verified (or the sweep "
                        "is finalized) instead of serving until Ctrl-C")
    p.add_argument("--json", action="store_true",
                   help="with 'status': print the raw status JSON instead "
                        "of the shard table")
    p.add_argument("--finalize", action="store_true",
                   help="with 'status': tell the coordinator to stop "
                        "leasing, mark unfinished shards lost, and emit "
                        "remainder manifests for their slices")

    p = sub.add_parser(
        "sweep-worker",
        help="fleet worker: execute one sweep shard manifest")
    wsub = p.add_subparsers(dest="worker_command", required=True)
    pw = wsub.add_parser(
        "run", help="execute a shard manifest into a portable artifact, "
                    "or drain a coordinator's lease pool")
    pw.add_argument("manifest", nargs="?", default=None,
                    help="path to a shard manifest.json (offline mode; "
                         "omit with --coordinator)")
    pw.add_argument("--out", default=None, metavar="DIR",
                    help="artifact directory (report.json, logs/, digests); "
                         "required in offline mode")
    pw.add_argument("--coordinator", default=None, metavar="URL",
                    help="fleet mode: lease shards from this `repro sweep "
                         "serve` coordinator, upload each artifact, and "
                         "loop until the sweep is complete")
    pw.add_argument("--out-root", default=None, metavar="DIR",
                    help="with --coordinator: keep each shard's artifact "
                         "under DIR/<shard_id> instead of a temporary "
                         "directory")
    pw.add_argument("--name", default=None,
                    help="with --coordinator: worker name shown in "
                         "`repro sweep status` (default host-pid)")
    pw.add_argument("--poll-s", type=float, default=1.0, metavar="SEC",
                    help="with --coordinator: idle poll interval while "
                         "every shard is leased elsewhere (default 1)")
    pw.add_argument("--executor", default="process", choices=EXECUTORS)
    pw.add_argument("--workers", type=int, default=None)
    pw.add_argument("--stream", action="store_true",
                    help="print each variant's verdict as it completes")
    pw.add_argument("--verbose", action="store_true",
                    help="print every variant's full validation report")

    p = sub.add_parser("log", help="inspect EXray log directories")
    logsub = p.add_subparsers(dest="log_command", required=True)
    ps = logsub.add_parser(
        "show", help="summarize a streamed/saved EXray log directory")
    ps.add_argument("dir")
    ps.add_argument("--frames", type=int, default=0, metavar="N",
                    help="also print the first N per-frame rows")

    p = sub.add_parser("profile", help="per-layer latency on a simulated device")
    p.add_argument("model")
    p.add_argument("--stage", default="mobile",
                   choices=("checkpoint", "mobile", "quantized"))
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--device", default="pixel4_cpu", choices=sorted(DEVICES))
    p.add_argument("--resolver", default="optimized",
                   choices=sorted(RESOLVERS))
    p.add_argument("--kernel-bugs", default="none", choices=sorted(KERNEL_BUG_PRESETS))
    return parser


COMMANDS = {
    "list-models": cmd_list_models,
    "export": cmd_export,
    "lint": cmd_lint,
    "analyze": cmd_analyze,
    "train": cmd_train,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "sweep-worker": cmd_sweep_worker,
    "log": cmd_log,
    "profile": cmd_profile,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, out or sys.stdout)
    except ReproError as exc:
        # e.g. an unrecognized preprocess-override key, an unknown model, a
        # device/dtype mismatch: user input errors, not crashes — report
        # them without a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
