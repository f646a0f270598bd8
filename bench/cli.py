"""``python -m bench``: run workloads, or ``compare`` two trajectory files.

    python -m bench [--workload NAME] [--seed N] [--seconds S]
                    [--trace 0|1|DIR] [--out FILE.jsonl]
    python -m bench compare PARENT.jsonl CHANGE.jsonl

With ``--workload`` one workload runs in this process and the last stdout
line is the JSON result. Without it every workload runs, one after another,
each in its own child process; with ``--trace 1`` or ``--trace DIR`` each
also gets a separate traced run and its tracing overhead is reported.
``--trace DIR`` also writes the traces and layer tables into ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench import ROOT, SCRATCH, stats

CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def _run_one(args) -> int:
    from bench import harness

    with harness.scratch_dir(args.workload) as tmp:
        result = harness.run_workload(args.workload, args.seed, args.seconds,
                                      tmp, trace=args.traced)
    print(harness.describe(result))
    if args.trace_dir is not None:
        harness.write_trace(result, args.trace_dir)
    if args.out is not None:
        with args.out.open("a") as handle:
            handle.write(json.dumps(harness.record(result)) + "\n")
    print(harness.result_line(result), flush=True)
    return result.exit_code


def _child(args, workload: str, out: Path, traced: bool) -> dict | None:
    """Run one workload in a child process; its record, or None if none."""
    cmd = [sys.executable, "-m", "bench", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(out)]
    if traced:
        cmd += ["--trace", str(args.trace_dir or 1)]
    before = len(_read_records(out))
    subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False)
    records = _read_records(out)
    return records[-1] if len(records) > before else None


def _run_all(args, spec: dict) -> int:
    from repro.util.tabulate import format_table

    traced = args.traced
    SCRATCH.mkdir(exist_ok=True)
    out = args.out or SCRATCH / f"runs-{os.getpid()}.jsonl"
    out.touch()           # keeps SCRATCH non-empty while children run
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    rows, ok = [], True
    try:
        for name in names:
            plain = _child(args, name, out, traced=False)
            ok = ok and plain is not None and plain["correct"]
            row = [name] + [plain["end_to_end"][m]["value"] if plain else "-"
                            for m in metrics]
            row += [f"{plain['failed']}/{plain['attempted']}" if plain else "-"]
            if traced:
                deep = _child(args, name, out, traced=True)
                ok = ok and deep is not None and deep["correct"]
                overhead = "-"
                if plain and deep:
                    base = plain["end_to_end"]["throughput_per_s"]["value"]
                    slow = deep["end_to_end"]["throughput_per_s"]["value"]
                    overhead = f"{base / slow - 1:+.1%}"
                row.append(overhead)
            rows.append(row)
    finally:
        if args.out is None:
            out.unlink(missing_ok=True)
            try:
                SCRATCH.rmdir()
            except OSError:
                pass
    headers = ["workload", *metrics, "failed/attempted"]
    if traced:
        headers.append("trace_overhead")
    print(format_table(headers, rows, title=f"seed {args.seed}:"))
    return 0 if ok else 1


def _compare(parent_path: Path, change_path: Path, spec: dict) -> int:
    from repro.util.tabulate import format_table

    def by_workload(path):
        groups: dict[str, list[dict]] = {}
        for rec in _read_records(path):
            if not rec["trace"]:
                groups.setdefault(rec["workload"], []).append(rec)
        return groups

    parent, change = by_workload(parent_path), by_workload(change_path)
    conditions = {(rec["seconds"], json.dumps(rec["env"], sort_keys=True))
                  for side in (parent, change) for recs in side.values()
                  for rec in recs}
    if len(conditions) > 1:
        print("refusing to compare runs of different lengths or environments:",
              file=sys.stderr)
        for seconds, env in sorted(conditions):
            print(f"  seconds {seconds:g}  env {env}", file=sys.stderr)
        return 2
    rows, regressed = [], False
    for metric in spec["end_to_end"]:
        for workload in (w["name"] for w in spec["workloads"]):
            if workload not in parent or workload not in change:
                continue
            name = metric["name"]
            v = stats.verdict(
                [r["end_to_end"][name]["value"] for r in parent[workload]],
                [r["end_to_end"][name]["value"] for r in change[workload]],
                metric["better"], metric["bound"])
            regressed = regressed or v["outcome"] == "regressed"
            rows.append((name, workload, *v["parent"], *v["change"],
                         f"{v['wins']}/{v['pairs']}", metric["bound"],
                         v["outcome"]))
    print(format_table(
        ("metric", "workload", "A q1", "A median", "A q3", "B q1",
         "B median", "B q3", "B wins", "bound", "verdict"), rows,
        title=f"A = {parent_path}, B = {change_path}"))
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(
            prog="python -m bench compare",
            description="Compare two run files per (metric, workload).")
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return _compare(args.parent, args.change, spec)

    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Host benchmark of the edge loop.")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload in this process (default: all, "
                             "each in a child process)")
    parser.add_argument("--seed", type=int, default=1,
                        help="selects the generated inputs (default 1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the timed phase (default: run_seconds "
                             "in BENCHMARK.json, which runners pass); at least "
                             "one round always runs, and compare refuses runs "
                             "of different lengths")
    parser.add_argument("--trace", default="0", metavar="0|1|DIR",
                        help="1: a traced run reporting per-layer metrics; "
                             "DIR: the same, writing Chrome traces and layer "
                             "tables into DIR")
    parser.add_argument("--out", type=Path,
                        help="append one JSON line per workload run")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    args.traced = args.trace != "0"
    # Children run from the checkout root; keep user paths meaning the same.
    args.trace_dir = None if args.trace in ("0", "1") \
        else Path(args.trace).resolve()
    if args.out is not None:
        args.out = args.out.resolve()
    if args.workload is not None:
        return _run_one(args)
    return _run_all(args, spec)
