#!/usr/bin/env python3
"""End-to-end benchmark of the three paths: offline batch (batch_suite),
tdcd client round trip (daemon_roundtrip) and raw container decode
(decode_images).

Run from the repository root:

    python3 perfbench/run.py --workload batch_suite --seed 1 --seconds 10 --trace 0

It builds perfbench/driver against ../src into .bench_build/ (Release), runs
the workload in its own process, checks the outputs, and prints one JSON
object as its last line: the end-to-end metrics with --trace 0, the
per-layer ledger metrics with --trace 1. Earlier lines state the host, the
input digest, the tail-percentile sample count and (traced) the ledger.
Everything it writes stays under .bench_build/ in the current directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

HERE = Path(__file__).resolve().parent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_root, env):
    """Configures once, then (re)builds the driver; returns its path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no library sources under %s/src" % root)
    bdir = build_root / "perfbench"
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench_driver",
                    "-j", "4"], check=True, stdout=sys.stderr, env=env)
    return bdir / "perfbench_driver"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=analysis.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    build_root = root / ".bench_build"
    tmp = build_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp), TDC_CACHE_DIR=str(build_root / "tdc_cache"))
    try:
        driver = build(root, build_root, env)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    run_dir = build_root / "runs" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        out = run_dir / "result.json"
        cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--min-ops", str(analysis.min_ops(args.workload)), "--out", str(out)]
        proc = subprocess.run(cmd, cwd=run_dir, env=env, timeout=900)
        if proc.returncode != 0:
            log("perfbench: driver exited with %d" % proc.returncode)
            return 1
        doc = json.loads(out.read_text())
        trace_doc = json.loads(Path(doc["traced"]["trace_file"]).read_text()) \
            if args.trace else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return report(doc, trace_doc)
    except ValueError as e:  # e.g. a tail percentile without ten samples beyond it
        log("perfbench: %s" % e)
        return 1


def report(doc, trace_doc):
    host = doc["host"]
    print("host: nproc=%d simd=%s build=%s" % (host["nproc"], host["simd"], host["build_type"]))
    print("inputs: seed=%d digest=%s" % (doc["seed"], doc["input_digest"]))
    u, t = doc["untraced"], doc["traced"]
    attempted = u["ops"] + (t["ops"] if t else 0)
    failed = u["failed"] + (t["failed"] if t else 0)
    for err in u["errors"] + (t["errors"] if t else []):
        print("FAILED op: %s" % err)
    correct = failed == 0

    if trace_doc is None:
        values, notes = analysis.end_to_end_metrics(doc)
        units = analysis.END_TO_END
    else:
        values, ledger = analysis.per_layer_metrics(doc, trace_doc)
        units = analysis.PER_LAYER
        notes = ledger_lines(ledger)
        if abs(ledger["error_pct"]) > analysis.RECONCILE_TOLERANCE_PCT:
            notes.append("LEDGER DOES NOT RECONCILE: %.2f%% of wall time unattributed "
                         "(tolerance %.1f%%)" % (ledger["error_pct"],
                                                 analysis.RECONCILE_TOLERANCE_PCT))
            correct = False
    for line in notes:
        print(line)
    print(json.dumps(analysis.result_line(correct, attempted, failed, values, units)))
    return 0 if correct else 1


def ledger_lines(ledger):
    lines = ["ledger: wall-time share per span (traced phase, summed over lanes)",
             "  %-24s %-8s %8s %12s %12s %7s" % ("span", "layer", "count", "self_ms",
                                                "wall_ms", "share")]
    for name, layer, n, self_us, wall_us in ledger["rows"]:
        lines.append("  %-24s %-8s %8d %12.3f %12.3f %6.2f%%"
                     % (name, layer, n, self_us / 1e3, wall_us / 1e3,
                        100.0 * wall_us / ledger["lane_us"]))
    lines.append("ledger: lanes %.3f ms, op spans %.3f ms, attributed %.3f ms, "
                 "unattributed %.3f%% (tolerance %.1f%%)"
                 % (ledger["lane_us"] / 1e3, ledger["root_us"] / 1e3,
                    ledger["attributed_us"] / 1e3, ledger["error_pct"],
                    analysis.RECONCILE_TOLERANCE_PCT))
    return lines


if __name__ == "__main__":
    sys.exit(main())
