#!/usr/bin/env python3
"""The labeling system's benchmark: build, run one workload, or compare.

Run one measurement (from the repository root):

    python3 perfbench/run.py --workload huge_landcover --seed 1 \
        --seconds 10 --trace 0 [--out results.jsonl]

The first run configures and builds the benchmark binary (and the library
it links) from source into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. The binary's output is passed through; its last
line is the JSON result. --out appends {"workload", "seed", "trace",
"result"} records to a JSON-lines file.

Compare two result sets (each a JSON-lines file written with --out):

    python3 perfbench/run.py --compare base.jsonl head.jsonl

prints, per workload and metric, each side's median and quartiles, and
marks every end-to-end metric better, worse, unchanged or unresolved
against the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    """Configure (once) and build the benchmark; return the binary path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    configured = out / "configured"  # written once configure succeeded
    steps = []
    if not configured.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sink.flush()
                tail = log.read_text().splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                sys.exit(3)
            configured.touch()
    return out / "perfbench"


def run_once(args) -> int:
    binary = build()
    env = dict(os.environ)
    env.pop("PAREMSP_TRACE", None)  # untraced runs need obs tracing off
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(build_dir() / "traces")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 4
    lines = proc.stdout.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: no result line (exit %d)\n"
                         % proc.returncode)
        return proc.returncode or 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if args.out:
        with open(args.out, "a") as sink:
            sink.write(json.dumps({"workload": args.workload,
                                   "seed": args.seed, "trace": args.trace,
                                   "result": result}) + "\n")
    return proc.returncode


# --- compare mode ------------------------------------------------------------

def load_results(path):
    """{(workload, trace): {metric: [values...]}} from a JSON-lines file."""
    table = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], int(rec["trace"]))
            for name, m in rec["result"]["metrics"].items():
                table.setdefault(key, {}).setdefault(name, []).append(
                    float(m["value"]))
    return table


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, head, better, bound):
    """better / worse / unchanged / unresolved for one end-to-end metric."""
    b_q1, b_med, b_q3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    sign = 1.0 if better == "higher" else -1.0
    if b_med == 0:
        return "unresolved"
    gain = sign * (h_med - b_med) / abs(b_med)   # > 0 means head is better
    spread = (b_q3 - b_q1) / abs(b_med)
    every_better = all(sign * (h - b) > 0 for h in head for b in base)
    every_worse = all(sign * (h - b) < 0 for h in head for b in base)
    if spread > bound:
        if every_better:
            return "better"
        if every_worse:
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > max(spread, 0.0) and every_better:
        return "better"
    return "unchanged"


def compare(base_path, head_path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base = load_results(base_path)
    head = load_results(head_path)
    rows = []
    for key in sorted(set(base) & set(head)):
        workload, trace = key
        names = [n for n in (list(e2e) if trace == 0 else
                             [m["name"] for m in spec["per_layer"]])
                 if n in base[key] and n in head[key]]
        print("== %s (%s)" % (workload, "traced" if trace else "untraced"))
        marks = {}
        for name in names:
            b, h = base[key][name], head[key][name]
            bq1, bmed, bq3 = quartiles(b)
            hq1, hmed, hq3 = quartiles(h)
            mark = "-"
            if name in e2e:
                mark = verdict(b, h, e2e[name]["better"], e2e[name]["bound"])
                marks.setdefault(mark, []).append(name)
            print("  %-34s base %12.6g [%.6g, %.6g] n=%d  head %12.6g "
                  "[%.6g, %.6g] n=%d  %s" % (name, bmed, bq1, bq3, len(b),
                                            hmed, hq1, hq3, len(h), mark))
        if trace == 0:
            rows.append((workload, marks))
    print("== summary (end-to-end, one row per workload)")
    worse = False
    for workload, marks in rows:
        worse = worse or bool(marks.get("worse"))
        print("  %-16s " % workload + "  ".join(
            "%s=%s" % (k, ",".join(marks[k]) if k != "unchanged"
                       else len(marks[k]))
            for k in ("worse", "better", "unresolved", "unchanged")
            if marks.get(k)))
    return 1 if worse else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every image (smoke tests)")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt one output; verification must fail")
    p.add_argument("--out", help="append the result record to this file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
