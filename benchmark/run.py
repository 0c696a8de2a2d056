#!/usr/bin/env python3
"""Builds and runs flexbench; see benchmark/README.md.

One run, as BENCHMARK.json's command:
    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
prints flexbench's full record, then as the last line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1) of BENCHMARK.json.

A suite: K fresh processes per workload, interleaved round-robin, then one
traced process per workload, one JSON record per line, then a summary:
    python3 benchmark/run.py --suite [--runs K] [--seed N] [--seconds S]
                             [--workloads a,b] [--out FILE]

Two suites, e.g. of two commits, metric by metric against the bounds:
    python3 benchmark/run.py --compare BASE.jsonl NEW.jsonl

Run from anywhere inside a checkout; the build lands in build/flexbench.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build" / "flexbench"
SPEC_PATH = ROOT / "BENCHMARK.json"
BINARY = BUILD_DIR / "flexbench"
# Within the contract's limits: 900 s for a first build, 180 s per run.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_process(cmd, timeout, stdout):
    """Runs cmd in its own process group, killing the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            die(f"{cmd[0]} ran over {timeout} s")
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"{ROOT / 'src'} is missing: run.py needs a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "flexbench",
                  "-j", jobs])
    for step in steps:
        code, _ = run_process(step, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            die(f"build step failed ({code}): {' '.join(step)}")


def load_spec():
    if not SPEC_PATH.is_file():
        die(f"{SPEC_PATH} is missing")
    return json.loads(SPEC_PATH.read_text())


def git_stamp():
    if not (ROOT / ".git").exists():
        return {"sha": "unknown", "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {"sha": "unknown", "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def run_flexbench(workload, seed, seconds, traced):
    """One fresh flexbench process; returns its record with a git stamp."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        cmd += ["--trace", str(BUILD_DIR / f"spans-{workload}-{seed}.jsonl")]
    code, out = run_process(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"flexbench {workload} exited {code} without a record")
    if code != 0 and record.get("correct", False):
        die(f"flexbench {workload} exited {code}")
    record["provenance"]["git"] = git_stamp()
    return record


def section(traced):
    return "per_layer" if traced else "end_to_end"


def single(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    build()
    traced = args.trace == 1
    record = run_flexbench(args.workload, args.seed, args.seconds, traced)
    values = record.get(section(traced), {})
    metrics = {}
    missing = []
    for metric in spec[section(traced)]:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]],
                                       "unit": metric["unit"]}
        else:
            missing.append(metric["name"])
    if missing:
        print(f"run.py: record lacks {missing}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": bool(record["correct"]) and not missing,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return p25, p50, p75


def spread(values):
    p25, p50, p75 = quartiles(values)
    return (p75 - p25) / abs(p50) if p50 else 0.0


def by_workload(records, traced=False):
    groups = {}
    for record in records:
        if record["traced"] == traced:
            groups.setdefault(record["workload"], []).append(record)
    return groups


def check_records(records):
    """Problems: failed checks, and runs that disagree on a shared seed."""
    problems = []
    for record in records:
        name = f"{record['workload']} seed {record['seed']}"
        if not record["correct"]:
            problems.append(f"{name}: {record['errors']}")
        if record["failed"]:
            problems.append(f"{name}: {record['failed']} of "
                            f"{record['attempted']} operations failed")
    runs = {}
    for record in records:
        runs.setdefault((record["workload"], record["seed"]), []).append(
            record["digests"])
    for (workload, seed), digest_lists in runs.items():
        reference = max(digest_lists, key=len)
        for digests in digest_lists:
            if digests != reference[:len(digests)]:
                problems.append(f"{workload} seed {seed}: runs disagree on "
                                "an operation's digest")
                break
    return problems


def summarize(records, spec):
    print("\nend-to-end (untraced runs): min / p25 / median / p75 / max")
    for workload, group in by_workload(records).items():
        print(f"  {workload} ({len(group)} runs, "
              f"{sum(r['ops'] for r in group)} operations)")
        for metric in spec["end_to_end"]:
            values = [r["end_to_end"][metric["name"]] for r in group]
            p25, p50, p75 = quartiles(values)
            flag = ("  unresolved" if spread(values) > metric["bound"] / 2
                    else "")
            print(f"    {metric['name']:<14} {min(values):11.5g} "
                  f"{p25:11.5g} {p50:11.5g} {p75:11.5g} {max(values):11.5g}"
                  f" {metric['unit']}{flag}")
    traced = by_workload(records, traced=True)
    if not traced:
        return
    names = list(traced)
    print("\nper-layer (traced run): " + "  ".join(names))
    for metric in spec["per_layer"]:
        row = "".join(f" {traced[w][0]['per_layer'][metric['name']]:>14.6g}"
                      for w in names)
        print(f"  {metric['name']:<34}{row} {metric['unit']}")


def suite(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    build()
    out = open(args.out, "w") if args.out else None
    records = []

    def emit(record):
        records.append(record)
        line = json.dumps(record)
        print(line, flush=True)
        if out:
            print(line, file=out, flush=True)

    for _ in range(args.runs):
        for workload in workloads:
            emit(run_flexbench(workload, args.seed, args.seconds, False))
    for workload in workloads:
        emit(run_flexbench(workload, args.seed, args.seconds, True))
    if out:
        out.close()
    summarize(records, spec)
    problems = check_records(records)
    for problem in problems:
        print(f"FAIL {problem}")
    sys.exit(1 if problems else 0)


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(args):
    spec = load_spec()
    base = by_workload(read_records(args.compare[0]))
    new = by_workload(read_records(args.compare[1]))
    worse = False
    print(f"{'workload':<15} {'metric':<14} {'base':>11} {'new':>11} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in base:
        if workload not in new:
            continue
        for metric in spec["end_to_end"]:
            b = [r["end_to_end"][metric["name"]] for r in base[workload]]
            n = [r["end_to_end"][metric["name"]] for r in new[workload]]
            b50 = statistics.median(b)
            n50 = statistics.median(n)
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (n50 - b50) / abs(b50) if b50 else 0.0
            all_better = (max(n) < min(b) if sign > 0 else min(n) > max(b))
            if change > metric["bound"]:
                verdict = "WORSE"
                worse = True
            elif max(spread(b), spread(n)) > metric["bound"] and \
                    not all_better:
                verdict = "unresolved"
            else:
                verdict = "better" if change < 0 else "no worse"
            print(f"{workload:<15} {metric['name']:<14} {b50:11.5g} "
                  f"{n50:11.5g} {100 * change:+7.1f}% "
                  f"{100 * metric['bound']:5.0f}%  {verdict}")
        same = all(r["digests"][:1] == base[workload][0]["digests"][:1]
                   for r in new[workload])
        print(f"{workload:<15} simulated results "
              f"{'identical' if same else 'CHANGED'} on the first seed")
    sys.exit(1 if worse else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        compare(args)
    elif args.suite:
        suite(args)
    elif args.workload:
        single(args)
    else:
        parser.error("give --workload, --suite or --compare")


if __name__ == "__main__":
    main()
