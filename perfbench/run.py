#!/usr/bin/env python3
"""S-Ariadne benchmark: builds the daemon and the benchmark runner from the
checkout it sits in, runs one workload (or all of them), checks every
answer, and prints each metric by name with its unit and sample count.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). See perfbench/README.md.

Usage:
    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

W is one of BENCHMARK.json's workloads, "all" of them, or a held-back
workload (query_cold). Exit status: 0 on a correct, valid run; 1 when an
answer was wrong (the result line is still printed) or the runner failed;
2 when the program cannot be built or the workload is unknown; 3 when the
load generator could not keep to its schedule in three attempts (no
result is reported).
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")
# A run that is not done by then is stopped, so a hung run still ends
# within three minutes.
RUN_DEADLINE_S = 170
ATTEMPTS = 3
# Workloads the runner has but BENCHMARK.json does not list: runnable by
# name, never part of "all". query_cold's answers differ from the linear
# scan while the directory merges capabilities that list an input concept
# a different number of times (see README.md), so it exits 1.
HELD_BACK = ["query_cold"]


def log(text):
    print(text, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_logged(cmd, log_path):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    """Configures and builds the daemon (Release) and the runner package.
    Incremental: a second call only re-links what changed."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: no S-Ariadne source tree at %s" % ROOT)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    repo = os.path.join(BUILD, "repo")
    bench = os.path.join(BUILD, "perfbench")
    steps = [
        ["cmake", "-S", ROOT, "-B", repo, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", repo, "-j", jobs, "--target", "sariadne_daemon", "sariadne_core"],
        ["cmake", "-S", HERE, "-B", bench, "-DCMAKE_BUILD_TYPE=Release",
         "-DSARIADNE_SOURCE_DIR=" + ROOT, "-DSARIADNE_BUILD_DIR=" + repo],
        ["cmake", "--build", bench, "-j", jobs],
    ]
    for step in steps:
        if run_logged(step, log_path) != 0:
            log("run.py: build step failed: %s (see %s)" % (" ".join(step), log_path))
            sys.exit(2)
    return (os.path.join(repo, "tools", "sariadne_daemon"),
            os.path.join(bench, "sariadne_perfbench"))


def source_digest():
    """SHA-256 over the program's source files: it identifies the code
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def provenance(seed, workload):
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    compiler = "unknown"
    cache = os.path.join(BUILD, "repo", "CMakeCache.txt")
    compiler_path = None
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler_path = line.split("=", 1)[1].strip()
    if compiler_path:
        version = subprocess.run([compiler_path, "--version"], capture_output=True, text=True)
        compiler = version.stdout.splitlines()[0] if version.stdout else compiler_path
    cpu = platform.processor() or "unknown"
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "git_sha": git.stdout.strip() if git.returncode == 0 else "none",
        "source_digest": source_digest(),
        "compiler": compiler,
        "build_type": "Release",
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": workload,
        "seed": seed,
    }


def run_once(runner, daemon, workload, seed, seconds, trace, deadline):
    """One run of the runner binary; its parsed result, or None if it failed."""
    os.makedirs(RESULTS, exist_ok=True)
    prefix = os.path.join(RESULTS, "%s-seed%d" % (workload, seed))
    cmd = [runner, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--daemon", daemon, "--out", prefix]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run.py: %s did not finish in time" % workload)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run.py: runner failed on %s (exit %d)" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def select(raw, metrics, per_layer):
    """The metrics BENCHMARK.json lists, in its order. A per-layer metric
    the workload does not exercise is reported as 0; a missing end-to-end
    metric is an error."""
    raw["metrics"]["bench.fail_ratio"] = {
        "value": raw["failed"] / max(raw["attempted"], 1), "unit": "ratio",
        "samples": raw["attempted"]}
    chosen = {}
    for m in metrics:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not per_layer:
                raise KeyError("end-to-end metric %s not measured" % m["name"])
            got = {"value": 0.0, "unit": m["unit"], "samples": 0, "absent": True}
        chosen[m["name"]] = got
    return chosen


# The replayed stages, in microseconds per operation; with the residual
# they add up to net.daemon_cpu_us_per_op.
LEDGER = ["ariadne.wire_decode_us", "xml.parse_request_us", "description.request_build_us",
          "description.resolve_us", "directory.query_us", "bloom.covers_us_per_op",
          "xml.parse_service_us", "description.service_build_us", "directory.publish_us",
          "ariadne.wire_encode_us", "ariadne.residual_us_per_op"]


def ledger(raw):
    """Each stage's share of the CPU per operation (traced runs)."""
    metrics = raw["metrics"]
    total = metrics.get("net.daemon_cpu_us_per_op", {}).get("value", 0)
    if total <= 0 or "ariadne.residual_us_per_op" not in metrics:
        return
    print("   ledger: %.3f us CPU per operation" % total)
    for name in LEDGER:
        if name in metrics and metrics[name]["value"] != 0:
            print("   %-40s %10.3f us %6.1f%%" % (
                name, metrics[name]["value"], 100 * metrics[name]["value"] / total))
    match = sum(metrics.get(name, {}).get("value", 0) for name in (
        "description.request_build_us", "description.resolve_us", "directory.query_us"))
    print("   description.* + directory.query_us share: %.1f%%" % (100 * match / total))


def report(workload, raw, chosen, prov, trace):
    print("== %s  seed %d  trace %d  (%s, %s, %s, nproc %s)" % (
        workload, prov["seed"], trace, prov["source_digest"], prov["compiler"],
        prov["cpu_model"], prov["nproc"]))
    print("   attempted %d  failed %d  wrong answers %d" % (
        raw["attempted"], raw["failed"], raw["wrong_answers"]))
    for note in raw["notes"]:
        print("   note: %s" % note)
    for name, m in chosen.items():
        suffix = "  (not exercised by this workload)" if m.get("absent") else ""
        print("   %-40s %16.6g %-6s n=%d%s" % (name, m["value"], m["unit"], m["samples"], suffix))
    if trace:
        ledger(raw)
    extra = sorted(set(raw["metrics"]) - set(chosen))
    if extra:
        print("   also measured:")
        for name in extra:
            m = raw["metrics"][name]
            print("   %-40s %16.6g %-6s n=%d" % (name, m["value"], m["unit"], m["samples"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names + HELD_BACK for w in workloads):
        log("run.py: unknown workload %s (have: %s)" % (
            args.workload, ", ".join(names + HELD_BACK)))
        return 2
    daemon, runner = build()
    # The deadline starts after the build: a cold build may take minutes.
    deadline = time.monotonic() + RUN_DEADLINE_S * len(workloads)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    correct = True
    attempted = failed = 0
    combined = {}
    for workload in workloads:
        raw = None
        for attempt in range(ATTEMPTS):
            raw = run_once(runner, daemon, workload, args.seed, args.seconds, args.trace,
                             deadline)
            if raw is None:
                return 1
            if raw["valid"]:
                break
            log("run.py: %s attempt %d: the load generator fell behind its schedule"
                % (workload, attempt + 1))
            if time.monotonic() + 30 > deadline:
                break
        if not raw["valid"]:
            log("run.py: %s: no valid measurement; nothing reported" % workload)
            return 3
        prov = provenance(args.seed, workload)
        chosen = select(raw, metrics, args.trace == 1)
        report(workload, raw, chosen, prov, args.trace)
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
                workload, args.seed, args.trace)), "w") as f:
            json.dump({"provenance": prov, "result": raw}, f, indent=1)
        correct = correct and raw["wrong_answers"] == 0
        attempted += raw["attempted"]
        failed += raw["failed"]
        for name, m in chosen.items():
            key = name if len(workloads) == 1 else "%s.%s" % (workload, name)
            combined[key] = {"value": m["value"], "unit": m["unit"]}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
