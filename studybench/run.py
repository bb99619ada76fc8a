#!/usr/bin/env python3
"""Study benchmark: runs one workload of the full Study pipeline.

Run from the repository root:

  python3 studybench/run.py --workload scan_clean --seed 42 --seconds 35 \
      --trace 0

It builds studybench/study_bench into .bench_build (the first run
compiles the libraries it links), then measures for --seconds seconds:

  --trace 0  untraced study processes one after another until the time is
             up; prints the end-to-end metrics of BENCHMARK.json as medians
             over the processes (setup_s is each fresh process's one setup).
  --trace 1  pairs of one untraced and one traced study process (in
             alternating order) until the time is up; prints the per-layer
             metrics as medians over pairs.

Every study process is one operation. It fails when a conservation identity breaks, its
report digest differs from the pinned reference (at the pinned seed) or
from the other studies of this invocation (at any seed), its exact counts
differ from the other studies', or it exceeds STUDY_LIMIT_S. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

  python3 studybench/run.py --pin

re-pins studybench/reference.json: every workload at its scenario seed,
with scan-threads 1 and 4, which must agree.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import benchlib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS_DIR = os.path.join(BENCH_DIR, "workloads")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
# The end-to-end metrics, as each study process reports them.
END_TO_END = ("setup_s", "study_s", "cpu_s", "peak_rss_mb")

# The first run in a checkout builds; every run then measures within
# RUN_LIMIT_S, each study process within STUDY_LIMIT_S.
BUILD_LIMIT_S = 700
RUN_LIMIT_S = 170
STUDY_LIMIT_S = 60


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError(f"no CMakeLists.txt in {ROOT}: nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "study_bench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_LIMIT_S
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, capture_output=True,
                                  text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"build exceeded {BUILD_LIMIT_S} s")
        if done.returncode != 0:
            log(done.stdout[-4000:] + done.stderr[-4000:])
            raise BenchError(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD_DIR, "study_bench")


def run_harness(binary, scenario, mode, seed, workdir, extra=(),
                deadline=None):
    """Runs one study process; returns (record, reports bytes, error)."""
    limit = STUDY_LIMIT_S
    if deadline is not None:
        limit = min(limit, deadline - time.monotonic())
        if limit <= 0:
            return None, b"", f"not started: past the {RUN_LIMIT_S} s limit"
    reports = os.path.join(workdir, "reports.txt")
    command = [binary, "--scenario", scenario, "--mode", mode,
               "--reports", reports, *extra]
    if seed is not None:
        command += ["--seed", str(seed)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return None, b"", f"exceeded the {limit:.0f} s limit"
    if done.returncode != 0:
        return None, b"", (f"exit code {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    try:
        record = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, b"", "no JSON result"
    with open(reports, "rb") as handle:
        return record, handle.read(), None


def read_first(path, prefix):
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(BENCH_DIR)):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            paths += [os.path.join(directory, f) for f in sorted(files)]
    data = b""
    for path in paths:
        with open(path, "rb") as handle:
            data += os.path.relpath(path, ROOT).encode() + b"\0"
            data += handle.read()
    return hashlib.sha256(data).hexdigest()[:16]


def git_revision():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def host_stamp(workload, seed, record):
    ram_kb = read_first("/proc/meminfo", "MemTotal").split()[0]
    ram = f"{int(ram_kb) / 2**20:.1f}GiB" if ram_kb.isdigit() else "unknown"
    fields = {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": read_first("/proc/cpuinfo", "model name"),
        "ram": ram,
        "build": record.get("build_type", "unknown") if record else "unknown",
        "compiler": record.get("compiler", "unknown") if record else "unknown",
        "git": git_revision(),
        "source": source_digest(),
    }
    return "host " + " ".join(f"{k}={json.dumps(v)}" for k, v in fields.items())


def run_loop(start, seconds, step):
    """Calls step() until `seconds` have passed since `start`, at least once.

    Another call starts only while it is expected to end less than half a
    call past `seconds`, so a run lasts about `seconds` whatever the length
    of one call.
    """
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / calls / 2 >= seconds:
            return


def measure_untraced(binary, scenario, seed, seconds, workdir, checker):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    records = []

    def step():
        record, reports, error = run_harness(binary, scenario, "study", seed,
                                             workdir, deadline=deadline)
        checker.check(f"study {len(records) + 1}", record, reports, error)
        if record is not None:
            records.append(record)
            print(f"study {len(records)}: setup_s={record['setup_s']:.4f} "
                  f"study_s={record['study_s']:.3f} "
                  f"cpu_s={record['cpu_s']:.3f} "
                  f"peak_rss_mb={record['peak_rss_mb']:.1f}")

    run_loop(start, seconds, step)
    if not records:
        return None, records
    return {name: statistics.median(r[name] for r in records)
            for name in END_TO_END}, records


def measure_traced(binary, scenario, seed, seconds, workdir, checker):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    pairs = []
    records = []
    number = 0

    def step():
        nonlocal number
        number += 1
        # Alternate which side of a pair runs first so order effects cancel.
        modes = ("study", "traced") if number % 2 else ("traced", "study")
        runs = {}
        for mode in modes:
            record, reports, error = run_harness(binary, scenario, mode, seed,
                                                 workdir, deadline=deadline)
            checker.check(f"pair {number} {mode}", record, reports, error)
            runs[mode] = record
        untraced, traced = runs["study"], runs["traced"]
        if untraced is not None and traced is not None:
            pairs.append(benchlib.layer_metrics(traced, untraced))
            records.append(traced)
            print(f"pair {number}: untraced study_s={untraced['study_s']:.3f} "
                  f"traced study_s={traced['study_s']:.3f}")

    run_loop(start, seconds, step)
    if not pairs:
        return None, records
    return {name: statistics.median(p[name] for p in pairs)
            for name in pairs[0]}, records


def load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def pinned_reference(workload, seed):
    try:
        with open(REFERENCE_PATH) as handle:
            pin = json.load(handle).get(workload)
    except OSError:
        return None
    return pin["sha256"] if pin and pin["seed"] == seed else None


def measure(args):
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
    scenario = os.path.join(WORKLOADS_DIR, args.workload + ".ofh")
    binary = build()
    checker = benchlib.Checker(pinned_reference(args.workload, args.seed))
    os.makedirs(BUILD_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    try:
        measure_fn = measure_traced if args.trace else measure_untraced
        values, records = measure_fn(binary, scenario, args.seed,
                                     args.seconds, workdir, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(host_stamp(args.workload, args.seed,
                     records[0] if records else None))
    if checker.counts is not None:
        print("counts " + json.dumps(checker.counts))
    print(f"digest {checker.digest}")
    for failure in checker.failures:
        print("FAILED " + failure)
    if values is None:
        raise BenchError("no study produced measurements")

    metrics = {}
    for metric in definition["per_layer" if args.trace else "end_to_end"]:
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))


def pin():
    binary = build()
    os.makedirs(BUILD_DIR, exist_ok=True)
    reference = {}
    for workload in sorted(w["name"] for w in load_definition()["workloads"]):
        scenario = os.path.join(WORKLOADS_DIR, workload + ".ofh")
        checker = benchlib.Checker(None)
        seed = None
        workdir = tempfile.mkdtemp(prefix="pin-", dir=BUILD_DIR)
        try:
            for threads in (1, 4):
                record, reports, error = run_harness(
                    binary, scenario, "study", None, workdir,
                    ("--threads", str(threads)))
                checker.check(f"{workload} threads={threads}", record,
                              reports, error)
                seed = record["seed"] if record else seed
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if checker.failures:
            raise BenchError("; ".join(checker.failures))
        reference[workload] = {"seed": seed, "sha256": checker.digest}
        log(f"{workload}: seed {seed} sha256 {checker.digest}")
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        pin() if args.pin else measure(args)
    except BenchError as error:
        log(f"study benchmark: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
