#!/usr/bin/env python3
"""Builds and runs one perfbench workload, then prints its result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign_local --seed 1 \
        --seconds 20 --trace 0

The benchmark binary is built from source with CMake into
$CARGO_TARGET_DIR/perfbench-<hash of the source root path> ($CARGO_TARGET_DIR
defaults to .bench_build).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: every
end_to_end metric of BENCHMARK.json with --trace 0, every per_layer metric
with --trace 1.  A traced run also writes a Chrome trace-event file under
the build directory.

Per-layer counts listed by the binary as canaries must repeat exactly for
the same workload, seed and duration on the same source tree; the first run
records them under the build directory, keyed by a hash of the sources, and
every later run of that tree compares against that record.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign_local", "sweep_refine", "sweep_plain", "service_mix")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_digest(build_dir):
    """Hash of every file the benchmark binary is built from."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, names in os.walk(top):
            subdirs[:] = sorted(name for name in subdirs
                                if os.path.join(directory, name) != build_dir)
            files += [os.path.join(directory, name) for name in sorted(names)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as source:
            digest.update(hashlib.sha256(source.read()).digest())
    return digest.hexdigest()[:16]


def build(build_dir):
    """Configures and builds incrementally; returns the binary path.

    The binary directory is keyed by the source root, so checkouts sharing
    one build directory never build each other's sources, and configuring
    on every run picks up a moved or changed tree.
    """
    root_key = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    binary_dir = os.path.join(build_dir, f"perfbench-{root_key}")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", binary_dir, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(binary_dir, "perfbench")


def check_canaries(build_dir, args, canaries):
    """Returns the names of canaries that differ from the recorded ones."""
    directory = os.path.join(build_dir, "canaries", source_digest(build_dir))
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"{args.workload}-{args.seed}-{args.seconds}.json")
    if not os.path.exists(path):
        temporary = path + f".{os.getpid()}"
        with open(temporary, "w") as out:
            json.dump(canaries, out, sort_keys=True)
        os.replace(temporary, path)
        return []
    with open(path) as recorded_file:
        recorded = json.load(recorded_file)
    return sorted(name for name in set(recorded) | set(canaries)
                  if recorded.get(name) != canaries.get(name))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file",
                    os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=build_dir)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S}s")
        return 1
    if done.returncode != 0:
        log(f"{args.workload} exited with {done.returncode}")
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"{args.workload} printed no result")
        return 1
    raw = json.loads(lines[-1])

    correct = raw["correct"]
    failed = raw["failed"]
    for line in raw["notes"]:
        print(line)
    for line in raw["failures"]:
        print(f"FAILED: {line}")
    drifted = check_canaries(build_dir, args, raw["canaries"])
    for name in drifted:
        print(f"FAILED: canary {name} differs from the recorded run")
    if drifted:
        correct = False
        failed += len(drifted)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        measured = raw["metrics"].get(name)
        if measured is None:
            if not args.trace:
                log(f"{args.workload} did not report {name}")
                return 1
            # A layer the workload does not use did no work in this run.
            measured = {"value": 0, "unit": unit}
        if measured["unit"] != unit:
            log(f"{name}: unit {measured['unit']} != {unit}")
            return 1
        metrics[name] = {"value": measured["value"], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
