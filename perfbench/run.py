#!/usr/bin/env python3
"""Builds and runs the lvf2 end-to-end benchmark.

    python3 perfbench/run.py --workload library|path|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (and the libraries it links) as a Release CMake package under
.bench_build/perfbench; later calls rebuild incrementally. The program
runs with every LVF2_* switch removed from its environment and the
thread budget pinned to the host's core count. Its last stdout line is
checked against BENCHMARK.json before it is passed on.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the lvf2 sources (src/) are not in " + ROOT)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build of " + target + " failed")
    return os.path.join(BUILD, target)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("LVF2_")}
    env["LVF2_THREADS"] = str(os.cpu_count() or 1)
    return env


def check_result(line, trace):
    """Returns an error string, or None when the line meets the schema."""
    try:
        doc = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(doc, dict) or list(doc) != [
            "correct", "attempted", "failed", "metrics"]:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(doc["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or doc[key] < 0:
            return key + " is not a whole number"
    if doc["attempted"] < 1:
        return "attempted is below 1"
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = doc["metrics"]
    if set(got) != set(wanted):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted)))
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != wanted[name]:
            return "metric %s has a bad shape or unit" % name
        if not isinstance(m["value"], (int, float)):
            return "metric %s is not a number" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["library", "path", "serve"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=ROOT, env=clean_env())
                 .returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("lvf2_perfbench")
    work_dir = os.path.join(".bench_build", "run", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("the benchmark exited with code %d" % proc.returncode, 1)
    for line in lines[:-1]:
        print(line)
    error = check_result(lines[-1], args.trace == 1)
    if error:
        fail(error + ": " + lines[-1][:400], 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
