#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <wide|deep|service>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build lives in .bench_build/perfbench;
the first run configures and builds it (the library through the
repository's own CMakeLists.txt), later runs rebuild only what changed.
The benchmark binary's output is passed through; its last stdout line is
the result object, checked here against BENCHMARK.json's metric lists.
Exits nonzero, without a result, when the repository sources are missing
or the build fails, and nonzero when any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("wide", "deep", "service")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run([os.path.join(BUILD_DIR, "perfbench_stats_test")],
                   stdout=sys.stderr, check=True, timeout=60)


def git_sha():
    # Only a checkout with its own .git: git would otherwise search the
    # parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "none"


def source_digest():
    """sha256 over the library sources and build file, so a result names
    the code it measured even where there is no git history."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        paths.extend(os.path.join(base, name) for name in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_result(line, trace):
    """The result must carry exactly BENCHMARK.json's metrics for this mode.
    A traced run reports only the layers its workload exercises; the others
    are added here reading 0."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if trace else "end_to_end"]
    if trace:
        for metric in declared:
            if metric["name"] not in result["metrics"]:
                result["metrics"][metric["name"]] = {"value": 0, "unit": metric["unit"]}
                print(f"metric {metric['name']:<32} {0:>16} {metric['unit']:<6} "
                      "(not exercised on this workload)")
    expected = {metric["name"]: metric["unit"] for metric in declared}
    reported = {name: value["unit"] for name, value in result["metrics"].items()}
    if reported != expected:
        missing = sorted(set(expected) - set(reported))
        extra = sorted(set(reported) - set(expected))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}, or units differ")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no repository sources next to {BENCH_DIR}; nothing to build")
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        log(f"build failed: {error}")
        return 2

    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as process:
        try:
            stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            log(f"timed out after {RUN_TIMEOUT_S} s")
            return 3
    lines = stdout.rstrip("\n").splitlines()
    if not lines:
        log(f"no output (exit code {process.returncode})")
        return process.returncode or 3
    for line in lines[:-1]:
        print(line)
    try:
        result = check_result(lines[-1], args.trace == "1")
    except (ValueError, KeyError, json.JSONDecodeError) as error:
        log(f"malformed result: {error}")
        print(lines[-1], file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())
