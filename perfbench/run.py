#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload census_query --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test          # build, then run the benchmark's own tests

The first call configures and builds perfbench/ (which builds the maywsd
libraries from this checkout) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when unset; later calls rebuild incrementally. The benchmark
binary runs the workload, checks its answers and prints every metric it
measured; this script keeps the ones BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1), adds provenance, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics. A per-layer metric of a layer the workload bypasses
reads 0. The exit status is 0 only when every answer check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_tree_ok():
    return all(
        os.path.isfile(os.path.join(ROOT, p))
        for p in ("CMakeLists.txt", "BENCHMARK.json", "src/api/session.h"))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns the build directory."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr, timeout=1200)
    return out


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def source_digest():
    """sha256 over the program's sources and build files, in path order."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            paths += [os.path.join(dirpath, f) for f in filenames]
    for p in sorted(paths):
        if p.endswith((".pyc",)):
            continue
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def select_metrics(spec, measured, trace):
    """The declared metrics of this mode, in declaration order."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - known)
    if unknown:
        raise ValueError("undeclared metrics: " + ", ".join(unknown))
    out, bypassed = {}, []
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise ValueError("end-to-end metric missing: " + m["name"])
            bypassed.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError("unit of %s is %s, declared %s" %
                             (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out, bypassed


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if not args.test and None in (args.workload, args.seed, args.seconds,
                                  args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not source_tree_ok():
        log("perfbench: no maywsd source tree around " + HERE)
        return 2

    out = build()
    if args.test:
        return subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure"],
                              stdout=sys.stderr, timeout=900).returncode

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("perfbench: unknown workload " + args.workload)
        return 2

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        text = proc.communicate(timeout=args.seconds + 150)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    lines = text.strip().splitlines()
    if len(lines) < 2:
        log("perfbench: the workload printed no result (exit %d)" %
            proc.returncode)
        return proc.returncode or 1
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    metrics, bypassed = select_metrics(spec, result["metrics"],
                                       bool(args.trace))
    provenance["git_sha"] = git_sha()
    provenance["source_digest"] = source_digest()
    provenance["bypassed_layers_reading_0"] = bypassed
    ok = result["correct"] and proc.returncode == 0
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": ok,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
