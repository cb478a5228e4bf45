#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload spec_sweep --seed 1 --seconds 10 --trace 0

The first run builds the simulator libraries and the benchmark driver from
source into .bench_build/ (Release). The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.

    python3 perfbench/run.py --workload W --seed N --write-reference

records the digest of the simulated results of (W, N) in
perfbench/reference_digests.json; do that only for a change that is meant
to alter the simulated results. A run whose results differ from the
recorded digest counts every simulator run as failed.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "sds_perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_PATH = os.path.join(HERE, "reference_digests.json")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A run measures for --seconds and sets up and warms up around that; the
# whole invocation must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/; run from a checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(min(4, len(os.sched_getaffinity(0))))])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as e:
            fail("cannot run %s: %s" % (step[0], e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def check_metrics(spec, trace, metrics):
    """Self-check: the printed metrics are exactly the declared ones, each
    with a valid name, its declared unit and a finite value."""
    problems = []
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    for m in declared:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            problems.append("invalid metric name or unit: %r" % m)
    if set(metrics) != set(want):
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(want) - set(metrics)),
                                      sorted(set(metrics) - set(want))))
    for name, m in metrics.items():
        if name in want and m["unit"] != want[name]:
            problems.append("%s has unit %s, declared %s"
                            % (name, m["unit"], want[name]))
        value = m["value"]
        if not isinstance(value, (int, float)) or value != value or \
                abs(value) == float("inf"):
            problems.append("%s is not a finite number" % name)
    return problems


def load_references():
    if not os.path.isfile(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def run_driver(args, extra):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] \
        + extra
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark driver exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail("benchmark driver exited with code %d" % done.returncode)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    references = load_references()

    if args.write_reference:
        out = run_driver(args, ["--reference-only"])
        if out["failed"] or out["problems"]:
            fail("not recording a failing run: %s" % out["problems"])
        references.setdefault(args.workload, {})[str(args.seed)] = \
            out["digest"]
        with open(REFERENCE_PATH, "w") as f:
            json.dump(references, f, indent=1, sort_keys=True)
            f.write("\n")
        print("recorded digest %s of %s seed %d"
              % (out["digest"], args.workload, args.seed))
        return

    extra = []
    if args.trace:
        extra += ["--spans-out", os.path.join(
            BUILD_DIR, "spans-%s-%d.json" % (args.workload, args.seed))]
    out = run_driver(args, extra)

    problems = out["problems"] + check_metrics(spec, args.trace,
                                               out["metrics"])
    attempted, failed = out["attempted"], out["failed"]
    reference = references.get(args.workload, {}).get(str(args.seed))
    if reference is None:
        print("reference digest: none recorded for seed %d; runs checked "
              "against the warm-up pass only" % args.seed)
    elif reference != out["digest"]:
        problems.append("simulated results differ from the recorded "
                        "reference %s (got %s)" % (reference, out["digest"]))
        failed = attempted
    for p in problems:
        print("problem: " + p)
    print("metric %-40s %.6g ratio (failed / attempted = %d / %d)"
          % ("failed_frac", failed / max(1, attempted), failed, attempted))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": out["metrics"]}))


if __name__ == "__main__":
    main()
