#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload daq|service|analysis --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The first call builds the program's layer
libraries and the benchmark binary from source into .bench_build/ (about
30 s on 4 cores); later calls only re-check the build.  The benchmark's
last stdout line is one JSON object with the metrics; traced runs also
write a Chrome trace-event file under .bench_build/traces/.

--smoke runs every workload for about a second, traced and untraced, and
once more with a tampered reference output, which must fail its check.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "cmake"
BINARY = BUILD / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ("daq", "service", "analysis")
RUN_TIMEOUT_S = 170  # one run must end well inside three minutes


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no program sources under {ROOT}: nothing to benchmark")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log})")


def run(args, capture=False):
    """Run the benchmark binary; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s and was killed",
              file=sys.stderr)
        return 3, None
    return proc.returncode, proc.stdout


def smoke():
    cases = []
    for w in WORKLOADS:
        cases.append((w, ["--trace", "0"], True))
        cases.append((w, ["--trace", "1"], True))
        cases.append((w, ["--trace", "0", "--tamper"], False))
    ok = True
    for workload, extra, expect_pass in cases:
        args = ["--workload", workload, "--seed", "1", "--seconds", "1"] + extra
        code, out = run(args, capture=True)
        last = out.strip().splitlines()[-1] if out and out.strip() else ""
        try:
            correct = json.loads(last).get("correct") is True
        except ValueError:
            correct = False
        passed = (code == 0 and correct) if expect_pass else (code == 1 and not correct)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}: {' '.join(args)} -> exit {code}",
              flush=True)
    print("smoke: " + ("all passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()
    if not opts.smoke and opts.workload is None:
        parser.error("--workload is required (or --smoke)")

    build()
    if opts.smoke:
        return smoke()

    args = ["--workload", opts.workload, "--trace", opts.trace]
    if opts.seed is not None:
        args += ["--seed", str(opts.seed)]
    if opts.seconds is not None:
        args += ["--seconds", repr(opts.seconds)]
    if opts.trace == "1":
        TRACES.mkdir(parents=True, exist_ok=True)
        seed = "default" if opts.seed is None else str(opts.seed)
        args += ["--trace-out", str(TRACES / f"{opts.workload}-seed{seed}.json")]
    code, _ = run(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
