#!/usr/bin/env python3
"""Build and run the vor end-to-end benchmark.

    python3 e2ebench/run.py --workload tight_day --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1          # every workload

Run from the root of a checkout.  The first run configures and builds
e2ebench/ (the vor library plus one driver binary) into the directory
named by $CARGO_TARGET_DIR, default .bench_build; later runs rebuild
incrementally.  Build output goes to stderr, so the last stdout line of a
single-workload run is its JSON result.  --record FILE appends each
result, tagged with workload, seed and trace mode, to a JSON-lines file
that e2ebench/compare.py reads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["tight_day", "snapshot_day"]
RUN_TIMEOUT_S = 175


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(out):
    """Configures (once) and builds; returns the binary path or None."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "e2ebench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    binary = out / "e2ebench"
    return binary if binary.exists() else None


def run_one(binary, out, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result, stdout lines)."""
    scratch = out / "scratch-{}-{}".format(os.getpid(), workload)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("run.py: {} timed out".format(workload), file=sys.stderr)
        return 1, None, []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append results to this JSON-lines file")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        code, result, lines = run_one(binary, out, name, args.seed,
                                      args.seconds, args.trace)
        if code != 0 or result is None:
            print("run.py: {} failed (exit {})".format(name, code),
                  file=sys.stderr)
            return code or 1
        if args.record:
            with open(args.record, "a") as f:
                f.write(json.dumps({"workload": name, "seed": args.seed,
                                    "trace": args.trace,
                                    "result": result}) + "\n")
        if args.workload == "all":
            print("== {}".format(name))
            print("\n".join(lines[:-1]))
        else:
            print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
