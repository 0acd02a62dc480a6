#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload rack_fio|fleet_open|ec_repair \
        --seed N --seconds S --trace 0|1 [--smoke] [--plant-lost-io]

Run from the repository root. The first call configures and builds the
`perfbench` package (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/ as a Release build; later calls only rebuild what changed.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. Exits non-zero without a result when the build fails, e.g.
when the simulator sources are absent.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A configure that failed leaves a cache but no build files behind.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["rack_fio", "fleet_open", "ec_repair"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--plant-lost-io", action="store_true")
    args = ap.parse_args()
    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.plant_lost_io:
        cmd.append("--plant-lost-io")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
