#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs the smoke-sized form of every workload through run.py, dark and
traced, and checks that:
  * the last stdout line is exactly {correct, attempted, failed, metrics},
    carrying BENCHMARK.json's end_to_end metrics (--trace 0) or per_layer
    metrics (--trace 1), each with its declared unit and a finite value;
  * every gate passes and the traced sim_digest equals the dark one;
  * sim_lat_p999_us is printed only when at least 10 samples lie beyond it;
  * a planted lost I/O fails the run: non-zero exit and "correct": false.
Exits 1 if any check fails.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return p.returncode, p.stdout, result, p.stderr


def check_result(tag, result, declared):
    check(isinstance(result, dict) and
          set(result) == {"correct", "attempted", "failed", "metrics"},
          tag + ": result keys")
    if not isinstance(result, dict) or "metrics" not in result:
        return
    check(result["correct"] is True, tag + ": correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          tag + ": attempted")
    check(result["failed"] == 0, tag + ": failed == 0")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, tag + ": metric names/units differ from BENCHMARK.json")
    for k, v in result["metrics"].items():
        val = v.get("value")
        check(isinstance(val, (int, float)) and math.isfinite(val),
              tag + ": %s is not a finite number" % k)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s trace=%d" % (name, trace)
            code, out, result, err = run(name, trace)
            check(code == 0, tag + ": exit %d: %s" % (code, err.strip()[-300:]))
            check_result(tag, result, spec[key])
            m = re.search(r"^sim_digest = (\w+)$", out, re.M)
            digests[trace] = m.group(1) if m else None
            if trace == 0:
                n = re.search(r"^sim_lat_p99_us = \S+ us \(n=(\d+)\)$", out,
                              re.M)
                check(n is not None, tag + ": p99 sample count printed")
                if n:
                    shown = re.search(r"^sim_lat_p999_us = ", out, re.M)
                    enough = int(n.group(1)) * 0.001 >= 10
                    check(bool(shown) == enough,
                          tag + ": p999 shown iff >= 10 samples beyond it")
        check(digests[0] is not None and digests[0] == digests[1],
              name + ": traced sim_digest equals dark")
        code, out, result, err = run(name, 0, "--plant-lost-io")
        check(code != 0 and result is not None and
              result.get("correct") is False and "lost I/O" in err,
              name + ": planted lost I/O fails the run")
    print("selftest: %s" % ("ok" if not failures else
                             "%d check(s) failed" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
