#!/usr/bin/env python3
"""Checks the benchmark's correctness gate end to end.

    gate_test.py PATH_TO_micco_perfbench

Runs batch-belady at the default seed: untraced and traced against the
real expected.json (must pass, and must print exactly the end-to-end and
per-layer metrics BENCHMARK.json lists, with the same units), then against
a copy with one golden value off by one (must fail), and against a copy
whose value is not a number (must fail). A failing run still prints its
result line, with "correct": false.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(os.path.dirname(HERE), "expected.json")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")


def run(binary, expected_path, work_dir, trace=0):
    proc = subprocess.run(
        [binary, "--workload", "batch-belady", "--seed", "3", "--seconds",
         "0.5", "--trace", str(trace), "--expected", expected_path,
         "--work-dir", work_dir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result, proc.stderr


def main():
    binary = sys.argv[1]
    with open(EXPECTED) as f:
        golden = json.load(f)
    with open(BENCHMARK) as f:
        benchmark = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, err = run(binary, EXPECTED, work, trace)
            if rc != 0 or not result["correct"] or result["failed"] != 0:
                failures.append(
                    f"real expected values rejected (trace {trace}): "
                    f"rc={rc} {err}")
            want = {m["name"]: m["unit"] for m in benchmark[listed]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                failures.append(
                    f"trace {trace} metrics differ from BENCHMARK.json "
                    f"{listed}: printed only {sorted(got.items() - want.items())}, "
                    f"listed only {sorted(want.items() - got.items())}")

        for label, value in (("off by one",
                              golden["batch-belady"]["evictions"] + 1),
                             ("not a number", "9982")):
            corrupted = json.loads(json.dumps(golden))
            corrupted["batch-belady"]["evictions"] = value
            path = os.path.join(work, "corrupted.json")
            with open(path, "w") as f:
                json.dump(corrupted, f)
            rc, result, err = run(binary, path, work)
            if rc == 0 or result["correct"]:
                failures.append(f"{label} expected value accepted: rc={rc}")
            elif "evictions" not in err:
                failures.append(f"{label}: failure does not name the value")
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
