#!/usr/bin/env python3
"""Harness self-test: runs every workload at --quick size and checks it.

    python3 selftest.py path/to/ligra_suite path/to/BENCHMARK.json

For each workload in BENCHMARK.json a traced quick run must exit 0 with
correct answers and no failed op, print exactly the per-layer metrics with
their units on its last line, and record every end-to-end metric with a
non-zero value. One untraced run must print exactly the end-to-end metrics.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

RUN_TIMEOUT_S = 60


def run(binary, workload, trace, tmp):
    out = os.path.join(tmp, "%s.%s.json" % (workload, trace))
    p = subprocess.run([binary, "--workload", workload, "--quick",
                        "--trace", trace, "--seed", "3", "--out", out,
                        "--tmp", os.path.join(tmp, "work")],
                       capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        raise AssertionError("%s --trace %s exited %d: %s" %
                             (workload, trace, p.returncode, p.stderr[-2000:]))
    line = json.loads(p.stdout.strip().splitlines()[-1])
    with open(out) as f:
        return line, json.load(f)["workloads"][workload]


def check_line(line, defs, workload):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["correct"] is True, (workload, line)
    assert line["failed"] == 0 and line["attempted"] >= 1, (workload, line)
    want = {d["name"]: d["unit"] for d in defs}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == want, (workload, set(got) ^ set(want))


def main():
    binary, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    start = time.time()
    tmp = tempfile.mkdtemp(prefix="suite_selftest.", dir=os.getcwd())
    try:
        for w in bench["workloads"]:
            name = w["name"]
            line, full = run(binary, name, "1", tmp)
            check_line(line, bench["per_layer"], name)
            metrics = full["runs"][0]["metrics"]
            for m in bench["end_to_end"]:
                assert metrics.get(m["name"], 0) > 0, (name, m["name"])
                assert full["summary"][m["name"]]["unit"] == m["unit"]
            print("ok %-15s %5.1f s" % (name, time.time() - start))
        name = bench["workloads"][0]["name"]
        line, _ = run(binary, name, "0", tmp)
        check_line(line, bench["end_to_end"], name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed in %.1f s" % (time.time() - start))


if __name__ == "__main__":
    main()
