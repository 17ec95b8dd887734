#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Builds the harness (as run.py does), then checks:
  * BENCHMARK.json follows the benchmark contract's shape (keys, name and
    unit spelling, bounds, a setup_s metric);
  * every output check fires when fed a deliberately corrupted result
    (`perfbench --selftest`);
  * each workload, run at a tiny size with and without tracing, prints a
    last line of JSON naming exactly the BENCHMARK.json metrics, each with
    the unit BENCHMARK.json gives it.
Exits 0 when everything holds.
"""

import json
import os
import re
import subprocess
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
METRIC_KEYS = {"name", "unit", "better", "bound"}
LAYER_KEYS = {"name", "unit", "better"}


def check_manifest(manifest, problems):
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(manifest) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(manifest)}")
    names = []
    for workload in manifest["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200:
            problems.append(f"workload entry {workload}")
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        if set(metric) != METRIC_KEYS or not 0 < metric["bound"] <= 0.25:
            problems.append(f"end_to_end entry {metric}")
        names.append(metric["name"])
    for metric in manifest["per_layer"]:
        if set(metric) != LAYER_KEYS:
            problems.append(f"per_layer entry {metric}")
        names.append(metric["name"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        if not UNIT.match(metric["unit"]):
            problems.append(f"unit {metric['unit']!r} of {metric['name']}")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"better of {metric['name']}")
    for name in names:
        if not NAME.match(name):
            problems.append(f"name {name!r} does not match [A-Za-z0-9_.-]+")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, lower) is missing")
    elif setup[0]["bound"] < max(m["bound"] for m in manifest["end_to_end"]):
        problems.append("setup_s does not have the largest bound")


def check_run(workload, trace, metrics, problems):
    command = [run.BINARY, "--workload", workload, "--seed", "3",
               "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=170)
    label = f"{workload} --trace {trace}"
    if result.returncode != 0:
        problems.append(f"{label}: exit code {result.returncode}")
        return
    last = json.loads(result.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(last)}")
        return
    if not isinstance(last["attempted"], int) or last["attempted"] < 1:
        problems.append(f"{label}: attempted {last['attempted']}")
    if last["correct"] != (last["failed"] == 0):
        problems.append(f"{label}: correct disagrees with failed")
    expected = {m["name"]: m["unit"] for m in metrics}
    printed = last["metrics"]
    if set(printed) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(printed) ^ set(expected))}")
    for name, entry in printed.items():
        if not NAME.match(name):
            problems.append(f"{label}: bad metric name {name!r}")
        if entry.get("unit") != expected.get(name):
            problems.append(f"{label}: {name} has unit {entry.get('unit')!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    print(f"selftest {label}: {len(printed)} metrics, "
          f"attempted {last['attempted']}, failed {last['failed']}")


def main():
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    check_manifest(manifest, problems)
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    if subprocess.run([run.BINARY, "--selftest"], timeout=170).returncode:
        problems.append("an output check did not fire on a corrupted result")
    for workload in manifest["workloads"]:
        check_run(workload["name"], 0, manifest["end_to_end"], problems)
        check_run(workload["name"], 1, manifest["per_layer"], problems)
    for problem in problems:
        print(f"selftest FAILED: {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
