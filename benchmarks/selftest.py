"""Self-test of the benchmark at its smallest size (one iteration per run).

Run from the root of a qcbnn checkout::

    python3 benchmarks/selftest.py

It runs every workload with ``--seconds 1`` untraced and traced and
checks that

* the printed metric names and units equal those in BENCHMARK.json,
  and every run is correct with no failed operation;
* train-baselines never reaches the circuit simulator
  (``statevector.rows == 0``, ``samplers.jacobian.calls == 0``);
* train-quantum-depth runs two sampler forwards per noise block drawn
  in ``train_step`` (``samplers.forward.useful_ratio == 0.5``).  A change
  that drops the duplicate forward moves this to 1.0 and must update
  the expected value here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

EXPECTED_USEFUL_RATIO = 0.5


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run(workload, trace)
            tag = f"{workload} trace {trace}"
            known = len(problems)
            expected = {m["name"]: m["unit"] for m in bench[key]}
            printed = {}
            for line in lines:
                if line.startswith("metric "):
                    name, rest = line[len("metric "):].split(" = ")
                    printed[name] = rest.split()[-1]
            if printed != expected:
                problems.append(f"{tag}: printed metrics {printed} != BENCHMARK.json {expected}")
            reported = {n: m["unit"] for n, m in result["metrics"].items()}
            if reported != expected:
                problems.append(f"{tag}: JSON metrics {reported} != BENCHMARK.json {expected}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} ops failed")
            values = {n: m["value"] for n, m in result["metrics"].items()}
            if trace and workload == "train-baselines":
                for name in ("statevector.rows", "samplers.jacobian.calls"):
                    if values.get(name) != 0:
                        problems.append(f"{tag}: {name} = {values.get(name)}, want 0")
            if trace and workload == "train-quantum-depth":
                ratio = values.get("samplers.forward.useful_ratio")
                if ratio != EXPECTED_USEFUL_RATIO:
                    problems.append(f"{tag}: useful_ratio = {ratio}, "
                                    f"want {EXPECTED_USEFUL_RATIO}")
            print(f"{tag}: {'ok' if len(problems) == known else 'FAIL'}")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
