#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

It checks three things and exits 1 if any fails:

1. the metric names and units the runs print match BENCHMARK.json;
2. two traced runs on one seed give identical exact counts;
3. the zero/non-zero predictions of the interaction map hold: no operator
   products on ``blowup``/``pathwalk`` and some on ``relsuite``/``modular``;
   ``moddouble`` work only on ``modular``; CLI rendering only where items
   are CLI commands.

Each workload runs once untraced and twice traced, on seed ``SEED`` for
``SECONDS`` seconds each, about two minutes in all.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import END_TO_END  # noqa: E402
from spans import PER_LAYER, TIMED_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SECONDS = 1

# metric (or prefix ending in ".") -> workloads where it must be non-zero;
# it must be zero on every other workload.
NONZERO_ON = {
    "qtorus.mul.calls": {"relsuite", "modular"},
    "moddouble.": {"modular"},
    "cli.render.bytes": {"relsuite", "blowup"},
    "transport.braid.moves": {"blowup", "pathwalk", "relsuite", "modular"},
}


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    def expect(cond: bool, message: str) -> None:
        print(("ok    " if cond else "FAIL  ") + message)
        if not cond:
            problems.append(message)

    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared_e2e == END_TO_END, "run.END_TO_END matches BENCHMARK.json end_to_end")
    expect(declared_layer == PER_LAYER, "spans.PER_LAYER matches BENCHMARK.json per_layer")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "workload names match BENCHMARK.json")

    for workload in WORKLOADS:
        plain = run_bench(workload, SEED, SECONDS, 0)
        expect(plain["correct"] and plain["failed"] == 0,
               f"{workload}: untraced run correct, {plain['attempted']} items")
        printed = {k: v["unit"] for k, v in plain["metrics"].items()}
        expect(printed == declared_e2e, f"{workload}: printed end-to-end metrics and units")

        first, second = (run_bench(workload, SEED, SECONDS, 1) for _ in range(2))
        for res in (first, second):
            expect(res["correct"], f"{workload}: traced run correct")
        printed = {k: v["unit"] for k, v in first["metrics"].items()}
        expect(printed == declared_layer, f"{workload}: printed per-layer metrics and units")
        exact = [k for k, unit in PER_LAYER.items() if unit not in TIMED_UNITS]
        differ = [k for k in exact
                  if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        expect(not differ, f"{workload}: {len(exact)} exact counts repeat across traced runs"
               + (f" (differ: {differ})" if differ else ""))

        values = {k: v["value"] for k, v in first["metrics"].items()}
        for key, where in NONZERO_ON.items():
            names = [k for k in values if k == key or (key.endswith(".") and k.startswith(key))]
            if workload in where:
                ok = all(values[k] > 0 for k in names if k.endswith(".calls")) and any(
                    values[k] > 0 for k in names)
                expect(ok, f"{workload}: {key}* non-zero")
            else:
                expect(all(values[k] == 0 for k in names), f"{workload}: {key}* zero")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
