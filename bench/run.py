#!/usr/bin/env python3
"""The posrep benchmark: one workload per run, timed end to end or traced.

    python3 bench/run.py --workload relsuite --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run repeats rounds of its workload (see ``workloads.py``) back to back in a
closed loop with one client, for ``--seconds`` seconds; a round starts only
while the slowest round so far still fits, and at least one always runs.
Each job of a round runs in a fresh interpreter (``--worker``), so every
round starts with cold caches.  Round ``r`` draws the seeds of its random
walks from ``random.Random(seed)`` after rounds ``0 .. r-1``; the workers
generate the words from them during their set-up.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reruns round 0
in pairs, once untraced and once with per-layer spans, and reports the
per-layer metrics.  While a worker sets up and while an untraced item runs,
it times a fixed reference product every ``PROBE_PERIOD_S`` seconds
(``HostProbe``), takes that time out and scales the rest to a host of fixed
speed: ``setup_s`` and ``wall_ref_s`` are such times, and the program's own
set-up, ``wall_s`` and ``cpu_s`` are printed beside them.  Every item is checked exactly; the last
line of standard output is the JSON result.  Per-run records go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import (PER_LAYER, TIMED_UNITS, Recorder, install, layer_metrics, layer_sums,
                   merge_sums)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DEADLINE_S = 165.0  # a run must end within 180 s, workers included

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "peak_rss_mb": "MB",
}

# The host's speed is read by timing ``reference_product`` every PROBE_PERIOD_S
# seconds while a worker sets up or runs an item.  A stretch of time during
# which the product took c seconds counts as REFERENCE_S / c times its length:
# its length on a host where the product takes REFERENCE_S.
PROBE_PERIOD_S = 0.04
REFERENCE_S = 0.001


def _laurent(rng: random.Random, terms: int) -> dict[tuple, int]:
    return {(rng.randrange(-9, 9), rng.randrange(-9, 9), rng.randrange(-3, 3)): rng.randrange(1, 50)
            for _ in range(terms)}


_rng = random.Random(1)
_FACTORS = (_laurent(_rng, 20), _laurent(_rng, 20))


def reference_product() -> dict[tuple, int]:
    """A fixed sparse product of dicts keyed by exponent tuples.

    It is the operation mix of posrep's operator products, frozen here so
    that no change to posrep changes it.
    """
    a, b = _FACTORS
    out: dict[tuple, int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return out


class HostProbe:
    """Times ``reference_product`` from SIGALRM during set-up and items.

    The shared host's speed drifts by up to a factor of two within seconds,
    and it slows the CPU itself (``cpu_s`` drifts with ``wall_s``).  The
    product, timed once at ``start`` and then every ``PROBE_PERIOD_S``
    seconds, reads that speed until ``stop``; the seconds spent in it are
    kept in ``wall``/``cpu`` so the caller can take them out of its own
    times.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall = self.cpu = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        reference_product()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.wall += dt
        self.cpu += time.process_time() - c0

    def start(self) -> None:
        self.samples, self.wall, self.cpu = [], 0.0, 0.0
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> float:
        """Disarm the timer; the host's mean speed since ``start``.

        Samples are evenly spaced in time, so the mean of
        ``REFERENCE_S / c`` over them converts the wall time since ``start``
        to the reference host.  A sample slowed by a pause reads as a low speed,
        never as a high one.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        return statistics.fmean(REFERENCE_S / c for c in self.samples)


# ---------------------------------------------------------------------------
# Worker: one fresh interpreter per job.
# ---------------------------------------------------------------------------

def worker() -> int:
    probe = HostProbe()
    probe.start()
    job = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    from workloads import prepare

    prepared = [(item, *prepare(item)) for item in job["items"]]
    setup_speed = probe.stop()
    setup_measured = time.monotonic() - job["spawn"] - probe.wall
    rec = None
    if job["trace"]:
        rec = Recorder()
        install(rec)
        probe = None
    results = []
    for item, letters, run, check in prepared:
        if rec is not None:
            rec.item = item["id"]
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        if probe is not None:
            probe.start()
        try:
            out = run()
        except Exception:  # an item that raises counts as failed; keep going
            error = traceback.format_exc(limit=3)
        speed = probe.stop() if probe is not None else None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if probe is not None:
            wall, cpu = wall - probe.wall, cpu - probe.cpu
        if rec is not None:
            rec.item = None
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if error is None:
            try:
                ok, detail = check(out)
            except (KeyError, TypeError, ValueError) as exc:
                ok, detail = False, {"check_error": repr(exc)}
        else:
            ok, detail = False, {"error": error}
        results.append({
            "id": item["id"], "letters": letters, "wall": wall, "cpu": cpu,
            "slowdown": 1 / speed if probe is not None else None,
            "wall_ref": wall * speed if probe is not None else None,
            "rss_kb": rss_kb, "ok": ok, "detail": detail,
        })
    payload = {"setup_s": setup_measured * setup_speed, "setup_measured_s": setup_measured,
               "items": results}
    if rec is not None:
        payload["layers"] = layer_sums(rec.spans)
        payload["spans"] = rec.spans
    json.dump(payload, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Orchestrator.
# ---------------------------------------------------------------------------

def run_job(items: list[dict], trace: bool, deadline: float) -> dict:
    """Run one job in a fresh interpreter; failures mark its items failed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = time.monotonic()
    job = json.dumps({"spawn": spawn, "trace": trace, "items": items})
    failure = None
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--worker"],
            input=job, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - spawn),
        )
    except subprocess.TimeoutExpired:
        failure = "worker timed out"
    else:
        if proc.returncode == 0:
            try:
                return json.loads(proc.stdout)
            except json.JSONDecodeError:
                failure = "worker printed no result"
        else:
            failure = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    return {"setup_s": None, "error": failure,
            "items": [{"id": it["id"], "letters": None, "wall": None, "cpu": None,
                       "slowdown": None, "wall_ref": None, "rss_kb": None, "ok": False,
                       "detail": {"error": failure}} for it in items]}


def run_round(jobs: list[list[dict]], trace: bool, deadline: float) -> dict:
    t0 = time.monotonic()
    results = [run_job(items, trace, deadline) for items in jobs]
    items = [it for res in results for it in res["items"]]
    done = all(it["wall"] is not None for it in items)
    out = {
        "traced": trace,
        "elapsed": time.monotonic() - t0,
        "complete": done,
        "setups": [res["setup_s"] for res in results if res["setup_s"] is not None],
        "setups_measured": [res["setup_measured_s"] for res in results
                            if res["setup_s"] is not None],
        "items": items,
        "wall": sum(it["wall"] for it in items) if done else None,
        "cpu": sum(it["cpu"] for it in items) if done else None,
        "wall_ref": sum(it["wall_ref"] for it in items) if done and not trace else None,
        "rss_kb": max(it["rss_kb"] for it in items) if done else None,
    }
    if trace and done:
        out["layers"] = layer_metrics(merge_sums([res["layers"] for res in results]))
        out["spans"] = [res["spans"] for res in results]
    return out


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(rounds: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(s for r in rounds for s in r["setups"]),
        "wall_ref_s": statistics.median(r["wall_ref"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
    }


def unmetered_timings(rounds: list[dict]) -> str:
    """Untraced timings printed for reading but not metrics.

    The program's own ``wall_s`` and ``cpu_s`` drift with the host by up to
    a factor of two, more than any bound allows (see bench/README.md);
    ``slowdown`` is the median over items of the reference product's time
    over ``REFERENCE_S`` (harmonic mean within an item).
    The item percentiles are steady only on ``pathwalk``, the one workload
    with the 100 or more items per run that a p90 needs (the others run 6
    to 15 items).
    """
    plain = [r for r in rounds if not r["traced"]]
    items = [it for r in plain for it in r["items"]]
    walls = [it["wall"] for it in items]
    return (
        f"measured: setup_s={statistics.median(s for r in plain for s in r['setups_measured']):.4g}"
        f" wall_s={statistics.median(r['wall'] for r in plain):.4g}"
        f" cpu_s={statistics.median(r['cpu'] for r in plain):.4g}"
        f" slowdown={statistics.median(it['slowdown'] for it in items):.4g}"
        f" items n={len(walls)} p50={statistics.median(walls):.4g} s"
        f" p90={nearest_rank(walls, 0.9):.4g} s max={max(walls):.4g} s"
    )


def per_layer_metrics(rounds: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first traced round, times as medians over traced rounds.

    Every traced round reruns the same inputs, so counts must repeat
    exactly; the names of those that do not are returned.
    """
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics, unstable = {}, []
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        values = [r["layers"][name] for r in traced]
        if unit in TIMED_UNITS:
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
    metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                   - statistics.median(r["wall"] for r in plain))
    return metrics, unstable


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    """The commit of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return sha


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": _read(Path("/proc/loadavg")),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS, make_round

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "posrep" / "__init__.py").is_file():
        print(f"error: no posrep package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = environment(args)
    rng = random.Random(args.seed)
    traced = bool(args.trace)

    rounds: list[dict] = []
    cycle_s: list[float] = []
    r = 0
    first = make_round(args.workload, 0, rng)
    while True:
        t0 = time.monotonic()
        if traced:
            pair = [run_round(first, False, deadline), run_round(first, True, deadline)]
            rounds.extend(pair)
            complete = all(p["complete"] for p in pair)
        else:
            jobs = first if r == 0 else make_round(args.workload, r, rng)
            rounds.append(run_round(jobs, False, deadline))
            complete = rounds[-1]["complete"]
        r += 1
        cycle_s.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if not complete or elapsed + max(cycle_s) > min(args.seconds, DEADLINE_S):
            break
    env["loadavg_end"] = _read(Path("/proc/loadavg"))
    env["elapsed_s"] = time.monotonic() - start

    items = [it for rd in rounds for it in rd["items"]]
    failed = sum(not it["ok"] for it in items)
    unstable: list[str] = []
    metrics = {}
    complete = all(rd["complete"] for rd in rounds)
    if complete and traced:
        metrics, unstable = per_layer_metrics(rounds)
    elif complete:
        metrics = end_to_end_metrics(rounds)
    units = PER_LAYER if traced else END_TO_END

    print(json.dumps({"env": env}))
    print(f"{args.workload}: {len(rounds)} rounds, {len(items)} items, {failed} failed")
    if complete:
        print(unmetered_timings(rounds))
    for it in items:
        if not it["ok"]:
            print(f"FAILED {it['id']}: {json.dumps(it['detail'])}")
    if unstable:
        print("counts differ between traced rounds: " + ", ".join(unstable))
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [rd.pop("spans") for rd in rounds if "spans" in rd]
    if spans:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans[0]))
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "rounds": rounds}, indent=1))

    result = {
        "correct": failed == 0 and bool(metrics) and not unstable,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(worker() if sys.argv[1:] == ["--worker"] else main())
