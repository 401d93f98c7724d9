"""Repeated runs of the benchmark, reduced to medians and quartiles.

    python3 bench/baseline.py [--out bench/baseline.json]

It exits 1 when a spread is not below a third of its metric's bound.

Runs `run.py` once per seed 1-10 on each workload with --trace 0, reports each
end-to-end metric's median, quartiles and spread (the distance between the
quartiles as a share of the median) against its bound from BENCHMARK.json,
then makes one --trace 1 run per workload and measures the bundled example
solve that the roadmap's re-anchor figures describe. With --out it writes
all of it as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    chosen = re.search(r"samples: (\d+); tail percentile: p([\d.]+)", done.stdout)
    if chosen:
        result["samples"], result["tail_percentile"] = int(chosen[1]), float(chosen[2])
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def anchors() -> dict:
    """The roadmap's re-anchor figures, measured on the bundled example
    solve with zero provider latency."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from socialagent import canonical, core, critic, engine, evaluation, providers
    from socialagent.core import EnvironmentContext
    from spans import Tracer

    fixtures = ROOT / "src" / "socialagent" / "fixtures"
    load_started = time.perf_counter()
    setup = evaluation.load_setup(fixtures / "solve_config.json")
    load_ms = (time.perf_counter() - load_started) * 1e3
    task = canonical.deserialize((fixtures / "example_task.json").read_text(encoding="utf-8"))
    env = EnvironmentContext()
    for _ in range(50):
        response = engine.solve(task, env, setup.engine)
    rounds = 500
    started = time.perf_counter()
    for _ in range(rounds):
        response = engine.solve(task, env, setup.engine)
    solve_ms = (time.perf_counter() - started) / rounds * 1e3
    started = time.perf_counter()
    for _ in range(rounds):
        engine.run_report(task, response)
    report_ms = (time.perf_counter() - started) / rounds * 1e3
    events = len(response.transcript)
    counter = Tracer()
    for site in (core, providers, critic):
        counter.wrap(site, "digest", "core.digest")
    try:
        engine.solve(task, env, setup.engine)
    finally:
        counter.restore()
    importtime = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import socialagent.cli"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stderr
    cumulative = {
        m.group(2).strip(): int(m.group(1))
        for m in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \|(.*)", importtime)
    }
    return {
        "solve_events": events,
        "solve_ms": solve_ms,
        "us_per_event": solve_ms * 1e3 / events,
        "digests_per_event": len(counter.spans) / events,
        "run_report_ms": report_ms,
        "load_setup_ms": load_ms,
        "requests_import_s": cumulative.get("requests", 0) / 1e6,
        "cli_import_s": cumulative.get("socialagent.cli", 0) / 1e6,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"end_to_end": {}, "per_layer": {}}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        results = [_run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        figures = {}
        for name in bounds:
            figures[name] = spread([r["metrics"][name]["value"] for r in results])
            limit = bounds[name] / 3
            ok = figures[name]["spread"] < limit
            steady &= ok
            print(
                f"{workload:14s} {name:28s} median {figures[name]['median']:12.4f} "
                f"spread {figures[name]['spread']:7.4f} (< {limit:.4f}) {'ok' if ok else 'WIDE'}",
                flush=True,
            )
        figures["samples"] = [r["samples"] for r in results]
        figures["tail_percentile"] = sorted({r["tail_percentile"] for r in results})
        out["end_to_end"][workload] = figures
        traced = _run(workload, SEEDS[0], spec["run_seconds"], 1)
        out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    out["roadmap_anchors"] = anchors()
    from workloads import EVAL_LATENCY, SOLVE_LATENCY

    out["solve_latency"] = dataclasses.asdict(SOLVE_LATENCY)
    out["eval_latency"] = dataclasses.asdict(EVAL_LATENCY)
    out["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    print(json.dumps(out["roadmap_anchors"], indent=1))
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
