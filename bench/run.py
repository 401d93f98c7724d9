"""Offline benchmark of the solving protocol and the evaluation runner.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
  solve-actions  one closed-loop client solves four-action tasks, one
                 planning trial, with simulated provider latency
  solve-trials   the same client on single-action tasks with up to three
                 trials, the gate firing on a fixed share of them
  eval-batch     qa, title and categorize evaluations of 20 records each
                 with two workers and a third of the solve latency

Inputs are generated from the seed into .bench_work/ and loaded through the
library's loaders. Every task's transcript signature, provider-call count
and results are checked against what the generator predicts. With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it runs one
untraced and one traced pass and prints the per-layer metrics. The last
line of standard output is one JSON object. The exit code is 1 when a
check fails and 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up is timed in this many fresh interpreters and the fastest is kept:
# host speed swings for seconds at a time, so timed runs spread the probes
# over the whole measuring window.
SETUP_PROBES = 15

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "socialagent" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: PLC0415  (needs the library on the path)

    if args.workload not in workloads.RUNNERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workdir = WORK / f"{args.workload}-{args.seed}"
    runner = workloads.RUNNERS[args.workload](args.seed, workdir)
    probes: list[dict] = []

    def probe() -> None:
        probes.append(probe_setup(args.workload, workdir))

    runner.load()
    try:
        if args.trace:
            for _ in range(SETUP_PROBES):
                probe()
            metrics, attempted = runner.traced(args.seconds)
            metrics["setup.import_ms"] = min(p["import_ms"] for p in probes)
            metrics["setup.load_ms"] = min(p["load_ms"] for p in probes)
        else:
            metrics, attempted = runner.timed(args.seconds, probe, SETUP_PROBES)
            metrics["setup_s"] = min(p["setup_s"] for p in probes)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} not as BENCHMARK.json declares")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps(result))
    return 0


def probe_setup(workload: str, workdir: Path) -> dict[str, float]:
    """One fresh interpreter importing the CLI and loading the workload's
    configuration and inputs: its wall time in seconds, and the import and
    load times it reports in milliseconds."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(workdir)],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{done.stderr}")
    figures = json.loads(done.stdout.strip().splitlines()[-1])
    return {"setup_s": wall, "import_ms": figures["import_ms"], "load_ms": figures["load_ms"]}


if __name__ == "__main__":
    raise SystemExit(main())
