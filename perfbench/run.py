"""crossmap benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fork-network --seed 0 --seconds 28 --trace 0

Runs the workload in a fresh worker process (worker.py) with BLAS/OpenMP
pinned to one thread and prints, as its last line of standard output, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it holds the details (per-iteration walls,
payload digests, load average, absent layers); the same details are saved
under ``.bench_out/`` in the checkout. Exits non-zero, printing no result,
when the worker cannot run (for example when ``src/crossmap`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cross_maps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}
SETUP_PROBES = 2  # extra fresh processes that only time set-up
TIME_LIMIT_S = 170  # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    wall = statistics.median(result["norm_walls_s"])
    return {
        "wall_s": wall,
        "cross_maps_per_s": result["cross_maps"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "crossmap" / "__init__.py").is_file():
        print(f"no crossmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    load_before = os.getloadavg()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = run_worker(args, ["--setup-only"], timeout=60)
                setups.append(probe["norm_setup_s"])
        result = run_worker(args, [],
                            timeout=TIME_LIMIT_S - (time.monotonic() - start))
    except WorkerError as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    setups.append(result["norm_setup_s"])

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name][0]}
                   for name, value in end_to_end(result, setups).items()}
    details = dict(result, norm_setups_s=setups, load_avg_before=load_before,
                   load_avg_after=os.getloadavg(), nproc=os.cpu_count())
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"details": details, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
