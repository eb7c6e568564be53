"""Record the benchmark's reference data.

    python3 perfbench/record.py digests 0 1 2 3 4 5 6 7 8 9
    python3 perfbench/record.py baseline

``digests`` runs every workload once per given seed and writes the payload
digests to digests.json, which the worker then enforces for those seeds.
``baseline`` summarizes the untraced result files in ``.bench_out/`` into
baseline.json: per workload, the median and quartiles of every end-to-end
metric over the seeds run, the attempts and failures, and the load
averages seen, plus the machine facts (nproc, Python, numpy and scipy
versions, git revision).
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import END_TO_END, OUT_DIR, THREAD_VARS  # noqa: E402
from worker import DIGESTS, import_crossmap  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

# as in the worker: one BLAS/OpenMP thread, set before numpy is imported
os.environ.update({name: "1" for name in THREAD_VARS})


def record_digests(seeds: list[int]) -> None:
    import_crossmap()
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    OUT_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for seed in seeds:
            workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
            try:
                payload = workload.run(workload.setup(seed, workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            problems = workload.verdicts(payload)
            if problems:
                raise SystemExit(f"{workload.name} seed {seed}: {problems}")
            recorded.setdefault(workload.name, {})[str(seed)] = digest(payload)
            print(workload.name, seed, recorded[workload.name][str(seed)], flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def git_rev() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record_baseline() -> None:
    import numpy
    import scipy
    baseline = {"machine": {"nproc": os.cpu_count(),
                            "python": platform.python_version(),
                            "numpy": numpy.__version__, "scipy": scipy.__version__,
                            "platform": platform.platform(), "git_rev": git_rev()},
                "workloads": {}}
    for name in WORKLOADS:
        runs = [json.loads(p.read_text())
                for p in sorted(OUT_DIR.glob(f"result-{name}-s*-t0.json"))]
        if len(runs) < 2:
            continue
        summary = {"seeds": sorted(r["details"]["seed"] for r in runs),
                   "attempted": sum(r["details"]["attempted"] for r in runs),
                   "failed": sum(r["details"]["failed"] for r in runs),
                   "load_avg_1min": sorted(round(r["details"]["load_avg_before"][0], 2)
                                           for r in runs)}
        for metric, (unit, _) in END_TO_END.items():
            q1, median, q3 = statistics.quantiles(
                [r["metrics"][metric]["value"] for r in runs], n=4)
            summary[metric] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                               "iqr_share": (q3 - q1) / median}
        raw = [statistics.median(r["details"]["walls_s"]) for r in runs]
        summary["raw_wall_s_median"] = statistics.median(raw)
        baseline["workloads"][name] = summary
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print(json.dumps(baseline, indent=1))


def main(argv: list[str]) -> int:
    if argv[:1] == ["digests"] and len(argv) > 1:
        record_digests([int(s) for s in argv[1:]])
    elif argv == ["baseline"]:
        record_baseline()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
