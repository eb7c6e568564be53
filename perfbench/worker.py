"""Child process of the benchmark: sets up one workload and times it.

run.py starts this script in a fresh interpreter whose BLAS and OpenMP
pools are pinned to one thread. It imports crossmap from the checkout's
``src`` directory, builds the inputs (both timed as set-up), runs the
workload once as warm-up, then repeats it until ``--seconds`` have passed
and prints one JSON object as its last line of standard output.

Machine speed on a shared host drifts by tens of percent over minutes,
so untraced runs time a fixed calibration kernel between iterations and
report each iteration's wall as a multiple of the adjacent calibration
times, scaled by CALIBRATION_REF_S (see ``calibrate``). Raw walls are kept
in the details. With ``--trace 1`` untraced and traced iterations
alternate, so that the tracing overhead is measured on the same stretch
of machine time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
from tracing import ROOT_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402


def import_crossmap() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import crossmap
    import crossmap.cli  # noqa: F401  (dict helpers build the payload)
    if not Path(crossmap.__file__).resolve().is_relative_to(src):
        raise ImportError(f"crossmap imported from {crossmap.__file__}, "
                          f"not from {src}")


# median calibrate() time on the reference machine (2-CPU x86-64 container,
# Python 3.11, numpy 2.4); normalized times are seconds at that speed
CALIBRATION_REF_S = 0.6
CALIBRATION_DRAWS = 28


def calibrate() -> float:
    """Seconds taken by a fixed mini cross map written here.

    It repeats the workloads' hot path in miniature on fixed random data:
    a chunked einsum distance matrix, then seeded library draws that each
    copy the drawn columns, take the 3 nearest with argpartition and
    lexsort, weight them and correlate the estimates. It calls no crossmap
    code, so a change to crossmap never moves it. Its arrays stay under
    about 40 MB, below every workload's own, so it never sets the peak RSS.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    points = rng.random((1000, 2))
    target = rng.random(1000)
    start = time.perf_counter()
    dist = np.empty((1000, 1000))
    for lo in range(0, 1000, 250):
        diff = points[lo:lo + 250, None, :] - points[None, :, :]
        dist[lo:lo + 250] = np.sqrt(np.einsum("mne,mne->mn", diff, diff))
    np.fill_diagonal(dist, np.inf)
    for size in (5, 20, 80, 300, 700):
        for j in range(CALIBRATION_DRAWS):
            cols = np.sort(np.random.default_rng([size, j]).choice(
                1000, size=size, replace=False))
            sub = dist[:, cols]
            part = np.argpartition(sub, 2, axis=1)[:, :3]
            near = np.take_along_axis(sub, part, axis=1)
            order = np.lexsort((part, near), axis=1)
            idx = np.take_along_axis(part, order, axis=1)
            near = np.take_along_axis(near, order, axis=1)
            weights = np.exp(-near / np.maximum(near[:, :1], 1e-12))
            weights /= weights.sum(axis=1, keepdims=True)
            np.corrcoef(np.einsum("mk,mk->m", weights, target[cols][idx]), target)
    return time.perf_counter() - start


def recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def attempt(workload, inputs, tally: Tally, tracer: Tracer | None = None) -> float:
    """Run and check the workload once; returns wall seconds."""
    start = time.perf_counter()
    payload, error = None, None
    try:
        if tracer is None:
            payload = workload.run(inputs)
        else:
            with tracer.installed(), tracer.span(ROOT_SPAN):
                payload = workload.run(inputs)
    except Exception as err:  # a crash counts as a failed attempt
        traceback.print_exc(file=sys.stderr)
        error = repr(err)
    tally.record(payload, error)
    return time.perf_counter() - start


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the import and input set-up, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    # stay on one CPU, so that iterations and calibrations share its caches
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        start = time.perf_counter()
        import_crossmap()
        inputs = workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - start
        setup_cal_s = calibrate()
        result = {"setup_s": setup_s, "setup_cal_s": setup_cal_s,
                  "norm_setup_s": setup_s / setup_cal_s * CALIBRATION_REF_S}
        if not args.setup_only:
            result.update(measure(workload, inputs, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload, inputs, args) -> dict:
    tally = Tally(workload, recorded_digest(workload.name, args.seed))
    warmup_s = attempt(workload, inputs, tally)
    plain: list[float] = []
    traced: list[float] = []
    layer_rows: list[dict[str, float]] = []
    tracers: list[Tracer] = []
    deadline = time.perf_counter() + args.seconds
    cals = [] if args.trace else [calibrate()]
    while True:
        round_start = time.perf_counter()
        plain.append(attempt(workload, inputs, tally))
        if args.trace:
            tracer = Tracer()
            traced.append(attempt(workload, inputs, tally, tracer))
            tracers.append(tracer)
            layer_rows.append(layer_metrics(tracer))
        else:
            cals.append(calibrate())
        now = time.perf_counter()
        # stop when another round would overrun the measuring window
        if now + (now - round_start) > deadline:
            break

    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems[:20], "digests": sorted(tally.digests),
        "cross_maps": tally.cross_maps, "warmup_s": warmup_s,
        "walls_s": plain, "traced_walls_s": traced, "cal_s": cals,
        # each wall over the mean of the calibrations either side of it
        "norm_walls_s": [wall / ((before + after) / 2) * CALIBRATION_REF_S
                         for wall, before, after in zip(plain, cals, cals[1:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        layers = median_metrics(layer_rows)
        layers["bench.cross_maps"] = tally.cross_maps
        layers["trace_overhead_s"] = (statistics.median(traced)
                                      - statistics.median(plain))
        result["layers"] = layers
        summaries = [t.summary() for t in tracers]
        result["functions"] = {
            name: {field: statistics.median(sm.get(name, {}).get(field, 0)
                                            for sm in summaries)
                   for field in ("calls", "self_s", "total_s")}
            for name in sorted({name for sm in summaries for name in sm})}
        result["absent"] = sorted({a for t in tracers for a in t.absent})
        write_spans(workload.name, args.seed, tracers)
    return result


def write_spans(workload: str, seed: int, tracers: list[Tracer]) -> None:
    path = OUT_DIR / f"spans-{workload}-s{seed}.jsonl"
    with open(path, "w") as fh:
        for iteration, tracer in enumerate(tracers):
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(json.dumps({"iteration": iteration, "id": index,
                                     "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
