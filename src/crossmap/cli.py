"""Command-line interface: generate systems, run analyses, emit JSON reports.

Subcommands
    generate   write a synthetic system to CSV
    simplex    embedding-dimension scan for one column
    ccm        cross-map convergence curve(s) for a cause/effect pair
    eccm       cross-map skill versus prediction lag
    demo       pinned end-to-end runs producing plot-ready CSV + report

Every analysis prints a JSON report whose ``config`` echoes all resolved
parameters (defaults and seed included) so a rerun with the same inputs
is byte-identical. Exit codes: 0 success, 1 stdout closed by its reader,
2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .core import (CrossmapError, DataError, NumericalError, TimeSeries,
                   _read_columns, windowed_pearson, write_series_csv)
from .forecast import EDimScan, select_embedding_dimension
from .ccm import (MIN_FINAL_RHO, MIN_KENDALL_TAU, MIN_RHO_GAIN, CausalNetwork,
                  CcmConfig, CcmCurve, EccmProfile, causal_summary, ccm_curve,
                  eccm_profile, pai_cross_map, shared_embedding_dimension)
from .systems import GENERATOR_KINDS, GeneratorSpec, generate

REPORT_VERSION = 1

# transient discarded ahead of the fig3 demo windows: counted straight
# from (0.2, 0.5) the three windows do not yet show the positive /
# absent / negative correlation pattern the demo illustrates
FIG3_BURN_IN = 849
FIG3_WINDOWS = ((60, 70), (260, 270), (840, 850))


class UsageError(CrossmapError):
    """Bad flag combination or value detected after argument parsing."""


@dataclass(frozen=True)
class RunReport:
    """Reproducible record of one CLI analysis run."""

    tool_version: str
    command: list[str]
    inputs: dict
    config: dict
    results: dict
    warnings: list[str] = field(default_factory=list)
    report_version: int = REPORT_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        raw = json.loads(text)
        return cls(**raw)


# A report row is a copy of its result row's fields. ``asdict`` copies the
# SkillStats that the scan's rows nest; the helpers that every benchmark
# workload times take ``dict(vars(row))``, since ``asdict`` deep-copies
# every field at over ten times the cost.

def scan_dict(scan: EDimScan) -> dict:
    return {"best_e": scan.best_e, "rows": [asdict(r) for r in scan.rows]}


def curve_dict(curve: CcmCurve) -> dict:
    return {"direction": curve.direction, **vars(curve.decision),
            "rows": [dict(vars(r)) for r in curve.rows]}


def profile_dict(profile: EccmProfile) -> dict:
    return {"direction": profile.direction, "best_lag": profile.best_lag,
            "rows": [dict(vars(r)) for r in profile.rows]}


def network_dict(net: CausalNetwork) -> dict:
    return {"series": list(net.series_names),
            "edges": [dict(vars(e)) for e in net.edges]}


def _emit(args, out: str | None, inputs: dict, config: dict, results: dict,
          warnings: Sequence[str] = ()) -> None:
    """Print the run's report, or write it to ``out``."""
    text = RunReport(tool_version=__version__,
                     command=list(getattr(args, "_argv", [])),
                     inputs=inputs, config=config, results=results,
                     warnings=list(warnings)).to_json()
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _load_pair(args) -> list[TimeSeries]:
    """The --cause and --effect columns of --input, which must differ."""
    if args.cause == args.effect:
        raise UsageError(f"--cause and --effect must differ, got "
                         f"{args.cause!r} for both")
    return _read_columns(args.input, [args.cause, args.effect])


def _parse_int_range(text: str, what: str) -> list[int]:
    """Inclusive 'A:B' range, or a single integer."""
    try:
        if ":" in text:
            a, b = text.split(":", 1)
            lo, hi = int(a), int(b)
            if hi < lo:
                raise UsageError(f"empty {what} range {text!r}")
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r}; use A:B or a single "
                         f"integer") from None


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(v) for v in text.split(","))
    except ValueError:
        sizes = ()
    if not sizes or sizes[0] < 1 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise UsageError(f"--lib-sizes must be >= 1 and strictly increasing "
                         f"comma-separated integers, got {text!r}")
    return sizes


def _parse_number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_params(pairs: list[str]) -> dict:
    """NAME=VALUE pairs; a value is an int, a float, a tuple of numbers
    when it is a comma list of them, and otherwise text."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--param needs NAME=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            numbers = tuple(_parse_number(v) for v in value.split(","))
            out[key] = numbers if "," in value else numbers[0]
        except ValueError:
            out[key] = value
    return out


def _resolve_e(args, cause: TimeSeries, effect: TimeSeries) -> int:
    if args.e != "auto":
        try:
            e = int(args.e)
        except ValueError:
            raise UsageError(f"--e must be an integer or 'auto', got {args.e!r}") \
                from None
        if e < 1:
            raise UsageError(f"--e must be >= 1, got {e}")
        return e
    return shared_embedding_dimension(cause, effect, tau=args.tau)


def _check_at_least(args, **floors: int) -> None:
    """Usage error for the first named numeric flag below its floor."""
    for name, floor in floors.items():
        value = getattr(args, name)
        if value < floor:
            flag = name.replace("_", "-")
            raise UsageError(f"--{flag} must be >= {floor}, got {value}")


def _config_echo(config: CcmConfig, extra: dict | None = None) -> dict:
    """Every field of ``config`` and the convergence thresholds, then ``extra``."""
    return {**asdict(config), "min_rho_gain": MIN_RHO_GAIN,
            "min_kendall_tau": MIN_KENDALL_TAU, "min_final_rho": MIN_FINAL_RHO,
            **(extra or {})}


def cmd_generate(args) -> int:
    _check_at_least(args, steps=1, seed=0, burn_in=0)
    kind = args.system.replace("-", "_")
    spec = GeneratorSpec(kind=kind, steps=args.steps,
                         params=_parse_params(args.param),
                         seed=args.seed, burn_in=args.burn_in)
    series = generate(spec)
    write_series_csv(args.out, series)
    names = ",".join(s.name for s in series)
    print(f"wrote {args.out}: {args.steps} rows, columns {names}",
          file=sys.stderr)
    return 0


def cmd_simplex(args) -> int:
    _check_at_least(args, tau=1)
    e_range = _parse_int_range(args.e_range, "--e-range")
    if e_range[0] < 1:
        raise UsageError(f"--e-range must be >= 1, got {args.e_range}")
    if args.split_fraction is not None and not 0.0 < args.split_fraction < 1.0:
        raise UsageError(
            f"--split-fraction must be in (0,1), got {args.split_fraction}")
    [series] = _read_columns(args.input, [args.col])
    scan = select_embedding_dimension(series, e_range, tau=args.tau,
                                      tp=args.tp,
                                      split_fraction=args.split_fraction)
    _emit(args, args.out,
          inputs={"file": args.input, "columns": [args.col]},
          config={"e_range": e_range, "tau": args.tau, "tp": args.tp,
                  "split_fraction": args.split_fraction},
          results={"e_scan": scan_dict(scan)},
          warnings=scan.warnings)
    return 0


def cmd_ccm(args) -> int:
    _check_at_least(args, samples=1, tau=1, seed=0)
    cause, effect = _load_pair(args)
    sizes = _parse_sizes(args.lib_sizes) if args.lib_sizes else None
    config = CcmConfig(e_dim=_resolve_e(args, cause, effect), tau=args.tau,
                       lag=args.lag, lib_sizes=sizes,
                       samples_per_size=args.samples, seed=args.seed,
                       contiguous_draws=args.contiguous)

    pairs = [(cause, effect)]
    if args.both_directions:
        pairs.append((effect, cause))
    curves = [ccm_curve(c, e, config) for c, e in pairs]
    results: dict = {"curves": [curve_dict(c) for c in curves]}
    if args.pai:
        results["pai"] = [
            {"direction": f"{c.name}=>{e.name}",
             "stats": asdict(pai_cross_map(c, e, config))}
            for c, e in pairs]
    _emit(args, args.out,
          inputs={"file": args.input, "columns": [args.cause, args.effect]},
          config=_config_echo(config, {"e_source": args.e,
                                       "both_directions": args.both_directions,
                                       "pai": args.pai}),
          results=results, warnings=[w for c in curves for w in c.warnings])
    return 0


def cmd_eccm(args) -> int:
    _check_at_least(args, tau=1)
    cause, effect = _load_pair(args)
    lags = _parse_int_range(args.lags, "--lags")
    config = CcmConfig(e_dim=_resolve_e(args, cause, effect), tau=args.tau)
    profile = eccm_profile(cause, effect, config, lags)
    _emit(args, args.out,
          inputs={"file": args.input, "columns": [args.cause, args.effect]},
          config=_config_echo(config, {"e_source": args.e, "lags": lags}),
          results={"eccm": profile_dict(profile)},
          warnings=profile.warnings)
    return 0


def cmd_demo(args) -> int:
    _check_at_least(args, seed=0)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    demos = {"fig3": _demo_fig3, "fig7": _demo_fig7, "fig8": _demo_fig8,
             "fork": _demo_fork}
    return demos[args.figure](args, out_dir)


def _write_demo(args, out_dir: Path, name: str, spec: GeneratorSpec,
                header: list[str], rows: Iterable[list], config: dict,
                results: dict, warnings: Sequence[str] = ()) -> int:
    """Write demo ``name``'s CSV and report into ``out_dir``. The report
    names the system ``spec`` generated and echoes ``config``, then the
    spec's steps, burn-in (when there is one) and parameters."""
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    burn_in = {"burn_in": spec.burn_in} if spec.burn_in else {}
    _emit(args, str(out_dir / f"{name}_report.json"),
          inputs={"generated": spec.kind, "csv": str(csv_path)},
          config={**config, "steps": spec.steps, **burn_in, **spec.params},
          results=results, warnings=warnings)
    print(f"wrote {csv_path} and {name}_report.json", file=sys.stderr)
    return 0


def _demo_fig3(args, out_dir: Path) -> int:
    spec = GeneratorSpec("coupled_logistic", 1000, burn_in=FIG3_BURN_IN,
                         params={"x0": 0.2, "y0": 0.5, "rx": 3.8, "ry": 3.8,
                                 "bxy": 0.02, "byx": 0.08})
    x, y = generate(spec)
    windows = [{"window": [a, b], "r": windowed_pearson(x, y, a, b)}
               for a, b in FIG3_WINDOWS]
    return _write_demo(args, out_dir, "fig3", spec, ["t", "X", "Y"],
                       [[t, repr(float(a)), repr(float(b))]
                        for t, (a, b) in enumerate(zip(x.values, y.values))],
                       {}, {"windows": windows})


def _demo_curves(args, out_dir: Path, name: str, spec: GeneratorSpec,
                 x: TimeSeries, y: TimeSeries, config: CcmConfig) -> int:
    curves = [ccm_curve(x, y, config), ccm_curve(y, x, config)]
    return _write_demo(args, out_dir, name, spec,
                       ["direction", "lib_size", "mean_rho", "sd_rho",
                        "samples_used"],
                       [[c.direction, r.lib_size, repr(r.mean_rho),
                         repr(r.sd_rho), r.samples_used]
                        for c in curves for r in c.rows],
                       _config_echo(config),
                       {"curves": [curve_dict(c) for c in curves]},
                       [w for c in curves for w in c.warnings])


def _demo_fig7(args, out_dir: Path) -> int:
    spec = GeneratorSpec("coupled_logistic", 1000, burn_in=FIG3_BURN_IN)
    x, y = generate(spec)
    config = CcmConfig(e_dim=shared_embedding_dimension(x, y), seed=args.seed)
    return _demo_curves(args, out_dir, "fig7", spec, x, y, config)


def _demo_fig8(args, out_dir: Path) -> int:
    spec = GeneratorSpec("unidirectional_logistic", 1000)
    x, y = generate(spec)
    # univariate scans pick E=1 for these nearly autonomous maps, which
    # cannot cross-map; pin the two-variable dimension instead
    config = CcmConfig(e_dim=2, seed=args.seed)
    return _demo_curves(args, out_dir, "fig8", spec, x, y, config)


def _demo_fork(args, out_dir: Path) -> int:
    spec = GeneratorSpec("moran_fork", 1000, params={"coupling": 0.1})
    z, a, b = generate(spec)
    config = CcmConfig(e_dim=shared_embedding_dimension(z, a, b),
                       seed=args.seed)
    net = causal_summary([z, a, b], config)
    return _write_demo(args, out_dir, "fork", spec,
                       ["cause", "effect", "final_rho", "convergent"],
                       [[e.cause, e.effect, repr(e.final_rho), e.convergent]
                        for e in net.edges],
                       _config_echo(config), {"network": network_dict(net)},
                       net.warnings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossmap",
        description="Cross-mapping causality analysis for time-series CSVs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="write a synthetic system to CSV")
    p.add_argument("--system", required=True,
                   choices=[k.replace("_", "-") for k in GENERATOR_KINDS])
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                   help="generator parameter override (repeatable)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simplex", help="embedding-dimension scan")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--col", required=True)
    p.add_argument("--e-range", default="1:10", dest="e_range")
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--tp", type=int, default=1)
    p.add_argument("--split-fraction", type=float, default=None,
                   dest="split_fraction",
                   help="train/test split instead of leave-one-out")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simplex)

    # the flags of a cause/effect pair, which ccm and eccm share
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--input", "-i", required=True)
    pair.add_argument("--cause", required=True)
    pair.add_argument("--effect", required=True)
    pair.add_argument("--e", default="auto",
                      help="embedding dimension (integer or 'auto')")
    pair.add_argument("--tau", type=int, default=1)
    pair.add_argument("--out", default=None)

    p = sub.add_parser("ccm", parents=[pair], help="cross-map convergence curves")
    p.add_argument("--lag", type=int, default=0)
    p.add_argument("--lib-sizes", default=None, dest="lib_sizes",
                   help="comma-separated library sizes")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--both-directions", action="store_true",
                   dest="both_directions")
    p.add_argument("--pai", action="store_true",
                   help="also report the joint-embedding (PAI) skill")
    p.add_argument("--contiguous", action="store_true",
                   help="draw contiguous segments instead of random subsets")
    p.set_defaults(func=cmd_ccm)

    p = sub.add_parser("eccm", parents=[pair],
                       help="cross-map skill versus prediction lag")
    p.add_argument("--lags", required=True,
                   help="inclusive range A:B; write --lags=-8:8 for "
                        "negative starts")
    p.set_defaults(func=cmd_eccm)

    p = sub.add_parser("demo", help="reproduce a pinned analysis end to end")
    p.add_argument("figure", choices=["fig3", "fig7", "fig8", "fork"])
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        status = args.func(args)
        # a closed stdout raises here, not at shutdown
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout's reader is gone (``crossmap eccm ... | head``): exit 1
        # without a word. Python flushes stdout again at shutdown, so its
        # descriptor is pointed at devnull, as Python's signal documentation
        # advises; a stream without one (io.UnsupportedOperation is an
        # OSError) is left as it is
        try:
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        except OSError:
            pass
        return 1
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except (DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
