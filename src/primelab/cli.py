"""Command-line entry point.

Every subcommand emits ExperimentReport rows as CSV or JSON lines.
Exit status: 0 all asserted verdicts pass (report-only rows never fail a
run), 1 some verdict failed, 2 usage error, 3 data error (zero tables,
unsupported primes), 4 capacity, 5 output sink failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import explicit, intervals, numfield, sieve, zeros
from .counters import field_source, target_label
from .errors import CapacityError, UnsupportedPrimeError, ZeroTableError
from .report import ExperimentReport, emit

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CAPACITY = 4
EXIT_SINK = 5

# most points an `explicit` x-grid may probe
MAX_X_GRID = 10**5

# single-component zero tables: label -> (n_K-equivalent, conductor)
COMPONENT_DATA = {"zeta": (1, 1), "chi4": (1, 4), "chi5": (1, 5)}


def _add_common(p):
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--output", default="-", help="output path or - (stdout)")
    p.add_argument("--ceiling", type=int, default=sieve.DEFAULT_CEILING,
                   help="largest position read; may only be lowered")
    p.add_argument("--zero-manifest", default=None,
                   help=f"zero-table manifest (default ${zeros.MANIFEST_ENV} "
                        "or the vendored tables)")


def _add_h_flags(p):
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--h-coef", type=float, default=None,
                   help="h = coef * x^theta * (log x)^kappa")
    p.add_argument("--h-theta", type=float, default=0.0)
    p.add_argument("--h-kappa", type=float, default=0.0)


def _resolve_h(args, x: float) -> float:
    if args.h is not None:
        return args.h
    if args.h_coef is not None:
        return args.h_coef * x**args.h_theta * math.log(x)**args.h_kappa
    raise ValueError("give --h or --h-coef/--h-theta/--h-kappa")


def _target(args):
    if getattr(args, "field", None):
        return numfield.preset(args.field)
    q = getattr(args, "q", None)
    if q is None:
        raise ValueError("give --field or --q/--a")
    return sieve.ResidueClass(q, getattr(args, "a", 0) or 0)


def _zero_table(args, fld):
    return zeros.field_table(fld.name, args.zero_manifest), \
        fld.degree, fld.field_disc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="primelab",
        description="Short-interval experiments for primes in progressions "
                    "and prime ideals")
    ap.add_argument("--config", default=None,
                    help="key = value file; keys are long flag names")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="list prime-power events in a window")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--a", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("ap-scan", help="Cramer windows for a progression")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--x-lo", type=float, required=True)
    p.add_argument("--x-hi", type=float, required=True)
    p.add_argument("--c1", type=float, default=4.0)
    _add_common(p)

    p = sub.add_parser("field-scan", help="Cramer windows for prime ideals")
    p.add_argument("--field", required=True)
    p.add_argument("--x-lo", type=float, required=True)
    p.add_argument("--x-hi", type=float, required=True)
    p.add_argument("--c1", type=float, default=4.0)
    _add_common(p)

    p = sub.add_parser("meansq", help="exact mean-square of Delta(x, h)")
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--field", default=None)
    p.add_argument("--ratio-ceiling", type=float, default=None)
    _add_h_flags(p)
    _add_common(p)

    p = sub.add_parser("inertia", help="exceedance/persistence scan")
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--field", default=None)
    p.add_argument("--persist-c", type=float, default=0.125)
    _add_h_flags(p)
    _add_common(p)

    p = sub.add_parser("bt", help="Brun-Titchmarsh window checks")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--field", default=None)
    _add_h_flags(p)
    _add_common(p)

    p = sub.add_parser("explicit", help="truncated explicit-formula residuals")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--x-lo", type=float, default=50.5)
    p.add_argument("--x-hi", type=float, default=1000.5)
    p.add_argument("--x-step", type=float, default=50.0)
    _add_common(p)

    p = sub.add_parser("smoothed", help="triangle-smoothed sum, its zero "
                                        "expansion, and the sandwich bounds")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--eps", type=float, default=None)
    _add_h_flags(p)
    _add_common(p)

    p = sub.add_parser("zeros", help="zero counts against the prediction")
    p.add_argument("--component", default=None,
                   help=f"one of {sorted(COMPONENT_DATA)}")
    p.add_argument("--field", default=None)
    p.add_argument("--T", type=float, required=True)
    _add_common(p)

    return ap


# ---------------------------------------------------------------------------
# subcommand bodies; each returns a list of reports

def _run_sieve(args):
    cls = sieve.ResidueClass(args.q, args.a)
    events = sieve.prime_power_events(max(args.lo, 1.0), args.hi, cls)
    return [ExperimentReport(
        "sieve", {"position": e.position, "base": e.base,
                  "exponent": e.exponent, "q": args.q, "a": args.a},
        metric=e.weight) for e in events]


def _run_scan(args):
    result = intervals.cramer_window_scan(args.x_lo, args.x_hi, args.c1,
                                          _target(args))
    return result.window_reports() + [result.summary_report()]


def _run_meansq(args):
    target = _target(args)
    h = _resolve_h(args, args.X)
    return [intervals.meansq_ratio(args.X, h, target,
                                   ceiling=args.ratio_ceiling)]


def _run_inertia(args):
    target = _target(args)
    h = _resolve_h(args, args.X)
    rep = intervals.inertia_scan(args.X, h, target,
                                 persist_c=args.persist_c)
    rows = []
    for (lo, hi), (x_bar, radius) in zip(rep.exceedance_intervals,
                                         rep.persistence):
        rows.append(ExperimentReport(
            "inertia_exceedance",
            {"X": args.X, "h": h, "lo": lo, "hi": hi, "x_bar": x_bar},
            metric=radius))
    rows.append(ExperimentReport(
        "inertia", {"X": args.X, "h": h,
                    "target": target_label(target),
                    "intervals": len(rep.exceedance_intervals)},
        metric=float(len(rep.exceedance_intervals)),
        bound=rep.threshold))
    return rows


def _run_bt(args):
    target = _target(args)
    h = _resolve_h(args, args.x)
    if isinstance(target, numfield.NumberFieldSpec):
        return [intervals.bt_check_field(target, args.x, h)]
    return [intervals.bt_check_ap(args.x, h, target)]


def _x_grid(args):
    """x_lo, x_lo + step, ... up to x_hi, accumulated as a float."""
    if args.x_step <= 0:
        raise ValueError(f"--x-step must be > 0, got {args.x_step}")
    if args.x_lo > args.x_hi:
        raise ValueError(f"--x-lo {args.x_lo} exceeds --x-hi {args.x_hi}")
    xs = []
    x = args.x_lo
    while x <= args.x_hi:
        if len(xs) == MAX_X_GRID:
            # also ends a step too small to change x in floating point
            raise ValueError(f"the x-grid exceeds {MAX_X_GRID} points; "
                             f"--x-step {args.x_step} is too small")
        xs.append(x)
        x += args.x_step
    return xs


def _run_explicit(args):
    xs = _x_grid(args)
    target = numfield.preset(args.field)
    table, n_K, d_K = _zero_table(args, target)
    spec = explicit.TruncationSpec(args.T, table, n_K, d_K)
    counter = field_source(target, args.x_hi + 1).psi
    scan = explicit.residual_scan(counter, spec, xs)
    rows = [ExperimentReport(
        "explicit_residual",
        {"x": float(xv), "T": args.T, "field": args.field},
        metric=float(r), ratio=float(nrm))
        for xv, r, nrm in zip(scan.xs, scan.residuals, scan.normalized)]
    return rows


def _run_smoothed(args):
    target = numfield.preset(args.field)
    h = _resolve_h(args, args.x)
    table, n_K, d_K = _zero_table(args, target)
    spec = explicit.TruncationSpec(args.T, table, n_K, d_K)
    counter = field_source(target, args.x + 2 * h + 2).psi
    w = explicit.smoothed_sum(args.x, h, counter)
    pred = explicit.smoothed_prediction(args.x, h, spec)
    rows = [
        ExperimentReport("smoothed_sum",
                         {"x": args.x, "h": h, "field": args.field},
                         metric=w),
        ExperimentReport("smoothed_prediction",
                         {"x": args.x, "h": h, "T": args.T,
                          "field": args.field},
                         metric=pred),
    ]
    if args.eps is not None:
        lower, upper = explicit.unweighted_sandwich(args.x, h, args.eps,
                                                    counter)
        direct = counter.window(args.x - h, 2 * h)
        ok = lower <= direct <= upper
        rows.append(ExperimentReport(
            "sandwich", {"x": args.x, "h": h, "eps": args.eps,
                         "field": args.field, "lower": lower,
                         "upper": upper},
            metric=direct, verdict="pass" if ok else "fail"))
    return rows


def _run_zeros(args):
    if (args.component is None) == (args.field is None):
        raise ValueError("give exactly one of --component / --field")
    if args.component is not None:
        if args.component not in COMPONENT_DATA:
            raise ValueError(f"unknown component {args.component!r}")
        table = zeros.component_table(args.component, args.zero_manifest)
        n_K, d_K = COMPONENT_DATA[args.component]
        label = args.component
    else:
        fld = numfield.preset(args.field)
        table = zeros.field_table(args.field, args.zero_manifest)
        n_K, d_K = fld.degree, fld.field_disc
        label = args.field
    counted = zeros.count_zeros(table, args.T)
    predicted = zeros.predicted_count(n_K, d_K, args.T)
    return [ExperimentReport(
        "zeros", {"T": args.T, "label": label, "predicted": predicted,
                  "diff": counted - predicted},
        metric=float(counted))]


RUNNERS = {
    "sieve": _run_sieve,
    "ap-scan": _run_scan,
    "field-scan": _run_scan,
    "meansq": _run_meansq,
    "inertia": _run_inertia,
    "bt": _run_bt,
    "explicit": _run_explicit,
    "smoothed": _run_smoothed,
    "zeros": _run_zeros,
}


def _load_config(path):
    """Line-oriented `key = value`; keys are long option names."""
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            pairs.extend([f"--{key}", value])
    return pairs


def _expand_config(argv):
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        raise ValueError("--config needs a path")
    rest = argv[:i] + argv[i + 2:]
    if not rest:
        raise ValueError("--config cannot supply the subcommand")
    # insert after the subcommand so explicit flags (later) win
    return [rest[0]] + _load_config(path) + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
    except (OSError, ValueError) as exc:
        print(f"primelab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.zero_manifest is None:
        args.zero_manifest = os.environ.get(zeros.MANIFEST_ENV)

    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be "
                                 f"finite, got {value}")
        token = sieve.CEILING.set(args.ceiling)
        try:
            sieve.check_capacity(1)         # --ceiling in [1, 10^9]
            reports = RUNNERS[args.command](args)
        finally:
            sieve.CEILING.reset(token)
    except (ValueError, KeyError) as exc:
        print(f"primelab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZeroTableError, UnsupportedPrimeError) as exc:
        print(f"primelab: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CapacityError as exc:
        print(f"primelab: {exc}", file=sys.stderr)
        return EXIT_CAPACITY

    try:
        if args.output == "-":
            emit(reports, args.format, sys.stdout)
        else:
            with open(args.output, "w") as sink:
                emit(reports, args.format, sink)
    except OSError as exc:
        print(f"primelab: cannot write output: {exc}", file=sys.stderr)
        return EXIT_SINK

    failed = any(r.verdict == "fail" for r in reports)
    return EXIT_FAIL if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
