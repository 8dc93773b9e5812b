"""Command-line entry point.

Every subcommand emits ExperimentReport rows as CSV or JSON lines.
Exit status: 0 all asserted verdicts pass (report-only rows never fail a
run), 1 some verdict failed, 2 usage error, 3 data error (zero tables,
unsupported primes), 4 capacity, 5 output sink failure.  Each subcommand
takes only the flags it reads, by full name, and every usage error,
argparse's own included, leaves `main` as `primelab: <message>` and exit 2.
In-process callers of `main` share one parser, built on the first call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import explicit, intervals, numfield, sieve, zeros
from .counters import target_label, window_events
from .errors import CapacityError, PrimeLabError
from .report import ExperimentReport, emit

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CAPACITY = 4
EXIT_SINK = 5

# most points an `explicit` x-grid may probe
MAX_X_GRID = 10**5

# widest `sieve` window; every row (about 0.6 KB) is built before any is
# written, so 10^6 costs under 100 MB
MAX_SIEVE_WIDTH = 10**6


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for `main` to report instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def _add_target(p):
    """The target: --q with an optional --a, or --field, not both."""
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--q", type=int, help="modulus of the progression")
    g.add_argument("--field", help="field preset")
    p.add_argument("--a", type=int,
                   help="residue mod --q (default 0); not with --field")


def _target(args):
    field = getattr(args, "field", None)
    if field is None:
        return sieve.ResidueClass(args.q, args.a or 0)
    if getattr(args, "a", None) is not None:
        raise ValueError("argument --a: not allowed with argument --field")
    return numfield.preset(field)


def _add_window(p):
    """The window: --h, or the law --h-coef with optional exponents."""
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--h", type=float, help="window length")
    g.add_argument("--h-coef", type=float,
                   help="h = coef * x^theta * (log x)^kappa")
    for name in ("theta", "kappa"):
        p.add_argument(f"--h-{name}", type=float,
                       help=f"{name} (default 0); needs --h-coef")


def _window(args, x: float) -> float:
    if args.h_coef is None:
        if args.h_theta is not None or args.h_kappa is not None:
            raise ValueError("arguments --h-theta and --h-kappa need "
                             "--h-coef")
        return args.h
    try:        # math.pow raises where ** would overflow or turn complex
        h = args.h_coef * math.pow(x, args.h_theta or 0.0) \
            * math.pow(math.log(x), args.h_kappa or 0.0)
    except (ValueError, OverflowError):
        h = math.nan
    if not math.isfinite(h):
        raise ValueError(f"the window law has no finite value at x={x}")
    return h


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; argparse keeps each parse's state in
    its namespace, so `main` reuses it."""
    ap = _Parser(
        prog="primelab", allow_abbrev=False,
        description="Short-interval experiments for primes in progressions "
                    "and prime ideals")
    ap.add_argument("--config", default=None,
                    help="key = value file; keys are long flag names")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, text, *required, positions=True,
                zero_tables=False, **defaults):
        """A subcommand that `run` answers, with the given required float
        flags, optional flags typed by their defaults (float where None),
        --format and --output, --ceiling if it reads positions and
        --zero-manifest if it reads zero tables."""
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.set_defaults(run=run)
        for flag in required:
            p.add_argument(f"--{flag}", type=float, required=True)
        for flag, value in defaults.items():
            p.add_argument(f"--{flag.replace('_', '-')}", default=value,
                           type=float if value is None else type(value))
        p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
        p.add_argument("--output", default="-",
                       help="output path or - (stdout)")
        if positions:
            p.add_argument("--ceiling", type=int,
                           default=sieve.DEFAULT_CEILING,
                           help="largest position read; may only be lowered")
        if zero_tables:
            p.add_argument("--zero-manifest", default=None,
                           help=f"zero-table manifest (default "
                                f"${zeros.MANIFEST_ENV} or the vendored "
                                f"tables)")
        return p

    command("sieve", _run_sieve, "list prime-power events in a window "
            f"(--hi at most {MAX_SIEVE_WIDTH} above --lo)", "lo", "hi", q=1,
            a=0)
    p = command("ap-scan", _run_scan, "Cramer windows for a progression "
                f"(at most {intervals.MAX_WINDOWS} windows)", "x-lo", "x-hi",
                c1=4.0)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p = command("field-scan", _run_scan, "Cramer windows for prime ideals "
                f"(at most {intervals.MAX_WINDOWS} windows)", "x-lo", "x-hi",
                c1=4.0)
    p.add_argument("--field", required=True)
    for p in (command("meansq", _run_meansq,
                      "exact mean-square of Delta(x, h)", "X",
                      ratio_ceiling=None),
              command("inertia", _run_inertia, "exceedance/persistence scan",
                      "X", persist_c=0.125),
              command("bt", _run_bt, "Brun-Titchmarsh window checks", "x")):
        _add_target(p)
        _add_window(p)
    command("explicit", _run_explicit, "truncated explicit-formula residuals",
            "T", zero_tables=True, field="Q", x_lo=50.5, x_hi=1000.5,
            x_step=50.0)
    _add_window(command("smoothed", _run_smoothed, "triangle-smoothed sum, "
                        "its zero expansion, and the sandwich bounds", "x",
                        "T", zero_tables=True, field="Q", eps=None))
    p = command("zeros", _run_zeros, "zero counts against the prediction",
                "T", positions=False, zero_tables=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--component", choices=sorted(zeros.COMPONENTS))
    g.add_argument("--field")
    return ap


# ---------------------------------------------------------------------------
# subcommand bodies; each returns a list of reports

def _run_sieve(args):
    if args.hi - args.lo > MAX_SIEVE_WIDTH:
        raise ValueError(f"the sieve window is wider than {MAX_SIEVE_WIDTH}")
    columns = window_events(sieve.ResidueClass(args.q, args.a), args.lo,
                            args.hi)
    # n = p^m <= 10^9 < 2^53, so p is n^(1/m) rounded
    return [ExperimentReport(
        "sieve", {"position": n, "base": round(n ** (1 / m)), "exponent": m,
                  "q": args.q, "a": args.a}, metric=w)
        for n, m, w in zip(*(c.tolist() for c in columns))]


def _run_scan(args):
    result = intervals.cramer_window_scan(args.x_lo, args.x_hi, args.c1,
                                          _target(args))
    return result.window_reports() + [result.summary_report()]


def _run_meansq(args):
    target = _target(args)
    h = _window(args, args.X)
    return [intervals.meansq_ratio(args.X, h, target,
                                   ceiling=args.ratio_ceiling)]


def _run_inertia(args):
    target = _target(args)
    h = _window(args, args.X)
    rep = intervals.inertia_scan(args.X, h, target,
                                 persist_c=args.persist_c)
    rows = [ExperimentReport(
        "inertia_exceedance",
        {"X": args.X, "h": h, "lo": lo, "hi": hi, "x_bar": x_bar},
        metric=radius)
        for (lo, hi), (x_bar, radius) in zip(rep.exceedance_intervals,
                                             rep.persistence)]
    rows.append(ExperimentReport(
        "inertia", {"X": args.X, "h": h,
                    "target": target_label(target),
                    "intervals": len(rep.exceedance_intervals)},
        metric=float(len(rep.exceedance_intervals)),
        bound=rep.threshold))
    return rows


def _run_bt(args):
    target = _target(args)
    h = _window(args, args.x)
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
    spec = explicit.TruncationSpec(
        args.T, zeros.field_table(args.field, args.zero_manifest),
        target.degree, target.field_disc)
    scan = explicit.residual_scan(target, spec, xs)
    return [ExperimentReport(
        "explicit_residual",
        {"x": float(xv), "T": args.T, "field": args.field},
        metric=float(r), ratio=float(nrm))
        for xv, r, nrm in zip(scan.xs, scan.residuals, scan.normalized)]


def _run_smoothed(args):
    target = numfield.preset(args.field)
    h = _window(args, args.x)
    spec = explicit.TruncationSpec(
        args.T, zeros.field_table(args.field, args.zero_manifest),
        target.degree, target.field_disc)
    w = explicit.smoothed_sum(args.x, h, target)
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
                                                    target)
        start = args.x - h
        direct = math.fsum(
            window_events(target, start, start + 2 * h)[2].tolist())
        rows.append(ExperimentReport(
            "sandwich", {"x": args.x, "h": h, "eps": args.eps,
                         "field": args.field, "lower": lower,
                         "upper": upper},
            metric=direct,
            verdict="pass" if lower <= direct <= upper else "fail"))
    return rows


def _run_zeros(args):
    label = args.field if args.component is None else args.component
    if args.component is not None:
        table = zeros.component_table(label, args.zero_manifest)
        n_K, d_K = zeros.COMPONENTS[label]
    else:
        fld = numfield.preset(label)
        table = zeros.field_table(label, args.zero_manifest)
        n_K, d_K = fld.degree, fld.field_disc
    counted = zeros.count_zeros(table, args.T)
    predicted = zeros.predicted_count(n_K, d_K, args.T)
    return [ExperimentReport(
        "zeros", {"T": args.T, "label": label, "predicted": predicted,
                  "diff": counted - predicted},
        metric=float(counted))]


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
    # --config=PATH, before or after the subcommand, is --config PATH
    argv = [part for arg in argv for part in
            (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
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
        args = build_parser().parse_args(_expand_config(argv))
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be "
                                 f"finite, got {value}")
        token = sieve.CEILING.set(
            getattr(args, "ceiling", sieve.DEFAULT_CEILING))
        try:
            sieve.check_capacity(1)         # --ceiling in [1, 10^9]
            reports = args.run(args)
        finally:
            sieve.CEILING.reset(token)
    except SystemExit as exc:           # argparse's, after --help
        return exc.code
    except (OSError, ValueError, KeyError, PrimeLabError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"primelab: {message}", file=sys.stderr)
        return EXIT_CAPACITY if isinstance(exc, CapacityError) \
            else EXIT_DATA if isinstance(exc, PrimeLabError) else EXIT_USAGE

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
