"""Independent answers for every operation the workloads run.

Nothing here imports primelab.  Primes come from a plain, non-segmented
numpy sieve; prime-ideal splitting from the Kronecker symbol (Euler's
criterion) for the quadratic presets and from the multiplicative order
of p mod m for the cyclotomic ones; zero ordinates are read straight
from the data files.  `check(oracle, kind, params, value, extra)`
returns None when an output is right and a one-line reason when it is
not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

import plan

REL = 1e-9            # relative tolerance for float sums formed differently


def close(a, b, rel=REL, scale=1.0):
    return abs(a - b) <= rel * max(scale, abs(a), abs(b))


def plain_primes(n):
    """All primes <= n from one boolean array (no segmentation)."""
    n = int(n)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.flatnonzero(mask).astype(np.int64)


def kronecker(d, p):
    """(d | p) for a prime p: Euler's criterion for odd p, the mod-8 rule
    for p = 2."""
    if d % p == 0:
        return 0
    if p == 2:
        return 1 if d % 8 in (1, 7) else -1
    return 1 if pow(d % p, (p - 1) // 2, p) == 1 else -1


def mult_order(p, m):
    if m == 1:
        return 1
    f, r = 1, p % m
    while r != 1:
        r = r * p % m
        f += 1
    return f


def ideals_above(kind, p):
    """[(residue degree f, number of primes of that degree)] above p."""
    if kind[0] == "rational":
        return [(1, 1)]
    if kind[0] == "quadratic":
        k = kronecker(kind[1], p)
        return [(1, 2)] if k == 1 else [(2, 1)] if k == -1 else [(1, 1)]
    m = kind[1]
    while m % p == 0:
        m //= p
    f = mult_order(p, m)
    return [(f, phi(m) // f)]


def phi(m):
    return sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)


class Events:
    """Sorted positions and weights of a step counter, plus the positions
    that count once in the pi-type counter."""

    def __init__(self, pos, weights, first):
        order = np.argsort(pos, kind="stable")
        self.pos = pos[order]
        self.w = weights[order]
        self.first = np.sort(first)
        self.cum = np.concatenate(([0.0], np.cumsum(
            self.w.astype(np.longdouble))))

    def psi(self, x):
        """Exactly rounded sum of the weights at positions <= x."""
        return math.fsum(
            self.w[:np.searchsorted(self.pos, x, "right")].tolist())

    def pi(self, x):
        return int(np.searchsorted(self.first, x, "right"))

    def count(self, lo, hi):
        """pi-type events in (lo, hi]."""
        return self.pi(hi) - self.pi(lo)

    def S(self, x):
        return self.cum[np.searchsorted(self.pos, x, "right")]

    def window(self, x, h):
        return float(self.S(x + h) - self.S(x))

    def pieces(self, X, h, drift):
        """(cuts, delta): [X, 2X] cut where Delta(x, h) may jump, and
        Delta on each piece, evaluated at the piece's midpoint."""
        p = self.pos.astype(np.float64)
        cuts = np.concatenate(([X, 2 * X], p - h, p))
        cuts = np.unique(cuts[(cuts >= X) & (cuts <= 2 * X)])
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        delta = (self.S(mid + h) - self.S(mid)).astype(np.float64) \
            - h * drift
        return cuts, delta

    def mean_square(self, X, h, drift):
        """Integral of Delta(x, h)^2 over [X, 2X], swept piece by piece."""
        cuts, delta = self.pieces(X, h, drift)
        return float(np.dot(delta * delta, np.diff(cuts)))

    def exceedances(self, X, h, drift, threshold):
        """Maximal intervals of [X, 2X] where |Delta(x, h)| > threshold,
        as [lo, hi] pairs: exceeding pieces, adjacent ones merged."""
        cuts, delta = self.pieces(X, h, drift)
        out = []
        for i in np.flatnonzero(np.abs(delta) > threshold).tolist():
            if out and out[-1][1] == cuts[i]:
                out[-1][1] = float(cuts[i + 1])
            else:
                out.append([float(cuts[i]), float(cuts[i + 1])])
        return out

    def delta(self, x, h, drift):
        return float(self.S(x + h) - self.S(x)) - h * drift


class Oracle:
    """Lazily built reference data for one checkout."""

    def __init__(self, root):
        self.root = root
        self._limit = 0
        self._fields = {}
        self._classes = {}
        self._zeros = {}

    def primes(self, n):
        if self._limit < n:
            self._limit = _grow(self._limit, n)
            self._primes = plain_primes(self._limit)
        return self._primes[:np.searchsorted(self._primes, n, "right")]

    # -- progressions ----------------------------------------------------
    def progression(self, q, a, n):
        key = (q, a)
        ev = self._classes.get(key)
        if ev is None or ev.bound < n:
            n = _grow(0 if ev is None else ev.bound, n)
            ps = self.primes(n)
            pos, base = [ps], [ps]
            for p in ps[:np.searchsorted(ps, math.isqrt(int(n)), "right")]:
                p = int(p)
                power = p * p
                while power <= n:
                    pos.append(np.array([power]))
                    base.append(np.array([p]))
                    power *= p
            pos = np.concatenate(pos)
            base = np.concatenate(base)
            keep = pos % q == a
            pos, base = pos[keep], base[keep]
            ev = Events(pos, np.log(base.astype(np.float64)),
                        pos[pos == base])
            ev.bound = n
            ev.drift = 1.0 / phi(q)
            self._classes[key] = ev
        return ev

    # -- fields ----------------------------------------------------------
    def field(self, name):
        """Every prime ideal power of norm <= FIELD_ORACLE_BOUND, which
        covers the field queries of all workloads."""
        ev = self._fields.get(name)
        if ev is None:
            n = plan.FIELD_ORACLE_BOUND
            kind = plan.PRESETS[name][2]
            pos, base, deg, first = [], [], [], []
            for p in self.primes(n).tolist():
                for f, g in ideals_above(kind, p):
                    norm = p ** f
                    if norm <= n:
                        first += [norm] * g
                    while norm <= n:
                        pos += [norm] * g
                        base += [p] * g
                        deg += [f] * g
                        norm *= p ** f
            base = np.array(base, dtype=np.int64)
            weights = np.array(deg, dtype=np.int64) \
                * np.log(base.astype(np.float64))
            ev = Events(np.array(pos, dtype=np.int64), weights,
                        np.array(first, dtype=np.int64))
            self._fields[name] = ev
        return ev

    # -- zero tables -----------------------------------------------------
    def ordinates(self, label):
        """Sorted positive ordinates of a component or field table."""
        if label not in self._zeros:
            parts = {"Q": ("zeta",), "Q(i)": ("zeta", "chi4"),
                     "Q(sqrt5)": ("zeta", "chi5")}.get(label, (label,))
            data = os.path.join(self.root, "src", "primelab", "data")
            arrays = [np.loadtxt(os.path.join(data, f"{c}_zeros.txt"),
                                 comments="#", ndmin=1) for c in parts]
            self._zeros[label] = np.sort(np.concatenate(arrays))
        return self._zeros[label]

    def gammas(self, label, T):
        g = self.ordinates(label)
        return g[:np.searchsorted(g, T, "right")]

    def truncated_psi(self, field, x, T):
        degree = plan.PRESETS[field][0]
        rho = 0.5 + 1j * self.gammas(field, T)
        zero_sum = float(np.sum(2.0 * np.real(np.exp(rho * math.log(x))
                                              / rho)))
        value = x - zero_sum
        if degree == 1:
            value += -math.log(2 * math.pi) - 0.5 * math.log(1 - x ** -2)
        return value

    def smoothed_prediction(self, field, x, h, T):
        rho = 0.5 + 1j * self.gammas(field, T)
        s = rho + 1
        num = (np.exp(s * math.log(x + h)) - 2 * np.exp(s * math.log(x))
               + np.exp(s * math.log(x - h)))
        return h - float(np.sum(2.0 * np.real(num / (rho * s)))) / h

    # -- checks ----------------------------------------------------------
    def counter(self, field):
        """Events of the counter the warm workload built for a field."""
        return (self.progression(1, 0, plan.WARM_Q_BOUND) if field == "Q"
                else self.field(field))


def _grow(old, n):
    """New bound for a cache that must reach n: at least 2^20, and at
    least four times the old bound so that growing stays rare."""
    return int(max(n, 2**20, min(4 * old, 2**27)))


def check(oracle, kind, p, value, extra):
    """None if the output of one operation is right, else why not."""
    fn = CHECKS[kind]
    return fn(oracle, p, value, extra)


def _num(value, want, what, rel=REL, scale=1.0):
    if not isinstance(value, (int, float)) or not close(value, want, rel,
                                                         scale):
        return f"{what}: got {value!r}, oracle {want!r}"
    return None


def _exact(value, want, what):
    if value != want:
        return f"{what}: got {value!r}, oracle {want!r}"
    return None


def _verdict(value, want="pass"):
    if value.get("verdict") != want:
        return f"verdict {value.get('verdict')!r}, expected {want!r}"
    return None


def _pi_K(o, p, v, _):
    return _exact(v, o.field(p["field"]).pi(p["x"]), "pi_K")


def _psi_K(o, p, v, _):
    return _num(v, o.field(p["field"]).psi(p["x"]), "psi_K")


def _bt_field(o, p, v, _):
    want = o.field(p["field"]).count(p["x"], p["x"] + p["h"])
    return _verdict(v) or _exact(int(v["metric"]), want, "bt_field count")


def _bt_ap(o, p, v, _):
    ev = o.progression(p["q"], p["a"], p["x"] + p["h"])
    want = ev.count(p["x"], p["x"] + p["h"])
    return _verdict(v) or _exact(int(v["metric"]), want, "bt_ap count")


def _cramer(o, p, v, _):
    if v["windows"] < 1 or v["min_count"] < 1 or not v["c2"] > 0:
        return f"empty Cramer window or no windows: {v}"
    return _verdict(v)


def _psi_ap(o, p, v, _):
    return _num(v, o.progression(p["q"], p["a"], p["x"]).psi(p["x"]),
                "psi_ap")


def _pi_ap(o, p, v, _):
    return _exact(v, o.progression(p["q"], p["a"], p["x"]).pi(p["x"]),
                  "pi_ap")


def _meansq_ratio(o, p, v, _):
    X, h = p["X"], p["h"]
    ev = o.progression(p["q"], p["a"], 2 * X + h)
    want = ev.mean_square(X, h, ev.drift)
    return _verdict(v, "report-only") or _num(v["metric"], want, "meansq",
                                              rel=1e-7)


def _mean_square(o, p, v, _):
    ev = o.field(p["field"])
    return _num(v, ev.mean_square(p["X"], p["h"], 1.0), "mean_square",
                rel=1e-7)


def _inertia(o, p, v, _):
    X, h = p["X"], p["h"]
    err = _num(v["threshold"], h / 4.0, "inertia threshold")
    if err:
        return err
    want = o.field(p["field"]).exceedances(X, h, 1.0, h / 4.0)
    if len(v["intervals"]) != len(want):
        return (f"inertia: {len(v['intervals'])} exceedance intervals, "
                f"oracle {len(want)}")
    for got, exp in zip(v["intervals"], want):
        if not all(close(g, e, scale=X) for g, e in zip(got, exp)):
            return f"inertia interval {got}, oracle {exp}"
    return None


def _delta_K(o, p, v, _):
    ev = o.field(p["field"])
    want = ev.delta(p["x"], p["h"], 1.0)
    return _num(v, want, "delta_K", scale=ev.psi(p["x"] + p["h"]))


def _residual(o, p, v, _):
    ev = o.counter(p["field"])
    if len(v) != len(p["xs"]):
        return f"residual_scan: {len(v)} residuals for {len(p['xs'])} x"
    for x, r in zip(p["xs"], v):
        want = ev.psi(x) - o.truncated_psi(p["field"], x, p["T"])
        err = _num(r, want, f"residual at x={x}", rel=1e-8, scale=x)
        if err:
            return err
    return None


def _smoothed_sum(o, p, v, _):
    ev = o.counter(p["field"])
    x, h = p["x"], p["h"]
    i = np.searchsorted(ev.pos, x - h, "right")
    j = np.searchsorted(ev.pos, x + h, "left")
    tri = 1.0 - np.abs(x - ev.pos[i:j]) / h
    return _num(v, math.fsum(ev.w[i:j] * tri), "smoothed_sum", scale=h)


def _smoothed_prediction(o, p, v, _):
    x, h = p["x"], p["h"]
    want = o.smoothed_prediction(p["field"], x, h, p["T"])
    return _num(v, want, "smoothed_prediction", rel=1e-8,
                scale=h + (x + h) ** 1.5 / h)


def _sandwich(o, p, v, _):
    ev = o.counter(p["field"])
    direct = ev.window(p["x"] - p["h"], 2 * p["h"])
    lower, upper = v
    slack = 1e-9 * max(1.0, abs(direct))
    if not lower - slack <= direct <= upper + slack:
        return f"sandwich [{lower}, {upper}] misses {direct}"
    return None


def _count_zeros(o, p, v, _):
    want = 2 * int(np.searchsorted(o.ordinates(p["table"]), p["T"],
                                   "right"))
    return _exact(v, want, "count_zeros")


def _predicted(o, p, v, _):
    n, d, T = p["n"], p["d"], p["T"]
    want = T / math.pi * (n * math.log(T / (2 * math.pi * math.e))
                          + math.log(d))
    return _num(v, want, "predicted_count", scale=T)


CSV_HEADER = ["experiment", "param_json", "metric", "bound", "ratio",
              "verdict"]


def parse_rows(text, fmt):
    """Report rows as dicts, parsed back from emitted text."""
    if fmt == "jsonl":
        return [json.loads(line) for line in text.splitlines()]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"bad csv header {rows[:1]}")
    out = []
    for exp, params, metric, bound, ratio, verdict in rows[1:]:
        out.append({"experiment": exp, "params": json.loads(params),
                    "metric": float(metric),
                    "bound": float(bound) if bound else None,
                    "ratio": float(ratio) if ratio else None,
                    "verdict": verdict})
    return out


def _same(a, b):
    """Equal up to the 12 significant digits the emitter keeps."""
    if isinstance(a, float) or isinstance(b, float):
        return (a is not None and b is not None
                and close(float(a), float(b), rel=1e-11, scale=0.0))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _emit(o, p, text, reports):
    try:
        rows = parse_rows(text, p["format"])
    except (ValueError, json.JSONDecodeError) as exc:
        return f"emitted {p['format']} does not parse: {exc}"
    if len(rows) != len(reports):
        return f"emit wrote {len(rows)} rows for {len(reports)} reports"
    for row, want in zip(rows, reports):
        if not _same(row, want):
            return f"emitted row {row} != report {want}"
    return None


def _cli(o, p, v, _):
    argv = p["argv"]
    if v["exit"] != 0:
        return f"cli {argv[0]} exited {v['exit']}"
    fmt = argv[argv.index("--format") + 1]
    try:
        rows = parse_rows(v["text"], fmt)
    except (ValueError, json.JSONDecodeError) as exc:
        return f"cli {argv[0]} output does not parse: {exc}"
    bad = [r for r in rows if r["verdict"] == "fail"]
    if bad:
        return f"cli {argv[0]} row failed: {bad[0]}"
    opt = dict(zip(argv[1::2], argv[2::2]))
    if not rows and argv[0] != "sieve":
        return f"cli {argv[0]} wrote no rows"
    if argv[0] == "sieve":
        lo, hi = float(opt["--lo"]), float(opt["--hi"])
        q, a = int(opt["--q"]), int(opt["--a"])
        ev = o.progression(q, a, hi)
        want = ev.pos[(ev.pos > lo) & (ev.pos <= hi)].tolist()
        got = [r["params"]["position"] for r in rows]
        return _exact(got, want, "cli sieve positions")
    if argv[0] == "zeros":
        label = opt.get("--component") or opt["--field"]
        want = 2 * int(np.searchsorted(o.ordinates(label),
                                       float(opt["--T"]), "right"))
        return _exact(int(rows[0]["metric"]), want, "cli zeros count")
    return None


CHECKS = {
    "pi_K": _pi_K, "psi_K": _psi_K, "delta_K": _delta_K,
    "bt_check_field": _bt_field, "bt_check_ap": _bt_ap,
    "cramer_ap": _cramer,
    "psi_ap": _psi_ap, "pi_ap": _pi_ap, "meansq_ratio": _meansq_ratio,
    "mean_square": _mean_square, "inertia_scan": _inertia,
    "residual_scan": _residual, "smoothed_sum": _smoothed_sum,
    "smoothed_prediction": _smoothed_prediction,
    "unweighted_sandwich": _sandwich, "count_zeros": _count_zeros,
    "predicted_count": _predicted, "emit": _emit, "cli": _cli,
}
