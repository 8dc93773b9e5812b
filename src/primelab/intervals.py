"""Short-interval experiments: Delta(x, h) series, exact mean-square
integrals, inertia exceedance scans, Brun-Titchmarsh checks, and sliding
Cramer-window scans.

Delta(x, h) is piecewise constant in x (the drift term is linear only in
h, which is held fixed), so the mean-square integral is computed exactly
by sweeping the jump events.  The fine-sampling Riemann sum is retained
purely as a cross-check oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .counters import StepCounter, WindowSource, field_source, \
    progression_source, target_label
from .numfield import NumberFieldSpec, ideal_event_arrays
from .report import ExperimentReport
from .sieve import ResidueClass, euler_phi, sieve_primes

log = logging.getLogger(__name__)


def as_source(target, hi: float) -> WindowSource:
    """Accepts a ResidueClass, a NumberFieldSpec, or a prebuilt
    WindowSource (synthetic fixtures)."""
    if isinstance(target, WindowSource):
        return target
    if isinstance(target, ResidueClass):
        return progression_source(target, hi)
    if isinstance(target, NumberFieldSpec):
        return field_source(target, hi)
    raise TypeError(f"cannot build a window source from {type(target)}")


def delta(x: float, h: float, cls: ResidueClass) -> float:
    """psi(x+h; q, a) - psi(x; q, a) - h/phi(q)."""
    src = progression_source(cls, x + h)
    return src.delta(x, h)


def delta_K(fld: NumberFieldSpec, x: float, h: float) -> float:
    """psi_K(x+h) - psi_K(x) - h."""
    src = field_source(fld, x + h)
    return src.delta(x, h)


# ---------------------------------------------------------------------------
# piecewise representation of Delta(., h) on [X, 2X]

@dataclass(frozen=True)
class DeltaSeries:
    """Delta(., h) over [X, 2X] as jump breakpoints and piece values.

    values[i] is the constant on [breakpoints[i-1], breakpoints[i]) with
    the conventions values[0] on [X, breakpoints[0]) and values[-1] on
    [breakpoints[-1], 2X]; Delta is right-continuous at every jump.
    """

    start: float
    end: float
    h: float
    label: str
    breakpoints: np.ndarray
    values: np.ndarray

    def value_at(self, x):
        idx = np.searchsorted(self.breakpoints, x, side="right")
        out = self.values[idx]
        return float(out) if np.isscalar(x) else out

    def piece_lengths(self) -> np.ndarray:
        edges = np.concatenate(([self.start], self.breakpoints, [self.end]))
        return np.diff(edges)


def delta_series(X: float, h: float, target) -> DeltaSeries:
    source = as_source(target, 2 * X + h)
    psi = source.psi
    pos = psi.positions.astype(np.float64)
    w = psi.weights
    # the window sum jumps by +w when x reaches n - h and -w at x = n
    up_mask = (pos - h > X) & (pos - h < 2 * X)
    dn_mask = (pos > X) & (pos < 2 * X)
    bp = np.concatenate([pos[up_mask] - h, pos[dn_mask]])
    jumps = np.concatenate([w[up_mask], -w[dn_mask]])
    order = np.argsort(bp, kind="stable")
    bp, jumps = bp[order], jumps[order]
    v0 = source.delta(X, h)
    values = np.concatenate(([v0], v0 + np.cumsum(jumps)))
    return DeltaSeries(float(X), float(2 * X), float(h), source.label,
                       bp, values)


def mean_square(X: float, h: float, target) -> float:
    """Exact integral of Delta(x, h)^2 over [X, 2X] by event sweep."""
    if not 2 <= h <= X:
        raise ValueError(f"need 2 <= h <= X, got h={h}, X={X}")
    series = delta_series(X, h, target)
    return float(np.dot(series.values**2, series.piece_lengths()))


def mean_square_sampled(X: float, h: float, target,
                        step: float = 1e-2) -> float:
    """Riemann-sum cross-check of mean_square on a regular midpoint grid."""
    source = as_source(target, 2 * X + h)
    n = int(round(X / step))
    xs = X + (np.arange(n) + 0.5) * step
    d = source.psi.window(xs, h) - h * source.drift
    return float(np.sum(d * d) * step)


def _bound_for(target, X: float, h: float) -> float:
    if isinstance(target, ResidueClass):
        q = target.modulus
        return h * X * math.log(q * X) ** 2
    L = math.log(X)
    return X * (h + L**2) * (target.degree * L + target.log_disc) ** 2


def meansq_ratio(X: float, h: float, target, *,
                 ceiling: float = None) -> ExperimentReport:
    """Mean-square integral against its theoretical envelope shape.

    The envelope constants are unknown O-constants, so the verdict is
    report-only unless a caller-configured ceiling is exceeded.
    """
    ms = mean_square(X, h, target)
    bound = _bound_for(target, X, h)
    ratio = ms / bound
    params = {"X": X, "h": h, "target": target_label(target)}
    verdict = "report-only"
    if ceiling is not None:
        params["ceiling"] = ceiling
        verdict = "pass" if ratio <= ceiling else "fail"
    return ExperimentReport("meansq", params, metric=ms, bound=bound,
                            ratio=ratio, verdict=verdict)


# ---------------------------------------------------------------------------
# inertia

@dataclass(frozen=True)
class InertiaReport:
    threshold: float
    persistence_level: float
    exceedance_intervals: list       # maximal [lo, hi) with |Delta| > thr
    persistence: list                # (x_bar, radius) per interval
    series: DeltaSeries

    @property
    def is_empty(self) -> bool:
        return not self.exceedance_intervals


def inertia_scan(X: float, h: float, target, *,
                 persist_c: float = 0.125) -> InertiaReport:
    """Exceedance set E(X, h) = {x in [X, 2X]: |Delta| > thr} with the
    threshold h*drift/4, plus the persistence radius around the worst
    point of each maximal exceedance interval.  Needs h > 0 and
    persist_c > 0: otherwise every point exceeds the level."""
    if not (h > 0 and persist_c > 0):
        raise ValueError(f"need h > 0 and persist_c > 0, got h={h}, "
                         f"persist_c={persist_c}")
    source = as_source(target, 2 * X + h)
    if h * source.drift <= X ** 0.1:
        log.warning("inertia range condition h*drift > X^(1/10) violated "
                    "(h*drift=%.3g, X^0.1=%.3g)", h * source.drift, X**0.1)
    series = delta_series(X, h, target)
    threshold = h * source.drift / 4.0
    level = persist_c * h * source.drift
    edges = np.concatenate(([X], series.breakpoints, [2 * X]))
    vals = series.values
    exceed = np.abs(vals) > threshold
    nonzero = series.piece_lengths() > 0
    intervals = []
    spans = []          # (first_piece, last_piece) per interval
    i = 0
    while i < len(vals):
        if exceed[i] and nonzero[i]:
            j = i
            while j + 1 < len(vals) and (exceed[j + 1] or not nonzero[j + 1]):
                j += 1
            while not (exceed[j] and nonzero[j]):
                j -= 1
            intervals.append((float(edges[i]), float(edges[j + 1])))
            spans.append((i, j))
            i = j + 1
        else:
            i += 1
    persistence = []
    above = np.abs(vals) > level
    for first, last in spans:
        k = first + int(np.argmax(np.abs(vals[first:last + 1])))
        x_bar = 0.5 * (edges[k] + edges[k + 1])
        lo, hi = k, k
        while lo - 1 >= 0 and above[lo - 1]:
            lo -= 1
        while hi + 1 < len(vals) and above[hi + 1]:
            hi += 1
        radius = min(x_bar - edges[lo], edges[hi + 1] - x_bar)
        persistence.append((float(x_bar), float(radius)))
    return InertiaReport(float(threshold), float(level), intervals,
                         persistence, series)


# ---------------------------------------------------------------------------
# Brun-Titchmarsh checks

def bt_check_ap(x: float, h: float, cls: ResidueClass) -> ExperimentReport:
    """Montgomery-Vaughan bound: pi(x+h; q, a) - pi(x; q, a)
    <= 2h / (phi(q) log(h/q))."""
    q = cls.modulus
    if h <= q:
        raise ValueError(f"need h > q, got h={h}, q={q}")
    if not cls.is_unit:
        raise ValueError(f"gcd(a, q) must be 1, got a={cls.residue}, q={q}")
    primes = sieve_primes(x, x + h)
    if q > 1:
        primes = primes[primes % q == cls.residue]
    count = int(len(primes))
    bound = 2 * h / (euler_phi(q) * math.log(h / q))
    return ExperimentReport(
        "bt_ap",
        {"x": x, "h": h, "q": q, "a": cls.residue},
        metric=float(count), bound=bound, ratio=count / bound,
        verdict="pass" if count <= bound else "fail")


def bt_check_field(fld: NumberFieldSpec, x: float,
                   h: float) -> ExperimentReport:
    """Uniform number-field bound: pi_K(x+h) - pi_K(x) <= 4 n_K h / log h."""
    if not 2 <= h <= x:
        raise ValueError(f"need 2 <= h <= x, got h={h}, x={x}")
    _, _, _, first = ideal_event_arrays(fld, x, x + h)
    count = int(np.count_nonzero(first))
    bound = 4 * fld.degree * h / math.log(h)
    return ExperimentReport(
        "bt_field",
        {"x": x, "h": h, "field": fld.name, "n_K": fld.degree},
        metric=float(count), bound=bound, ratio=count / bound,
        verdict="pass" if count <= bound else "fail")


# ---------------------------------------------------------------------------
# Cramer window scans

@dataclass(frozen=True)
class CramerScanResult:
    target_label: str
    c1: float
    windows: list            # (x, h, count, normalized_count)
    c2_empirical: float      # min over windows of the normalized count
    c1_empirical: float      # largest normalized gap observed
    verdict: str

    def window_reports(self) -> list:
        rows = []
        for x, h, count, norm in self.windows:
            rows.append(ExperimentReport(
                "cramer_window",
                {"x": x, "h": h, "target": self.target_label,
                 "c1": self.c1},
                metric=float(count), bound=1.0, ratio=norm,
                verdict="pass" if count >= 1 else "fail"))
        return rows

    def summary_report(self) -> ExperimentReport:
        return ExperimentReport(
            "cramer_scan",
            {"target": self.target_label, "c1": self.c1,
             "c1_empirical": self.c1_empirical,
             "windows": len(self.windows)},
            metric=self.c2_empirical, bound=None, ratio=None,
            verdict=self.verdict)


def _window_law(target, c1):
    if isinstance(target, ResidueClass):
        phi = euler_phi(target.modulus)

        def h_of(x):
            return c1 * phi * math.sqrt(x) * math.log(x)

        def normalize(count, x, h):
            return count * phi * math.log(x) / h
    else:
        n_K, log_dk = target.degree, target.log_disc

        def h_of(x):
            return c1 * (n_K * math.log(x) + log_dk) * math.sqrt(x)

        def normalize(count, x, h):
            return count * math.log(x) / h
    return h_of, normalize


def cramer_window_scan(x_lo: float, x_hi: float, c1: float,
                       target) -> CramerScanResult:
    """Slide windows [x, x + h(x)] with the theorem window law and count
    primes / prime ideals in each.

    Reports the minimum normalized count (the empirical c2) and the
    largest normalized gap between consecutive events (the smallest c1
    that would keep every window nonempty).  Needs x_lo < x_hi and
    c1 > 0 with h(x_lo) > 0, so that h stays positive and every step
    advances x.
    """
    if isinstance(target, ResidueClass) and not target.is_unit:
        raise ValueError("theorem-level scan requires gcd(a, q) = 1")
    h_of, normalize = _window_law(target, c1)
    if not (x_lo < x_hi and c1 > 0 and h_of(x_lo) > 0):
        raise ValueError(f"need x_lo < x_hi and a positive window at x_lo, "
                         f"got x_lo={x_lo}, x_hi={x_hi}, c1={c1}")
    span = x_hi + h_of(x_hi) * 1.01
    source = as_source(target, span)
    pi = source.pi

    windows = []
    x = x_lo
    while x < x_hi:
        h = h_of(x)
        count = int(round(pi.window(x, h)))
        windows.append((x, h, count, normalize(count, x, h)))
        x += h / 2

    # normalized gaps between consecutive events inside the scan range
    pos = pi.positions
    inside = pos[(pos >= x_lo) & (pos <= x_hi)]
    c1_emp = 0.0
    if len(inside) >= 2:
        gaps = np.diff(inside)
        base = inside[:-1].astype(np.float64)
        if isinstance(target, ResidueClass):
            scale = euler_phi(target.modulus) * np.sqrt(base) * np.log(base)
        else:
            scale = (target.degree * np.log(base)
                     + target.log_disc) * np.sqrt(base)
        c1_emp = float(np.max(gaps / scale))

    c2 = min((norm for _, _, _, norm in windows), default=math.inf)
    verdict = "pass" if all(c >= 1 for _, _, c, _ in windows) else "fail"
    return CramerScanResult(target_label(target), c1, windows, float(c2),
                            c1_emp, verdict)
