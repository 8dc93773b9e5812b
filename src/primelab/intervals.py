"""Short-interval experiments: Delta(x, h) series, exact mean-square
integrals, inertia exceedance scans, Brun-Titchmarsh checks, and sliding
Cramer-window scans.

Each experiment reads only the events of the range it scans, once,
through `counters.window_events`; a window sum is the `math.fsum` of its
slice and a window count an index difference.  A target is a residue
class, a number field, or a prebuilt WindowSource (synthetic fixtures).

Delta(x, h) is piecewise constant in x (the drift term is linear only in
h, which is held fixed), so the mean-square integral is computed exactly
by sweeping the jump events.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .counters import drift, target_label, window_events
from .numfield import NumberFieldSpec
from .report import ExperimentReport
from .sieve import ResidueClass, euler_phi

log = logging.getLogger(__name__)

# most windows one Cramer scan may slide
MAX_WINDOWS = 10**5


def delta(x: float, h: float, target) -> float:
    """psi(x+h) - psi(x) - h * drift, read from (x, x+h]: for a class
    mod q the drift is 1/phi(q), for a field 1."""
    return math.fsum(window_events(target, x, x + h)[1]) - h * drift(target)


def delta_K(fld: NumberFieldSpec, x: float, h: float) -> float:
    """psi_K(x+h) - psi_K(x) - h: `delta` of the field."""
    return delta(x, h, fld)


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
    """Delta(., h) on [X, 2X], from one read of (X, 2X + h]."""
    pos, w, _ = window_events(target, X, 2 * X + h)
    pos = pos.astype(np.float64)
    # the window sum jumps by +w when x reaches n - h and -w at x = n
    up_mask = (pos - h > X) & (pos - h < 2 * X)
    dn_mask = pos < 2 * X
    bp = np.concatenate([pos[up_mask] - h, pos[dn_mask]])
    jumps = np.concatenate([w[up_mask], -w[dn_mask]])
    order = np.argsort(bp, kind="stable")
    bp, jumps = bp[order], jumps[order]
    v0 = math.fsum(w[pos <= X + h]) - h * drift(target)
    values = np.concatenate(([v0], v0 + np.cumsum(jumps)))
    return DeltaSeries(float(X), float(2 * X), float(h),
                       target_label(target), bp, values)


def mean_square(X: float, h: float, target) -> float:
    """Exact integral of Delta(x, h)^2 over [X, 2X] by event sweep."""
    if not 2 <= h <= X:
        raise ValueError(f"need 2 <= h <= X, got h={h}, X={X}")
    series = delta_series(X, h, target)
    return float(np.dot(series.values**2, series.piece_lengths()))


def _bound_for(target, X: float, h: float) -> float:
    if isinstance(target, ResidueClass):
        q = target.modulus
        return h * X * math.log(q * X) ** 2
    if not isinstance(target, NumberFieldSpec):
        raise TypeError(f"{type(target).__name__} is not a residue class "
                        f"or a number field, so it has no mean-square bound")
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
    point of each maximal exceedance interval.  Needs X > 0 (a nonempty
    range), h > 0 and persist_c > 0 (else every point exceeds)."""
    if not (X > 0 and h > 0 and persist_c > 0):
        raise ValueError(f"need X > 0, h > 0 and persist_c > 0, got X={X}, "
                         f"h={h}, persist_c={persist_c}")
    density = drift(target)
    if h * density <= X ** 0.1:
        log.warning("inertia range condition h*drift > X^(1/10) violated "
                    "(h*drift=%.3g, X^0.1=%.3g)", h * density, X**0.1)
    series = delta_series(X, h, target)
    threshold = h * density / 4.0
    level = persist_c * h * density
    edges = np.concatenate(([X], series.breakpoints, [2 * X]))
    size = np.abs(series.values)
    live = series.piece_lengths() > 0
    exceed = size > threshold
    # an interval runs from a hit (a live piece above the threshold) to
    # the last hit before the next live piece below it
    hits = np.flatnonzero(exceed & live)
    cuts = np.cumsum(live & ~exceed)[hits]
    first = hits[np.diff(cuts, prepend=-1) != 0]
    last = hits[np.diff(cuts, append=-1) != 0]
    # the persistence walk spreads from each interval's worst piece k
    # (which need not be above the level) over the pieces above it
    k = np.array([f + int(np.argmax(size[f:j + 1]))
                  for f, j in zip(first, last)], dtype=np.int64)
    # the nearest piece at or before / at or after each index not above it
    idx, n = np.arange(len(size)), len(size)
    above = size > level
    below_to = np.maximum.accumulate(np.where(above, -1, idx))
    below_from = np.minimum.accumulate(np.where(above, n, idx)[::-1])[::-1]
    lo = np.concatenate(([-1], below_to))[k] + 1
    hi = np.concatenate((below_from, [n]))[k + 1] - 1
    x_bar = 0.5 * (edges[k] + edges[k + 1])
    radius = np.minimum(x_bar - edges[lo], edges[hi + 1] - x_bar)
    intervals = list(zip(edges[first].tolist(), edges[last + 1].tolist()))
    persistence = list(zip(x_bar.tolist(), radius.tolist()))
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
    count = int(np.count_nonzero(window_events(cls, x, x + h)[2]))
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
    count = int(np.count_nonzero(window_events(fld, x, x + h)[2]))
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


def _window_law(target):
    """(law, density): the window length law(c1, x), for floats and (m=np)
    arrays alike, and the density that normalizes a count."""
    if isinstance(target, ResidueClass):
        phi = euler_phi(target.modulus)
        return (lambda c, x, m=math: c * phi * m.sqrt(x) * m.log(x)), phi
    if not isinstance(target, NumberFieldSpec):
        raise TypeError(f"{type(target).__name__} is not a residue class "
                        f"or a number field, so it has no window law")
    n_K, log_dk = target.degree, target.log_disc
    return (lambda c, x, m=math: c * (n_K * m.log(x) + log_dk) * m.sqrt(x)), 1


def cramer_window_scan(x_lo: float, x_hi: float, c1: float,
                       target) -> CramerScanResult:
    """Slide windows [x, x + h(x)] with the theorem window law and count
    primes / prime ideals in each.

    Reports the minimum normalized count (the empirical c2) and the
    largest normalized gap between consecutive events (the smallest c1
    that would keep every window nonempty).  Needs x_lo < x_hi and
    c1 > 0 with h(x_lo) > 0, so that h stays positive, and at most
    MAX_WINDOWS windows.
    """
    if isinstance(target, ResidueClass) and not target.is_unit:
        raise ValueError("theorem-level scan requires gcd(a, q) = 1")
    law, density = _window_law(target)
    if not (x_lo < x_hi and c1 > 0 and law(c1, x_lo) > 0):
        raise ValueError(f"need x_lo < x_hi and a positive window at x_lo, "
                         f"got x_lo={x_lo}, x_hi={x_hi}, c1={c1}")
    span = x_hi + law(c1, x_hi) * 1.01
    # positions are integers: (ceil(x_lo) - 1, span] holds every one >= x_lo
    pos, _, first = window_events(target, math.ceil(x_lo) - 1, span)
    # float keys on an int64 array would convert it on every search
    pos = pos[first].astype(np.float64)

    windows = []
    x = x_lo
    while x < x_hi:
        if len(windows) == MAX_WINDOWS:
            # also ends a step h/2 too small to change x in floating point
            raise ValueError(f"the scan exceeds {MAX_WINDOWS} windows; "
                             f"c1={c1} is too small")
        h = law(c1, x)
        count = int(np.searchsorted(pos, x + h, side="right")
                    - np.searchsorted(pos, x, side="right"))
        windows.append((x, h, count, count * density * math.log(x) / h))
        x += h / 2

    # normalized gaps between consecutive events inside the scan range
    inside = pos[(pos >= x_lo) & (pos <= x_hi)]
    c1_emp = 0.0
    if len(inside) >= 2:
        c1_emp = float(np.max(np.diff(inside) / law(1.0, inside[:-1], np)))

    c2 = min((norm for _, _, _, norm in windows), default=math.inf)
    verdict = "pass" if all(c >= 1 for _, _, c, _ in windows) else "fail"
    return CramerScanResult(target_label(target), c1, windows, float(c2),
                            c1_emp, verdict)
