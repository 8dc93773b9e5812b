"""Truncated explicit formula, triangle-smoothed sums, and the
epsilon-sandwich for unweighted short-interval sums.

Zero sums pair each positive ordinate with its conjugate, so every value
here is real by construction.  Terms are accumulated with exactly
rounded summation (math.fsum), which subsumes the compensated
descending-order accumulation one would otherwise need: the terms decay
like 1/gamma and naive left-to-right addition loses digits by T ~ 10^3.

Sources (a class, a field, a StepCounter or a WindowSource) are read
through `counters.window_events`; `residual_scan` sweeps (0, max x] in
the reads `numfield.read_edges` cuts (`counters.window_reads`, its
`window_events` read by read) and carries psi(x) across them as a
running float sum, the `np.cumsum` prefix (not exact, but independent
of where the reads end).  Sums of array terms go through math.fsum as
lists: fsum boxes each element of an array as an np.float64, which
costs more than the list.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import numfield
from .counters import window_events, window_reads
from .errors import ZeroTableError
from .zeros import ZeroTable

log = logging.getLogger(__name__)

EVENT_NUDGE = 1e-6


@dataclass(frozen=True)
class TruncationSpec:
    """Zero-sum truncation height plus the field data entering the
    normalization."""

    height: float
    zeros: ZeroTable
    degree: int = 1          # n_K
    disc: int = 1            # d_K

    def __post_init__(self):
        if not self.height >= 2:              # NaN fails too
            raise ValueError(f"height must be >= 2, got {self.height}")
        if not self.degree >= 1:
            raise ValueError(f"degree n_K must be >= 1, got {self.degree}")
        if not self.disc >= 1:
            raise ValueError(f"disc d_K must be >= 1, got {self.disc}")
        if self.height > self.zeros.completeness_height:
            raise ZeroTableError(
                f"truncation height {self.height} beyond table height "
                f"{self.zeros.completeness_height}")

    def ordinates(self) -> np.ndarray:
        g = self.zeros.ordinates
        return g[: np.searchsorted(g, self.height, side="right")]


def _zero_sum_psi(x: float, gammas: np.ndarray) -> float:
    # sum over conjugate pairs of x^rho / rho at rho = 1/2 + i gamma:
    # 2 Re(x^rho/rho) = 2 sqrt(x) (cos(g L)/2 + g sin(g L)) / (1/4 + g^2)
    L = math.log(x)
    terms = 2.0 * math.sqrt(x) * (0.5 * np.cos(gammas * L)
                                  + gammas * np.sin(gammas * L)) \
        / (0.25 + gammas * gammas)
    return math.fsum(terms.tolist())


def truncated_psi(x: float, spec: TruncationSpec) -> float:
    """x - sum_{|gamma| <= T} x^rho / rho, plus the classical constant
    and trivial-zero corrections when n_K = 1.

    For n_K >= 2 those lower-order terms are left inside the reported
    residual, whose error envelope absorbs them.
    """
    if not 2 <= x < math.inf:               # NaN fails too
        raise ValueError(f"x must be >= 2 and finite, got {x}")
    value = x - _zero_sum_psi(x, spec.ordinates())
    if spec.degree == 1:
        value += -math.log(2 * math.pi) - 0.5 * math.log(1.0 - x**-2)
    return value


@dataclass(frozen=True)
class ResidualScan:
    xs: np.ndarray
    residuals: np.ndarray
    normalized: np.ndarray


def _psi_at(read, psi: float, xs):
    """(psi at the read's end, the probes xs nudged off a jump as
    `residual_scan` says, psi at each) from the window_events columns of
    one read, given psi at its start; each nudged probe lies in the read."""
    pos, _, w = read
    # float keys on an int64 array would convert it on every search; the
    # sentinel lets a probe past the last event look one up
    pos = np.append(pos, np.inf)
    prefix = np.cumsum(np.concatenate(([psi], w)))
    near = pos[pos.searchsorted(xs - EVENT_NUDGE)]
    hit = np.abs(near - xs) <= EVENT_NUDGE
    for x in xs[hit].tolist():
        log.warning("probe x=%s collides with an event; nudging by %g",
                    x, EVENT_NUDGE)
    xs = np.where(hit, near + EVENT_NUDGE, xs)
    return prefix[-1], xs, prefix[pos.searchsorted(xs, side="right")]


def residual_scan(source, spec: TruncationSpec, xs) -> ResidualScan:
    """Pointwise residual psi(x) - truncated_psi(x) with the
    normalization T / (x (n_K log x + log d_K) log x), in the order of
    xs, for any source `window_events` reads whose positions are integers
    (norms).  A probe below 2 (or NaN), which `truncated_psi` refuses, is
    refused before any read.

    Probe points within EVENT_NUDGE of a jump are moved just past it so
    the comparison sits on a consistent side of the discontinuity.  The
    probes are taken in ascending order, in one sweep (`window_reads`) of
    (0, max x + 3 EVENT_NUDGE] cut by `numfield.read_edges`.  The one
    event a probe x may be nudged past is n = ceil(x - EVENT_NUDGE), and
    interior edges are integers, so x is taken with the read that ends at
    or past n (the last read if n lies past the sweep): it holds every
    event at or below the nudged x, and the reads before it none above.
    psi is carried across reads by the running np.cumsum, which adds
    strictly left to right, so the read edges do not change it.
    """
    xs = np.asarray(list(xs), dtype=np.float64)
    if not np.all(xs >= 2):                       # NaN fails too
        raise ValueError(f"x must be >= 2, got {xs.min()}")
    out_x, residuals, normalized = (np.empty(len(xs)) for _ in range(3))
    if not len(xs):
        return ResidualScan(out_x, residuals, normalized)
    order = np.argsort(xs, kind="stable")
    edges = numfield.read_edges(0, xs.max() + 3 * EVENT_NUDGE)
    # the probes taken by each read: those whose n is at most its end
    taken = [0, *np.ceil(xs[order] - EVENT_NUDGE).searchsorted(
        edges[1:-1], side="right").tolist(), len(xs)]
    log_dk = math.log(spec.disc)
    psi = 0.0
    for (k, j), read in zip(itertools.pairwise(taken),
                            window_reads(source, edges)):
        psi, nudged, values = _psi_at(read, psi, xs[order[k:j]])
        for i, x, value in zip(order[k:j], nudged.tolist(), values.tolist()):
            r = value - truncated_psi(x, spec)
            scale = spec.height / (x * (spec.degree * math.log(x) + log_dk)
                                   * math.log(x))
            out_x[i], residuals[i], normalized[i] = x, r, r * scale
    return ResidualScan(out_x, residuals, normalized)


def smoothed_sum(x: float, h: float, source) -> float:
    """W(x, h) = sum of Lambda-type weights times the triangle weight
    over the open window (x-h, x+h); exact event sum."""
    if not h > 0:                       # NaN fails too
        raise ValueError(f"h must be positive, got {h}")
    pos, _, w = window_events(source, x - h, x + h)
    j = np.searchsorted(pos, x + h)         # the window is open at x + h
    tri = 1.0 - np.abs(x - pos[:j]) / h
    return math.fsum((w[:j] * tri).tolist())


def smoothed_prediction(x: float, h: float, spec: TruncationSpec) -> float:
    """Zero expansion of W(x, h):
    h - (1/h) sum_rho [(x+h)^{rho+1} - 2 x^{rho+1} + (x-h)^{rho+1}]
                      / (rho (rho+1)),
    truncated at the spec height, conjugate pairs combined."""
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    if not 2 <= x - h <= x + h < math.inf:  # NaN fails too
        raise ValueError(f"need x - h >= 2 and x + h finite, got x={x}, "
                         f"h={h}")
    rho = 0.5 + 1j * spec.ordinates()

    def upper(t):
        return np.exp((rho + 1) * math.log(t))

    num = upper(x + h) - 2 * upper(x) + upper(x - h)
    terms = 2.0 * np.real(num / (rho * (rho + 1)))
    return h - math.fsum(terms.tolist()) / h


def unweighted_sandwich(x: float, h: float, eps: float, source) -> tuple:
    """(lower, upper) bounds for psi(x+h) - psi(x-h) derived from three
    triangle-smoothed sums; valid for any nonnegative event weights."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    w_mid = smoothed_sum(x, h, source)
    w_lo = smoothed_sum(x, (1 - eps) * h, source)
    w_hi = smoothed_sum(x, (1 + eps) * h, source)
    lower = -((1 - eps) * w_lo - w_mid) / eps
    upper = ((1 + eps) * w_hi - w_mid) / eps
    return lower, upper
