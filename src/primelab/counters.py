"""Step-function counters built from event arrays.

A StepCounter is the right-continuous partial sum x -> sum_{n <= x} w_n.
WindowSource bundles the weighted (psi-type) and unit (pi-type) counters
for one residue class or number field together with the expected density,
which is what the short-interval experiments consume.  Both kinds of
target read their events through `window_events`, from the event store
`numfield` keeps per field; a residue class is a filter on Q's events.
Synthetic fixtures can build a WindowSource directly from raw arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numfield, sieve
from .sieve import ResidueClass, euler_phi


@dataclass(frozen=True)
class StepCounter:
    positions: np.ndarray
    weights: np.ndarray
    cumulative: np.ndarray = field(repr=False)

    @classmethod
    def from_events(cls, positions, weights) -> "StepCounter":
        positions = np.asarray(positions, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if len(positions) > 1 and np.any(np.diff(positions) < 0):
            raise ValueError("event positions must be ascending")
        # cumulative[k] = sum of the first k weights (leading zero included)
        return cls(positions, weights,
                   np.concatenate(([0.0], np.cumsum(weights))))

    def value(self, x):
        """Counter value at x; scalar or numpy-broadcast."""
        idx = np.searchsorted(self.positions, x, side="right")
        out = self.cumulative[idx]
        return float(out) if np.isscalar(x) else out

    def window(self, x, h):
        """Sum of weights over x < n <= x + h."""
        lo = np.searchsorted(self.positions, x, side="right")
        hi = np.searchsorted(self.positions, np.asarray(x) + h, side="right")
        out = self.cumulative[hi] - self.cumulative[lo]
        return float(out) if np.isscalar(x) else out


@dataclass(frozen=True)
class WindowSource:
    """Counters for one class/field, valid on positions in (0, span]."""

    psi: StepCounter
    pi: StepCounter
    drift: float            # expected psi density per unit length
    span: float
    label: str


def target_label(target) -> str:
    """Report label of a residue class (`q=..,a=..`), a number field or a
    prebuilt WindowSource."""
    if isinstance(target, WindowSource):
        return target.label
    if isinstance(target, ResidueClass):
        return f"q={target.modulus},a={target.residue}"
    return target.name or f"deg-{target.degree} field"


def window_events(target, lo: float, hi: float):
    """(positions, weights, first-power mask) in (lo, hi] of a number
    field, from its store in `numfield`, or of a class, from Q's."""
    cls = sieve.EVERYTHING
    if isinstance(target, ResidueClass):
        target, cls = numfield.preset("Q"), target
    elif not isinstance(target, numfield.NumberFieldSpec):
        raise TypeError(f"cannot read events of {type(target)}")
    pos, weights, _, first = numfield.ideal_event_arrays(
        target, max(lo, 1), hi, cls)
    return pos, weights, first


def drift(target) -> float:
    """Expected psi density per unit length: 1/phi(q) or 1."""
    return 1.0 / euler_phi(target.modulus) \
        if isinstance(target, ResidueClass) else 1.0


def window_source(target, hi: float) -> WindowSource:
    """Counters over (0, hi] for a residue class or a number field."""
    pos, weights, first = window_events(target, 1, hi)
    primes = pos[first]
    return WindowSource(
        psi=StepCounter.from_events(pos, weights),
        pi=StepCounter.from_events(primes, np.ones(len(primes))),
        drift=drift(target),
        span=float(hi),
        label=target_label(target),
    )


progression_source = field_source = window_source
