"""Step-function counters built from event arrays.

A StepCounter is the right-continuous partial sum x -> sum_{n <= x} w_n
over the events it was built from; its window sums are exactly rounded
(`math.fsum` of the slice).  Every experiment reads the events of its own
range through `window_events`, from the event store `numfield` keeps per
field; a residue class is a filter on Q's events.  Whole-prefix counters
(`progression_source`, `field_source`) are built only where a prefix
value psi(x) is read.  A WindowSource bundles one counter with its
expected density and label: synthetic fixtures build one from raw arrays
and pass it where a residue class or a field would go.
"""

from __future__ import annotations

import math
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

    def window(self, x: float, h: float) -> float:
        """Exactly rounded sum of weights over x < n <= x + h."""
        lo = np.searchsorted(self.positions, x, side="right")
        hi = np.searchsorted(self.positions, x + h, side="right")
        return math.fsum(self.weights[lo:hi])


@dataclass(frozen=True)
class WindowSource:
    """A prebuilt psi-type counter with its expected density per unit
    length and its report label."""

    psi: StepCounter
    drift: float
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
    field, from its store in `numfield`, of a class, from Q's, or of a
    WindowSource, whose events all count as first powers."""
    if isinstance(target, WindowSource):
        psi = target.psi
        i, j = np.searchsorted(psi.positions, [lo, hi], side="right")
        return psi.positions[i:j], psi.weights[i:j], np.ones(j - i, bool)
    cls = sieve.EVERYTHING
    if isinstance(target, ResidueClass):
        target, cls = numfield.preset("Q"), target
    elif not isinstance(target, numfield.NumberFieldSpec):
        raise TypeError(f"cannot read events of {type(target)}")
    pos, weights, _, first = numfield.ideal_event_arrays(
        target, max(lo, 1), hi, cls)
    return pos, weights, first


def drift(target) -> float:
    """Expected psi density per unit length: 1/phi(q), 1 for a field, or
    a WindowSource's own."""
    if isinstance(target, WindowSource):
        return target.drift
    return 1.0 / euler_phi(target.modulus) \
        if isinstance(target, ResidueClass) else 1.0


def window_source(target, hi: float) -> WindowSource:
    """The whole-prefix counter over (0, hi] of a residue class or a
    number field."""
    pos, weights, _ = window_events(target, 1, hi)
    return WindowSource(psi=StepCounter.from_events(pos, weights),
                        drift=drift(target), label=target_label(target))


progression_source = field_source = window_source
