"""Step-function counters built from event arrays.

A StepCounter is the right-continuous partial sum x -> sum_{n <= x} w_n.
WindowSource bundles the weighted (psi-type) and unit (pi-type) counters
for one residue class or number field together with the expected density,
which is what the short-interval experiments consume.  Synthetic fixtures
can build a WindowSource directly from raw arrays.
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

    def delta(self, x, h):
        """psi(x+h) - psi(x) - h * drift."""
        return self.psi.window(x, h) - h * self.drift


def target_label(target) -> str:
    """Report label of a residue class (`q=..,a=..`), a number field or a
    prebuilt WindowSource."""
    if isinstance(target, WindowSource):
        return target.label
    if isinstance(target, ResidueClass):
        return f"q={target.modulus},a={target.residue}"
    return target.name or f"deg-{target.degree} field"


def progression_source(cls: ResidueClass, hi: float) -> WindowSource:
    pos, _, expo, weights = sieve.event_arrays(1, hi, cls)
    primes = pos[expo == 1]
    return WindowSource(
        psi=StepCounter.from_events(pos, weights),
        pi=StepCounter.from_events(primes, np.ones(len(primes))),
        drift=1.0 / euler_phi(cls.modulus),
        span=float(hi),
        label=target_label(cls),
    )


def field_source(fld, hi: float) -> WindowSource:
    pos, weights, expo, first = numfield.ideal_event_arrays(fld, 1, hi)
    ideals = pos[first]
    return WindowSource(
        psi=StepCounter.from_events(pos, weights),
        pi=StepCounter.from_events(ideals, np.ones(len(ideals))),
        drift=1.0,
        span=float(hi),
        label=target_label(fld),
    )
