"""Step-function counters built from event arrays.

A StepCounter holds ascending event positions and their weights: the
right-continuous partial sum x -> sum_{n <= x} w_n.  A WindowSource
bundles one with its density and label; synthetic fixtures pass one
where a residue class or a field would go.  Every experiment reads its
own range (lo, hi] through `window_events`, a long one through
`window_reads` (its `window_events` read by read), and counts first
powers through `window_count`, in numfield's layout (positions,
exponents, weights): a field or a class (Q's events, the class kept)
from `numfield`, a StepCounter or WindowSource sliced, all of exponent
1; the Cramer scan takes only the first powers' positions, read by read
and unweighed, through `first_power_reads`.  Each refuses lo > hi and a
hi past the sieve ceiling, the two sweeps at each read, so that a sweep
of fewer than two edges reads and checks nothing.  `window_source`
still builds a whole-prefix counter over (0, hi]; no experiment reads
one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import numfield, sieve
from .sieve import ResidueClass, euler_phi


@dataclass(frozen=True)
class StepCounter:
    positions: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_events(cls, positions, weights) -> "StepCounter":
        positions = np.asarray(positions, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if len(positions) > 1 and np.any(np.diff(positions) < 0):
            raise ValueError("event positions must be ascending")
        return cls(positions, weights)


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
    if isinstance(target, numfield.NumberFieldSpec):
        return target.name or f"deg-{target.degree} field"
    raise TypeError(f"{type(target).__name__} is not an experiment target")


def drift(target) -> float:
    """Expected psi density per unit length: 1/phi(q), 1 for a field, or
    a WindowSource's own."""
    if isinstance(target, WindowSource):
        return target.drift
    if isinstance(target, ResidueClass):
        return 1.0 / euler_phi(target.modulus)
    if isinstance(target, numfield.NumberFieldSpec):
        return 1.0
    raise TypeError(f"{type(target).__name__} is not an experiment target")


def window_events(target, lo: float, hi: float):
    """(positions, exponents, weights) in (lo, hi]: of a number field or
    a class, `numfield.ideal_event_arrays`' columns (a class reads Q's
    store); of a StepCounter or WindowSource, its slice, every event of
    exponent 1.  ValueError if not lo <= hi (NaN included), CapacityError
    if hi passes the sieve ceiling; a window that ends below 1 is empty."""
    src, cls = _reader(target, lo, hi)
    if cls is None:
        i, j = src.positions.searchsorted((lo, hi), side="right")
        return (src.positions[i:j], np.ones(j - i, np.int16),
                src.weights[i:j])
    # no norm lies below 2: a window ending below 1 reads (1, 1]
    return numfield.ideal_event_arrays(src, max(lo, 1), max(hi, 1), cls)


def window_count(target, lo: float, hi: float) -> int:
    """np.count_nonzero(window_events(target, lo, hi)[1] == 1) without
    building the window: `numfield.first_power_count` for a field or a
    class, an index difference for a StepCounter or WindowSource."""
    src, cls = _reader(target, lo, hi)
    if cls is None:                     # all its events count
        return len(window_events(src, lo, hi)[0])
    return numfield.first_power_count(src, max(lo, 1), max(hi, 1), cls)


def window_reads(target, edges):
    """window_events over each (edges[i], edges[i + 1]] in turn, edges
    ascending; each read makes its own checks, and fewer than two edges
    read nothing."""
    return (window_events(target, lo, hi)
            for lo, hi in itertools.pairwise(edges))


def first_power_reads(target, edges):
    """The positions of the first powers (exponent 1) of each window_reads
    read in turn, float64, weighing nothing: a class's or a field's are
    `numfield.first_powers`."""
    for lo, hi in itertools.pairwise(edges):
        src, cls = _reader(target, lo, hi)
        yield (window_events(src, lo, hi)[0] if cls is None else
               numfield.first_powers(src, max(lo, 1), max(hi, 1), cls))


def _reader(target, lo, hi):
    """(field, class) that a class (Q's) or a field reads, or (counter,
    None) for a StepCounter or WindowSource; ValueError if not lo <= hi,
    and for a counter CapacityError past the ceiling (numfield checks it
    for the others)."""
    if isinstance(target, ResidueClass):
        found = numfield.preset("Q"), target
    elif isinstance(target, numfield.NumberFieldSpec):
        found = target, sieve.EVERYTHING
    elif isinstance(target, (WindowSource, StepCounter)):
        found = getattr(target, "psi", target), None
    else:
        raise TypeError(f"cannot read events of {type(target)}")
    if not lo <= hi:                    # NaN fails too
        raise ValueError(f"need lo <= hi, got lo={lo}, hi={hi}")
    if found[1] is None:
        sieve.check_capacity(hi)
    return found


def window_source(target, hi: float) -> WindowSource:
    """The whole-prefix counter over (0, hi] of a residue class or a
    number field."""
    pos, _, weights = window_events(target, 1, hi)
    return WindowSource(psi=StepCounter.from_events(pos, weights),
                        drift=drift(target), label=target_label(target))


progression_source = field_source = window_source
