"""Step-function counters built from event arrays.

A StepCounter holds ascending event positions and their weights: the
right-continuous partial sum x -> sum_{n <= x} w_n.  Every experiment
reads the events of its own range through `window_events`: a field's
and a residue class's come from `numfield.ideal_event_arrays`, exponents
as a first-power mask (a class reads Q's events: a slice of Q's store
with the class kept, or past the store a sieve of the class alone), and
a StepCounter or WindowSource is sliced.  A long range is read through
`window_reads`, one read of `numfield.sweep` at a time.
A WindowSource bundles one counter with its expected density and label:
synthetic fixtures build one from raw arrays and pass it where a residue
class or a field would go.  An experiment target is a class, a field or
a WindowSource; `drift` and `target_label` refuse anything else.
`window_source` still builds a whole-prefix counter over (0, hi]; no
experiment reads one.
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
    """(positions, weights, first-power mask) in (lo, hi] of a number
    field or a class, through `numfield.ideal_event_arrays` (a class
    reads Q's store), or of a StepCounter or WindowSource, whose events
    all count as first powers.  A field's or a class's window raises
    ValueError if lo > hi and is empty if it ends below 1."""
    if isinstance(target, WindowSource):
        target = target.psi
    if isinstance(target, StepCounter):
        i, j = target.positions.searchsorted((lo, hi), side="right")
        return (target.positions[i:j], target.weights[i:j],
                np.ones(j - i, bool))
    fld, cls = _field_of(target, lo, hi)
    # no norm lies below 2: a window ending below 1 reads (1, 1]
    return _as_window(numfield.ideal_event_arrays(fld, max(lo, 1),
                                                  max(hi, 1), cls))


def window_reads(target, edges):
    """window_events over each (edges[i], edges[i + 1]] in turn, edges
    ascending: a class's or a field's as one `numfield.sweep`."""
    if isinstance(target, (WindowSource, StepCounter)):
        return (window_events(target, lo, hi)
                for lo, hi in itertools.pairwise(edges))
    fld, cls = _field_of(target, edges[0], edges[-1])
    return map(_as_window, numfield.sweep(fld, [max(e, 1) for e in edges],
                                          cls))


def _field_of(target, lo, hi):
    """(field, class) whose events a class (Q's) or a field reads over
    (lo, hi]; ValueError if lo > hi."""
    cls = sieve.EVERYTHING
    if isinstance(target, ResidueClass):
        target, cls = numfield.preset("Q"), target
    elif not isinstance(target, numfield.NumberFieldSpec):
        raise TypeError(f"cannot read events of {type(target)}")
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got lo={lo}, hi={hi}")
    return target, cls


def _as_window(columns):
    pos, expo, weights = columns
    return pos, weights, expo == 1


def window_source(target, hi: float) -> WindowSource:
    """The whole-prefix counter over (0, hi] of a residue class or a
    number field."""
    pos, weights, _ = window_events(target, 1, hi)
    return WindowSource(psi=StepCounter.from_events(pos, weights),
                        drift=drift(target), label=target_label(target))


progression_source = field_source = window_source
