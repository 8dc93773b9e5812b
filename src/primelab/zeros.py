"""Ingestion of nontrivial-zero ordinate tables, by one cached path
from any manifest (vendored, or named by `--zero-manifest` or
$PRIMELAB_ZERO_MANIFEST), and the zero-counting prediction.

Tables store positive ordinates only; every zero is taken on the
half-line (rho = 1/2 + i*gamma) and counted with both signs.  Queries
above the certified completeness height raise rather than silently
undercounting.
"""

from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ZeroTableError

MIN_ORDINATE = 1e-6   # a table claiming a zero this low is rejected


@dataclass(frozen=True)
class ZeroTable:
    ordinates: np.ndarray
    completeness_height: float
    label: str

    def __len__(self):
        return len(self.ordinates)


def load_zeros(source, completeness_height: float, label: str) -> ZeroTable:
    """Parse one ordinate per line; `#` comments and blank lines allowed.

    source may be a filesystem path, a text stream, or a bytes blob.
    The completeness height must be positive and finite.
    """
    height = float(completeness_height)
    if not 0 < height < math.inf:       # NaN fails too
        raise ZeroTableError(f"{label}: completeness height must be "
                             f"positive and finite, got {height}")
    if isinstance(source, bytes):
        source = io.StringIO(source.decode())
    fh = open(source) if isinstance(source, (str, os.PathLike)) else source
    ordinates = []
    prev = 0.0
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                g = float(line)
            except ValueError:
                raise ZeroTableError(
                    f"{label}: line {lineno}: not a number: {line!r}")
            if g < MIN_ORDINATE:
                raise ZeroTableError(
                    f"{label}: line {lineno}: ordinate {g} below "
                    f"{MIN_ORDINATE}")
            if g < prev:
                raise ZeroTableError(
                    f"{label}: line {lineno}: ordinate {g} breaks "
                    f"monotonicity (previous {prev})")
            ordinates.append(g)
            prev = g
    return ZeroTable(np.array(ordinates, dtype=np.float64), height, label)


def combine(tables) -> ZeroTable:
    """Multiset union of component tables; completeness is the min.

    For quadratic K this realizes zeta_K = zeta * L(chi_d): the Dedekind
    zeros are the union of the component zeros.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one table")
    merged = np.sort(np.concatenate([t.ordinates for t in tables]))
    height = min(t.completeness_height for t in tables)
    label = "+".join(t.label for t in tables)
    return ZeroTable(merged, height, label)


def count_zeros(table: ZeroTable, T: float) -> int:
    """N(T): zeros with |gamma| <= T, both signs."""
    if math.isnan(T):
        raise ValueError(f"T must be a number, got {T}")
    if T > table.completeness_height:
        raise ZeroTableError(
            f"{table.label}: T={T} beyond certified height "
            f"{table.completeness_height}")
    return 2 * int(np.searchsorted(table.ordinates, T, side="right"))


def predicted_count(n_K: int, d_K: int, T: float) -> float:
    """Main terms of the zero-counting formula:
    (n_K/pi) T log T + (T/pi) log(d_K / (2 pi e)^n_K), for a degree
    n_K >= 1 and an absolute discriminant d_K >= 1."""
    if not 2 <= T < math.inf:           # NaN fails too
        raise ValueError(f"T must be >= 2 and finite, got {T}")
    if not n_K >= 1:
        raise ValueError(f"n_K must be >= 1, got {n_K}")
    if not d_K >= 1:
        raise ValueError(f"d_K must be >= 1, got {d_K}")
    return (n_K / math.pi) * T * math.log(T) \
        + (T / math.pi) * math.log(d_K / (2 * math.pi * math.e) ** n_K)


# ---------------------------------------------------------------------------
# shipped tables

MANIFEST_ENV = "PRIMELAB_ZERO_MANIFEST"


def _resolve_manifest(path):
    """path, else $PRIMELAB_ZERO_MANIFEST, made absolute; else None
    (vendored tables)."""
    path = path if path is not None else os.environ.get(MANIFEST_ENV)
    return None if path is None else Path(path).resolve()


def load_manifest(path=None) -> dict:
    """Manifest lines `label; filename; completeness_height`, as
    label -> (file, height), each file resolved against the manifest's
    own directory (the package's data directory for the vendored one)."""
    path = _resolve_manifest(path)
    manifest = resources.files("primelab") / "data" / "manifest.txt" \
        if path is None else Path(path)
    entries = {}
    with manifest.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                label, fname, height = (s.strip() for s in line.split(";"))
                entries[label] = (manifest.parent / fname, float(height))
            except ValueError:          # not three fields, or no number
                raise ZeroTableError(
                    f"manifest line {lineno}: expected `label; file; height`"
                    f" with a numeric height, got {line!r}")
    return entries


def component_table(label: str, manifest_path=None) -> ZeroTable:
    """One component's table, cached per resolved manifest path."""
    return _component_table(label, _resolve_manifest(manifest_path))


@functools.cache
def _component_table(label: str, path) -> ZeroTable:
    entries = load_manifest(path)
    if label not in entries:
        raise ZeroTableError(f"no component {label!r} in manifest; have "
                             f"{sorted(entries)}")
    file, height = entries[label]
    with file.open() as fh:
        return load_zeros(fh, height, label)


# single-component tables: label -> (n_K-equivalent, conductor)
COMPONENTS = {"zeta": (1, 1), "chi4": (1, 4), "chi5": (1, 5)}

# component labels making up the Dedekind zeta of each shipped field
FIELD_COMPONENTS = {
    "Q": ("zeta",),
    "Q(i)": ("zeta", "chi4"),
    "Q(sqrt5)": ("zeta", "chi5"),
}


def field_table(field_name: str, manifest_path=None) -> ZeroTable:
    if field_name not in FIELD_COMPONENTS:
        raise ZeroTableError(
            f"no shipped zero data for field {field_name!r}; have "
            f"{sorted(FIELD_COMPONENTS)}")
    return combine(component_table(lbl, manifest_path)
                   for lbl in FIELD_COMPONENTS[field_name])
