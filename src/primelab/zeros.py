"""Ingestion of nontrivial-zero ordinate tables and the zero-counting
prediction.

Tables store positive ordinates only; every zero is taken on the
half-line (rho = 1/2 + i*gamma) and counted with both signs.  Queries
above the certified completeness height raise rather than silently
undercounting.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass
from importlib import resources

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

    source may be a filesystem path, a text/byte stream, or a bytes blob.
    """
    if isinstance(source, (str, os.PathLike)):
        fh = open(source)
    elif isinstance(source, bytes):
        fh = io.StringIO(source.decode())
    else:
        fh = source
    ordinates = []
    prev = 0.0
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            if isinstance(raw, bytes):
                raw = raw.decode()
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
    return ZeroTable(np.array(ordinates, dtype=np.float64),
                     float(completeness_height), label)


def combine(tables) -> ZeroTable:
    """Multiset union of component tables; completeness is the min.

    For quadratic K this realizes zeta_K = zeta * L(chi_d): the Dedekind
    zeros are the union of the component zeros.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one table")
    if len(tables) == 1:
        return tables[0]
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
    """path, else $PRIMELAB_ZERO_MANIFEST, else None (vendored tables)."""
    return path if path is not None else os.environ.get(MANIFEST_ENV)


def load_manifest(path=None) -> dict:
    """Manifest lines `label; filename; completeness_height`; file paths
    are resolved relative to the manifest."""
    path = _resolve_manifest(path)
    handle = open(path) if path is not None else \
        (resources.files("primelab") / "data" / "manifest.txt").open()
    base = os.path.dirname(str(path)) if path is not None else None
    entries = {}
    with handle as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [s.strip() for s in line.split(";")]
            if len(parts) != 3:
                raise ZeroTableError(
                    f"manifest line {lineno}: expected `label; file; height`")
            label, fname, height = parts
            entries[label] = (fname, float(height), base)
    return entries


_table_cache: dict = {}


def component_table(label: str, manifest_path=None) -> ZeroTable:
    """One component's table, cached per resolved manifest path."""
    path = _resolve_manifest(manifest_path)
    key = (label, path)
    if key in _table_cache:
        return _table_cache[key]
    entries = load_manifest(path)
    if label not in entries:
        raise ZeroTableError(f"no component {label!r} in manifest; have "
                             f"{sorted(entries)}")
    fname, height, base = entries[label]
    if base is not None:
        table = load_zeros(os.path.join(base, fname), height, label)
    else:
        with (resources.files("primelab") / "data" / fname).open() as fh:
            table = load_zeros(fh, height, label)
    _table_cache[key] = table
    return table


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
