"""Experiment report rows and their CSV / JSON-lines serialization."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

CSV_HEADER = ["experiment", "param_json", "metric", "bound", "ratio",
              "verdict"]
VERDICTS = ("pass", "fail", "report-only")


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    params: dict
    metric: float
    bound: float = None
    ratio: float = None
    verdict: str = "report-only"

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}")
        if self.bound is not None and self.ratio is not None \
                and self.bound <= 0:
            raise ValueError("ratio given with nonpositive bound")


def _round12(value):
    """Floats pinned to 12 significant digits so that emitted rows
    re-parse bit-identically."""
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return float(f"{value:.12g}")


def _fmt(value) -> str:
    return "" if value is None else f"{value:.12g}"


def _clean_params(params: dict) -> dict:
    return {k: _round12(v) for k, v in sorted(params.items())}


def emit(reports, fmt, sink) -> None:
    """Write reports to an open text sink; fmt is 'csv' or 'jsonl'."""
    if fmt == "csv":
        writer = csv.writer(sink)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow([
                r.experiment,
                json.dumps(_clean_params(r.params), sort_keys=True),
                _fmt(float(r.metric)),
                _fmt(None if r.bound is None else float(r.bound)),
                _fmt(None if r.ratio is None else float(r.ratio)),
                r.verdict,
            ])
    elif fmt == "jsonl":
        for r in reports:
            row = {
                "experiment": r.experiment,
                "params": _clean_params(r.params),
                "metric": _round12(float(r.metric)),
                "bound": None if r.bound is None else _round12(float(r.bound)),
                "ratio": None if r.ratio is None else _round12(float(r.ratio)),
                "verdict": r.verdict,
            }
            sink.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
