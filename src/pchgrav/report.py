"""Machine-parseable check reports (JSON and CSV)."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import platform
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__

#: environment variables that set the BLAS and OpenMP thread counts
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class CheckRow:
    id: str
    anchor: str                 # mathematical anchor of the check, or "plumbing"
    inputs_digest: str          # hash of (seed, suite, row id), not of the drawn inputs
    values: dict
    decisions: list             # one per condition: key, relation, bound, limit, passed
    passed: bool                # the conjunction of the decisions
    runtime_s: float

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["values"] = {k: _jsonable(v) for k, v in self.values.items()}
        return d


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


@dataclass
class ConstraintReport:
    config: dict
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.meta:
            self.meta = {
                "pchgrav": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "platform": platform.platform(),
                "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
            }

    def add(self, row: CheckRow):
        self.rows.append(row)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "meta": self.meta,
            "rows": [r.as_dict() for r in self.rows],
            "all_passed": self.all_passed,
        }


CSV_FIELDS = ["id", "anchor", "inputs_digest", "values", "decisions", "passed", "runtime_s"]


def write_report(report: ConstraintReport, path, fmt: str = "json"):
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, quoting=csv.QUOTE_MINIMAL)
            writer.writeheader()
            for r in report.rows:
                d = r.as_dict()
                d["values"] = json.dumps(d["values"], sort_keys=True)
                d["decisions"] = json.dumps(d["decisions"], sort_keys=True)
                writer.writerow(d)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
