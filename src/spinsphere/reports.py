"""Deterministic JSON/CSV emission for experiment runs.

Reports carry no timestamps and use sorted keys, so a rerun with the same
seed and configuration produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def _jsonable(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json_report(path: Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(
        payload, sort_keys=True, indent=2, ensure_ascii=False, default=_jsonable
    )
    path.write_text(text + "\n", encoding="utf-8")


def write_csv(path: Path, header: list[str], rows) -> None:
    """RFC-4180 style CSV with a header row; '.' decimal via str() of numbers."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
