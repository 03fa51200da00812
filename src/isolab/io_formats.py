"""Plain-text exchange formats: columnar vectors, flat records, CSV curves.

Everything here is deterministic: keys are sorted, floats are written with
repr (shortest round-trip form), and no timestamps or paths enter a record.
"""

from __future__ import annotations

import csv
import json

import numpy as np

__all__ = [
    "format_value",
    "render_record",
    "write_columns",
    "read_columns",
    "write_csv",
    "canonical_json",
]


def format_value(v):
    """Deterministic text form for scalars used in flat records."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (complex, np.complexfloating)):
        c = complex(v)
        return f"{format_value(c.real)}{'+' if c.imag >= 0 else '-'}{format_value(abs(c.imag))}j"
    return str(v)


def render_record(record: dict) -> str:
    """Flat key=value text, one entry per line, keys sorted."""
    lines = [f"{k}={format_value(record[k])}" for k in sorted(record)]
    return "\n".join(lines) + "\n"


def write_columns(path, *columns):
    cols = [np.asarray(c).ravel() for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("columns must share a length")
    with open(path, "w") as fh:
        for i in range(n):
            fh.write(" ".join(format_value(c[i]) for c in cols) + "\n")


def read_columns(path):
    """Columns of a whitespace-separated file; the first data row sets the width.

    Blank lines and lines starting with # are skipped.  A file without data
    rows, or a row of another width, raises ValueError.
    """
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if rows and len(parts) != len(rows[0]):
                raise ValueError(f"expected {len(rows[0])} columns, got {len(parts)}")
            rows.append([float(p) for p in parts])
    if not rows:
        raise ValueError("file holds no data rows")
    return tuple(np.array(rows).T)


def write_csv(path, header, columns):
    cols = [np.asarray(c).ravel() for c in columns]
    if len(header) != len(cols):
        raise ValueError("header/column count mismatch")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(cols[0])):
            writer.writerow([format_value(c[i]) for c in cols])


def canonical_json(obj) -> str:
    """Sorted-key JSON with no whitespace variance; bit-exact round trips."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
