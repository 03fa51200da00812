import numpy as np
import pytest

from isolab import io_formats as iof


def test_format_value_repr_floats():
    assert iof.format_value(0.1) == "0.1"
    assert iof.format_value(1e-9) == "1e-09"
    assert iof.format_value(True) == "true"
    assert iof.format_value(np.float64(2.5)) == "2.5"
    assert iof.format_value(3 + 0.5j) == "3.0+0.5j"
    assert iof.format_value(1 - 2j) == "1.0-2.0j"


def test_render_parse_record_roundtrip():
    rec = {"gap": 1.25e-13, "passed": True, "name": "clip", "count": 7}
    text = iof.render_record(rec)
    # keys sorted, one per line, values in their deterministic text form
    assert text.splitlines() == ["count=7", "gap=1.25e-13", "name=clip", "passed=true"]


def test_render_record_deterministic():
    rec = {"b": 2.0, "a": 1.0}
    assert iof.render_record(rec) == iof.render_record(dict(reversed(rec.items())))


def test_columns_roundtrip(tmp_path):
    p = tmp_path / "cols.txt"
    x = np.linspace(0, 1, 17)
    y = np.sin(x)
    iof.write_columns(p, x, y)
    rx, ry = iof.read_columns(p)
    assert np.array_equal(rx, x)
    assert np.array_equal(ry, y)


def test_read_columns_refuses_empty_and_ragged(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# header only\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        iof.read_columns(empty)
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="expected 3 columns, got 2"):
        iof.read_columns(ragged)


def test_write_csv(tmp_path):
    p = tmp_path / "curve.csv"
    iof.write_csv(p, ["t", "v"], [np.array([0.0, 1.0]), np.array([0.5, 0.25])])
    lines = p.read_text().splitlines()
    assert lines[0] == "t,v"
    assert lines[1] == "0.0,0.5"
    assert len(lines) == 3


def test_canonical_json_bit_exact():
    obj = {"z": 1e-09, "a": [1.5, "x"], "m": {"k": 0.1}}
    s = iof.canonical_json(obj)
    assert s == iof.canonical_json(__import__("json").loads(s))
    assert " " not in s
