import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protometrics import (
    InputError,
    LabeledMatrix,
    MatrixFormat,
    ParseError,
    REPORT_FLAGS,
    auto_labels,
    check_triangle,
    classify,
    detect_format,
    parse_gauge_csv,
    parse_matrix,
    serialize_matrix,
    serialize_report,
)
from protometrics import io as io_module
from protometrics.io import parse_decomposition, serialize_verdict

HDIFF = [[0.0, -1.0, -3.0], [1.0, 0.0, -2.0], [3.0, 2.0, 0.0]]


def lm(rows, labels=None):
    return LabeledMatrix(labels or auto_labels(len(rows)), rows)


def test_detect_format():
    assert detect_format('{"matrix": [[0]]}') is MatrixFormat.JSON
    assert detect_format('  \n {"matrix": [[0]]}') is MatrixFormat.JSON
    assert detect_format("0,1\n1,0") is MatrixFormat.CSV
    assert detect_format(",a\na,0") is MatrixFormat.CSV


BOM = "\ufeff"  # the byte-order mark that spreadsheet exports put first


@pytest.mark.parametrize("text", [
    "0,1,2\n1,0,1\n2,1,0\n",
    ",a,b\na,0,1\nb,1,0\n",
    '{"labels": ["a", "b"], "matrix": [[0, 1], [1, 0]]}',
])
def test_a_leading_byte_order_mark_is_ignored(text):
    assert detect_format(BOM + text) is detect_format(text)
    assert parse_matrix(BOM + text) == parse_matrix(text)


def test_gauge_and_decomposition_ignore_a_leading_byte_order_mark():
    assert parse_gauge_csv(BOM + "a,1\nb,2\n") == {"a": 1.0, "b": 2.0}
    doc = '{"d": {"matrix": [[0, 3], [3, 0]]}, "f": {"x1": 1, "x2": 2}}'
    dec = parse_decomposition(BOM + doc)
    assert dec is not None and dec == parse_decomposition(doc)


def test_matrix_format_parse():
    assert MatrixFormat.parse("csv") is MatrixFormat.CSV
    assert MatrixFormat.parse("json") is MatrixFormat.JSON
    with pytest.raises(InputError, match="expected csv or json"):
        MatrixFormat.parse("text")


def test_parse_bare_csv():
    m = parse_matrix("0,1\n1,0\n")
    assert m.labels == ("x1", "x2")
    assert m.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_parse_labeled_csv():
    m = parse_matrix(",a,b\na,0,1\nb,1,0\n")
    assert m.labels == ("a", "b")
    assert m.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_parse_csv_ignores_blank_lines():
    m = parse_matrix("0,1\n\n1,0\n\n")
    assert m.n == 2


def test_parse_csv_scientific_notation():
    m = parse_matrix("0,1e-3\n-2.5E2,0\n")
    assert m.entries.tolist() == [[0.0, 0.001], [-250.0, 0.0]]


def test_parse_json():
    m = parse_matrix('{"labels": ["a", "b"], "matrix": [[0, 1], [1, 0]]}')
    assert m.labels == ("a", "b")
    assert m.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    bare = parse_matrix('{"matrix": [[0.5]]}')
    assert bare.labels == ("x1",)


def test_clean_rows_are_converted_whole(monkeypatch):
    # A row of finite numbers takes no per-cell path, in CSV or JSON.
    cells = []
    for name in ("_parse_cell", "_json_float"):
        real = getattr(io_module, name)
        monkeypatch.setattr(io_module, name,
                            lambda *a, real=real, **k: cells.append(a) or real(*a, **k))
    M = lm(HDIFF, ["a", "b", "c"])
    for fmt in ("csv", "json"):
        assert parse_matrix(serialize_matrix(M, fmt)) == M
    assert parse_matrix("0,1.5\n-2,0\n") == lm([[0.0, 1.5], [-2.0, 0.0]])
    assert cells == []
    # A row that is not all finite floats is read cell by cell.
    parse_matrix('{"matrix": [[0, 1.5], [-2.0, 0.0]]}')
    assert len(cells) == 2


def test_parse_empty_input():
    for text in ("", "   \n  ", "\n\n"):
        with pytest.raises(ParseError, match="empty input"):
            parse_matrix(text)


def test_parse_csv_errors_carry_positions():
    with pytest.raises(ParseError, match=r"expected a number, got 'x' \(row 1, column 2\)") as err:
        parse_matrix("0,x\n1,0")
    assert (err.value.row, err.value.col) == (1, 2)
    with pytest.raises(ParseError, match=r"row label 'c' does not match header label 'b' \(row 3, column 1\)"):
        parse_matrix(",a,b\na,0,1\nc,1,0")
    with pytest.raises(ParseError, match=r"expected 3 cells, got 2 \(row 2\)"):
        parse_matrix(",a,b\na,0\nb,1,0")
    with pytest.raises(ParseError, match="2 labels but 1 data rows"):
        parse_matrix(",a,b\na,0,1")
    with pytest.raises(ParseError, match="header row carries no labels"):
        parse_matrix("q\n")
    with pytest.raises(ParseError, match=r"expected 2 cells, got 3 \(row 2\)"):
        parse_matrix("0,1\n1,0,5")
    with pytest.raises(ParseError, match="duplicate label"):
        parse_matrix(",a,a\na,0,1\na,1,0")
    with pytest.raises(ParseError, match=r"non-finite value 'inf' \(row 1, column 1\)"):
        parse_matrix("inf,1\n1,0")
    # Rows are converted whole; a row that fails is read again cell by cell.
    # Finite cells whose sum overflows are accepted, bit for bit.
    m = parse_matrix(",a,b\na,1e308,1.7976931348623157e308\nb,-0.0,1e308")
    assert m.entries.tobytes() == np.array([[1e308, 1.7976931348623157e308],
                                            [-0.0, 1e308]]).tobytes()
    # The first bad row wins over a later one, whatever their faults.
    with pytest.raises(ParseError, match=r"expected a number, got 'q' \(row 2, column 3\)"):
        parse_matrix("0,1,2\n1,0,q\n2,1")
    with pytest.raises(ParseError, match=r"non-finite value 'nan' \(row 1, column 2\)"):
        parse_matrix("1e308,nan,1e308\n1,0,x\n0,0,0")


# One cell longer than the csv module's default field size limit of 131,072.
LONG_CELL = "1" * 140_000


def test_parse_csv_refuses_a_cell_past_the_field_size_limit():
    with pytest.raises(ParseError, match=r"unreadable CSV: field larger .* \(row 2\)"):
        parse_matrix(f"0,1,2\n\n1,0,{LONG_CELL}\n2,1,0")


def test_parse_json_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_matrix('{"matrix": [[0],')
    with pytest.raises(ParseError, match="must be an object"):
        parse_decomposition('{"d": [[0, 1], [1, 0]], "f": {}}')
    # The format is sniffed: a labeled CSV whose unread top-left cell starts with "{" is JSON.
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_matrix("{,a,b\na,0,1\nb,1,0\n")
    with pytest.raises(ParseError, match="missing the 'matrix' key"):
        parse_matrix('{"labels": ["a"]}')
    with pytest.raises(ParseError, match="nonempty array"):
        parse_matrix('{"matrix": []}')
    with pytest.raises(ParseError, match="row 2 does not have 2 entries"):
        parse_matrix('{"matrix": [[0, 1], [1]]}')
    with pytest.raises(ParseError, match=r"expected a number, got True \(row 1, column 2\)"):
        parse_matrix('{"matrix": [[0, true], [1, 0]]}')
    with pytest.raises(ParseError, match="non-finite value 'Infinity'"):
        parse_matrix('{"matrix": [[0, Infinity], [1, 0]]}')
    with pytest.raises(ParseError, match="non-finite value 'NaN'"):
        parse_matrix('{"matrix": [[NaN]]}')
    with pytest.raises(ParseError, match="array of strings"):
        parse_matrix('{"labels": [1, 2], "matrix": [[0, 1], [1, 0]]}')
    with pytest.raises(ParseError, match="1 labels for a 2x2 matrix"):
        parse_matrix('{"labels": ["a"], "matrix": [[0, 1], [1, 0]]}')
    with pytest.raises(ParseError, match="duplicate label"):
        parse_matrix('{"labels": ["a", "a"], "matrix": [[0, 1], [1, 0]]}')
    # A row that is not all finite floats is read cell by cell.
    m = parse_matrix('{"matrix": [[1e308, 1e308], [0.5, 2]]}')
    assert m.entries.tobytes() == np.array([[1e308, 1e308], [0.5, 2.0]]).tobytes()
    with pytest.raises(ParseError, match=r"too large for a float \(row 2, column 2\)"):
        parse_matrix('{"matrix": [[0.5, 1.5], [0.5, ' + "9" * 400 + ']]}')
    with pytest.raises(ParseError, match=r"non-finite value inf \(row 1, column 2\)"):
        parse_matrix('{"matrix": [[0.5, 1e400], [0.5, 0.5]]}')
    with pytest.raises(ParseError, match=r"expected a number, got True \(row 1, column 1\)"):
        parse_matrix('{"matrix": [[true, 0.5], [0.5, 0.5]]}')


def test_serialize_csv_golden():
    m = lm([[0.0, 1.0], [1.0, 0.0]], labels=("a", "b"))
    assert serialize_matrix(m) == ",a,b\na,0.0,1.0\nb,1.0,0.0\n"


def test_serialize_json_golden():
    m = lm([[0.0, 1.0], [1.0, 0.0]], labels=("a", "b"))
    expect = '{"labels": ["a", "b"], "matrix": [[0.0, 1.0], [1.0, 0.0]]}\n'
    assert serialize_matrix(m, "json") == expect


def test_serialize_rejects_unwritable_csv_labels():
    m = lm([[0.0]], labels=("a,b",))
    with pytest.raises(InputError, match="cannot be written as CSV"):
        serialize_matrix(m, "csv")
    # JSON has no such restriction
    again = parse_matrix(serialize_matrix(m, "json"))
    assert again == m


def test_serialize_matrix_rejects_report_format():
    with pytest.raises(InputError, match="expected csv or json"):
        serialize_matrix(lm([[0.0]]), "text")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_roundtrip_exact_values(fmt):
    rows = [
        [0.0, 1e-300, -2.5],
        [1.0 / 3.0, 0.0, 3.141592653589793],
        [-0.0, 123456789.123456789, 0.1 + 0.2],
    ]
    m = lm(rows)
    again = parse_matrix(serialize_matrix(m, fmt))
    assert again == m
    assert parse_matrix(serialize_matrix(again, fmt)) == again


_label = st.text(
    alphabet=st.characters(categories=("Lu", "Ll", "Nd"), max_codepoint=0x24F),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(_label, min_size=n, max_size=n, unique=True),
            st.lists(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            ),
        )
    ),
    st.sampled_from(["csv", "json"]),
)
def test_roundtrip_property(labels_rows, fmt):
    labels, rows = labels_rows
    m = LabeledMatrix(tuple(labels), rows)
    again = parse_matrix(serialize_matrix(m, fmt))
    # bytes, not ==, which takes -0.0 for 0.0
    assert (again.labels, again.entries.tobytes()) == (m.labels, m.entries.tobytes())


def test_report_json_shape_and_determinism():
    r = classify(lm(HDIFF))
    text = serialize_report(r, "json")
    assert text == serialize_report(r, "json")
    doc = json.loads(text)
    assert set(doc.keys()) == {"flags", "verdicts"}
    assert list(doc["flags"].keys()) == list(REPORT_FLAGS)
    assert list(doc["verdicts"].keys()) == [
        "triangle_o", "triangle_i", "triangle_t", "triangle_c",
        "prequad_o", "prequad_i", "prequad_t", "prequad_c",
        "strict_t",
    ]
    to = doc["verdicts"]["triangle_o"]
    assert to["status"] == "FAIL"
    assert to["count_checked"] == 27
    assert to["witnesses"][0] == {
        "x": "x1", "y": "x2", "z": "x1", "lhs": -1.0, "rhs": 1.0, "deficit": 2.0,
    }
    assert doc["verdicts"]["triangle_t"]["status"] == "PASS"
    assert doc["flags"]["potential_difference"] is True


def test_report_text_format():
    r = classify(lm(HDIFF))
    text = serialize_report(r, "text")
    lines = text.splitlines()
    for name in REPORT_FLAGS:
        assert any(l.startswith(name + " ") for l in lines), name
    assert any(l.startswith("zero_protometric") and l.rstrip().endswith("yes") for l in lines)
    assert any(l.startswith("metric") and l.rstrip().endswith("no") for l in lines)
    assert "first witness x=x1 y=x2 z=x1" in text
    assert "triangle_o" in text and "strict_t" in text
    single = serialize_report(classify(lm([[0.0]])), "text")
    assert "min_slack=n/a" in single


def test_report_format_validation():
    r = classify(lm([[0.0]]))
    with pytest.raises(InputError, match="expected json or text"):
        serialize_report(r, "csv")


def test_parse_gauge_csv():
    g = parse_gauge_csv("a,1.5\nb,-2\n")
    assert g == {"a": 1.5, "b": -2.0}
    with pytest.raises(ParseError, match="empty gauge input"):
        parse_gauge_csv("\n")
    with pytest.raises(ParseError, match=r"expected label,value, got 3 cells \(row 1\)"):
        parse_gauge_csv("a,1,2\n")
    with pytest.raises(ParseError, match=r"duplicate label 'a' \(row 2, column 1\)"):
        parse_gauge_csv("a,1\na,2\n")
    with pytest.raises(ParseError, match=r"expected a number, got 'q' \(row 2, column 2\)"):
        parse_gauge_csv("a,1\nb,q\n")
    with pytest.raises(ParseError, match=r"unreadable CSV: field larger .* \(row 2\)"):
        parse_gauge_csv(f"a,1\nb,{LONG_CELL}\n")


def test_verdict_format_validation():
    v = check_triangle(lm(HDIFF), "t")
    assert serialize_verdict("triangle:t", v, "text").startswith("triangle:t: PASS")
    assert json.loads(serialize_verdict("triangle:t", v, "json"))["status"] == "PASS"
    with pytest.raises(InputError, match="unknown verdict format 'csv'; expected json or text"):
        serialize_verdict("triangle:t", v, "csv")


def test_a_json_label_with_a_lone_surrogate_is_refused():
    doc = '{"labels": ["a", "\\udcff"], "matrix": [[0, 1], [1, 0]]}'
    with pytest.raises(ParseError, match="label 2 holds a lone surrogate"):
        parse_matrix(doc)
    with pytest.raises(ParseError, match="label 2 holds a lone surrogate"):
        parse_decomposition('{"d": ' + doc + ', "f": {"a": 0, "b": 0}}')
    # an escaped surrogate pair is one character, which UTF-8 encodes
    assert parse_matrix(doc.replace("\\udcff", "\\ud83d\\ude00")).labels == ("a", "\U0001f600")
