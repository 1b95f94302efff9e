import argparse
import contextlib
import io
import json
import sys
import warnings

import numpy as np
import pytest

from protometrics import LabeledMatrix, auto_labels, classify, parse_matrix, serialize_matrix
from protometrics.cli import build_parser, main

PATH_CSV = "0,1,2\n1,0,1\n2,1,0\n"
HDIFF_CSV = "0,-1,-3\n1,0,-2\n3,2,0\n"
PROTO_CSV = "1,3\n3,2\n"
COLLINEAR_CSV = ",a,b,c\na,0,1,3\nb,1,0,2\nc,3,2,0\n"


@pytest.fixture()
def cli(capsys, monkeypatch):
    def run(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@contextlib.contextmanager
def warnings_printed():
    """Print every warning to stderr, as the command line does, instead of raising it.

    pytest records warnings rather than printing them, so without this hook a
    stray warning would never reach the captured stderr.
    """

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield


def test_classify_metric_json(cli):
    code, out, err = cli(["classify"], stdin=PATH_CSV)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["flags"]["metric"] is True
    assert doc["verdicts"]["triangle_t"]["status"] == "PASS"


def test_classify_text_table(cli):
    code, out, _ = cli(["classify", "--format", "text"], stdin=PATH_CSV)
    assert code == 0
    assert out.splitlines()[0].startswith("symmetric")
    assert "metric" in out


def test_classify_file_io(cli, tmp_path):
    src = tmp_path / "m.csv"
    src.write_text(PATH_CSV)
    dst = tmp_path / "report.json"
    code, out, _ = cli(["classify", "-i", str(src), "-o", str(dst)])
    assert code == 0
    assert out == ""
    assert json.loads(dst.read_text())["flags"]["metric"] is True


def test_classify_rejects_csv_report(cli):
    code, _, err = cli(["classify", "--format", "csv"], stdin=PATH_CSV)
    assert code == 2
    assert "reports support json or text" in err


def test_classify_empty_stdin(cli):
    code, _, err = cli(["classify"], stdin="")
    assert code == 2
    assert err.startswith("error:")
    assert "empty input" in err


def test_classify_tolerance_plumbing(cli):
    near = "0,1,2.0000001\n1,0,1\n2.0000001,1,0\n"
    code, out, _ = cli(["classify"], stdin=near)
    assert code == 0
    assert json.loads(out)["flags"]["triangle_t"] is False
    code, out, _ = cli(["classify", "--tolerance-ineq", "1e-6"], stdin=near)
    assert code == 0
    assert json.loads(out)["flags"]["triangle_t"] is True


def test_classify_rejects_bad_tolerance_and_cap(cli, tmp_path):
    assert cli(["classify", "--tolerance-ineq", "-1"], stdin=PATH_CSV)[0] == 2
    assert cli(["classify", "--max-witnesses", "0"], stdin=PATH_CSV)[0] == 2
    # The cap is refused before the input is read.
    absent = str(tmp_path / "absent.csv")
    assert cli(["classify", "--max-witnesses", "0", "-i", absent]) == (
        2, "", "error: --max-witnesses must be >= 1, got 0\n")


def test_standard_output_is_not_also_a_file_named_dash(cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = cli(["classify"], stdin=PATH_CSV)
    assert code == 0 and json.loads(out)["flags"]["metric"] is True
    assert list(tmp_path.iterdir()) == []


def test_classify_missing_input_file(cli, tmp_path):
    code, _, err = cli(["classify", "-i", str(tmp_path / "absent.csv")])
    assert code == 2
    assert err.startswith("error:")


def test_check_pass_and_fail_exit_codes(cli):
    code, out, _ = cli(["check", "prequad:t"], stdin=PROTO_CSV)
    assert code == 0
    assert out.startswith("prequad:t: PASS min_slack=")
    code, out, _ = cli(["check", "triangle:o"], stdin=HDIFF_CSV)
    assert code == 1
    assert out.startswith("triangle:o: FAIL")
    assert "witness: x=x1 y=x2 z=x1" in out


def test_check_json_output(cli):
    code, out, _ = cli(["check", "triangle:o", "--format", "json"], stdin=HDIFF_CSV)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "FAIL"
    assert doc["witnesses"][0]["x"] == "x1"
    assert doc["count_checked"] == 27


def test_check_strict(cli):
    code, out, _ = cli(["check", "strict:t"], stdin="0,0\n0,0\n")
    assert code == 1
    code, out, _ = cli(["check", "strict:t"], stdin=PATH_CSV)
    assert code == 0


def test_check_transition(cli):
    ones = "1,1\n1,1\n"
    code, out, _ = cli(["check", "transition"], stdin=ones)
    assert code == 0
    with_zero = "1,0\n1,1\n"
    code, out, _ = cli(["check", "transition", "--for-log"], stdin=with_zero)
    assert code == 0
    assert "NOT_APPLICABLE" in out
    assert "min_slack=n/a" in out


def test_check_selector_validation(cli):
    code, _, err = cli(["check", "nosuch"], stdin=PATH_CSV)
    assert code == 2
    assert "unknown property selector" in err
    assert "triangle:TYPE" in err
    code, _, err = cli(["check", "strict:q"], stdin=PATH_CSV)
    assert code == 2
    assert "expected one of o, i, t, c" in err
    code, _, err = cli(["check", "triangle"], stdin=PATH_CSV)
    assert code == 2
    assert "needs a type" in err
    code, _, err = cli(["check", "transition:t"], stdin=PATH_CSV)
    assert code == 2
    assert "does not take a type" in err
    code, _, err = cli(["check", "triangle:t", "--for-log"], stdin=PATH_CSV)
    assert code == 2
    assert "--for-log only applies" in err
    # The refusal lists exactly the ops that take the flag.
    code, _, err = cli(["transform", "gauge", "--base-label", "x1", "--alpha", "1"],
                       stdin=PATH_CSV)
    assert code == 2
    assert err.rstrip().endswith(
        "--base-label only applies to transform gromov, farris, minfarris")


def test_transform_transpose_keeps_input_format(cli):
    code, out, _ = cli(["transform", "transpose"], stdin="0,-1\n1,0\n")
    assert code == 0
    assert out == ",x1,x2\nx1,0.0,1.0\nx2,-1.0,0.0\n"
    src = serialize_matrix(parse_matrix("0,-1\n1,0\n"), "json")
    code, out, _ = cli(["transform", "transpose"], stdin=src)
    assert code == 0
    assert json.loads(out)["matrix"] == [[0.0, 1.0], [-1.0, 0.0]]
    # --format overrides the input format
    code, out, _ = cli(["transform", "transpose", "--format", "json"], stdin="0,-1\n1,0\n")
    assert json.loads(out)["matrix"] == [[0.0, 1.0], [-1.0, 0.0]]


def test_transform_gauge(cli, tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("x1,1\nx2,2\n")
    code, out, _ = cli(
        ["transform", "gauge", "--alpha", "2", "--f-file", str(f)],
        stdin="0,1\n1,0\n",
    )
    assert code == 0
    assert parse_matrix(out).entries.tolist() == [[2.0, 5.0], [5.0, 4.0]]
    code, _, err = cli(["transform", "gauge", "--alpha", "2"], stdin="0,1\n1,0\n")
    assert code == 2
    assert "requires --f-file" in err
    code, _, err = cli(["transform", "gauge", "--f-file", str(f)], stdin="0,1\n1,0\n")
    assert code == 2
    assert "requires --alpha" in err
    code, _, err = cli(
        ["transform", "gauge", "--alpha", "0", "--f-file", str(f)], stdin="0,1\n1,0\n"
    )
    assert code == 2
    assert "alpha" in err


def test_a_cell_past_the_csv_field_size_limit_exits_2(cli, tmp_path):
    # The csv module's default field size limit is 131,072 characters.
    big = tmp_path / "big.csv"
    big.write_text("0," + "1" * 140_000 + "\n1,0\n")
    code, _, err = cli(["classify", "-i", str(big)])
    assert (code, err) == (2, "error: unreadable CSV: field larger than field limit (131072) "
                               "(row 1)\n")
    code, _, err = cli(["transform", "gauge", "--alpha", "1", "--f-file", str(big)],
                       stdin="0,1\n1,0\n")
    assert code == 2 and "unreadable CSV" in err


def test_transform_add(cli, tmp_path):
    other = tmp_path / "b.csv"
    other.write_text(PATH_CSV)
    code, out, _ = cli(["transform", "add", "--other", str(other)], stdin=PATH_CSV)
    assert code == 0
    assert parse_matrix(out).entries.tolist() == [
        [0.0, 2.0, 4.0], [2.0, 0.0, 2.0], [4.0, 2.0, 0.0],
    ]
    mismatched = tmp_path / "c.csv"
    mismatched.write_text(",p,q\np,0,1\nq,1,0\n")
    code, _, err = cli(["transform", "add", "--other", str(mismatched)], stdin=PATH_CSV)
    assert code == 2
    assert "identical label sequences" in err
    code, _, err = cli(["transform", "add"], stdin=PATH_CSV)
    assert code == 2
    assert "requires --other" in err


def test_transform_add_overflow(cli, tmp_path):
    big = tmp_path / "big.csv"
    big.write_text("1e308,1e308\n1e308,1e308\n")
    with warnings_printed():
        code, out, err = cli(["transform", "add", "--other", str(big)], stdin=big.read_text())
    assert (code, out) == (2, "")
    assert err == "error: non-finite entry inf at ('x1', 'x1')\n"


def overflow_files(tmp_path):
    d = tmp_path / "d.csv"
    d.write_text("0,1e308\n1e308,0\n")
    f = tmp_path / "f.csv"
    f.write_text("x1,1e308\nx2,1e308\n")
    return d.read_text(), str(f)


def test_transform_gauge_overflow(cli, tmp_path):
    d, f = overflow_files(tmp_path)
    with warnings_printed():
        code, out, err = cli(["transform", "gauge", "--alpha", "2", "--f-file", f], stdin=d)
    assert (code, out) == (2, "")
    assert err == "error: non-finite entry inf at ('x1', 'x1')\n"


def test_transform_compose_overflow(cli, tmp_path):
    # The precondition scan of d still overflows in its slab sums (checks.py);
    # compose itself adds no warning.
    d, f = overflow_files(tmp_path)
    with warnings_printed():
        code, out, err = cli(["transform", "compose", "--f-file", f], stdin=d)
    assert (code, out) == (2, "")
    assert err.endswith("\nerror: non-finite entry inf at ('x1', 'x1')\n")
    assert "transforms.py" not in err


def test_transform_metrize(cli):
    code, out, _ = cli(["transform", "metrize"], stdin=PROTO_CSV)
    assert code == 0
    assert parse_matrix(out).entries.tolist() == [[0.0, 3.0], [3.0, 0.0]]
    code, out, _ = cli(["transform", "metrize", "--alpha", "2"], stdin=PROTO_CSV)
    assert parse_matrix(out).entries.tolist() == [[0.0, 6.0], [6.0, 0.0]]
    code, _, err = cli(["transform", "metrize"], stdin="0,-3\n1,0\n")
    assert code == 1
    assert "error: metrize needs prequad_t, but prequad_t fails" in err


def test_transform_stray_flag_rejected(cli):
    code, _, err = cli(["transform", "metrize", "--constant", "5"], stdin=PROTO_CSV)
    assert code == 2
    assert "does not take --constant" in err
    code, _, err = cli(["transform", "transpose", "--alpha", "1.5"], stdin=PROTO_CSV)
    assert code == 2
    assert "does not take --alpha" in err


HUGE = "1" * 400  # a JSON integer too large for a float


def test_huge_json_integer_in_a_matrix_is_a_parse_error(cli):
    code, out, err = cli(["classify"], stdin='{"matrix": [[' + HUGE + "]]}")
    assert (code, out) == (2, "")
    assert err == "error: number is too large for a float (row 1, column 1)\n"
    # past the interpreter's digit limit the JSON decoder itself refuses it
    code, out, err = cli(["classify"], stdin='{"matrix": [[' + "1" * 5000 + "]]}")
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: an integer has too many digits\n"


def test_huge_json_integer_in_a_decomposition_is_a_parse_error(cli):
    doc = '{"d": {"matrix": [[0, %s], [1, 0]]}, "f": {"x1": 0, "x2": 0}}' % HUGE
    code, out, err = cli(["transform", "compose"], stdin=doc)
    assert (code, out) == (2, "")
    assert err == "error: number is too large for a float (row 1, column 2)\n"
    doc = '{"d": {"matrix": [[0, 1], [1, 0]]}, "f": {"x1": 0, "x2": %s}}' % HUGE
    code, out, err = cli(["transform", "compose"], stdin=doc)
    assert (code, out) == (2, "")
    assert err == "error: gauge value for 'x2' is too large for a float\n"


def test_transform_decompose_and_compose_roundtrip(cli, tmp_path):
    src = serialize_matrix(parse_matrix(PROTO_CSV), "json")
    code, dec, _ = cli(["transform", "decompose"], stdin=src)
    assert code == 0
    doc = json.loads(dec)
    assert doc["f"] == {"x1": 1.0, "x2": 2.0}
    assert doc["d"]["matrix"] == [[0.0, 3.0], [3.0, 0.0]]
    # the decomposition object feeds straight back into compose
    code, out, _ = cli(["transform", "compose"], stdin=dec)
    assert code == 0
    assert out == src
    # or compose from a matrix plus a gauge file
    f = tmp_path / "f.csv"
    f.write_text("x1,1\nx2,2\n")
    code, out2, _ = cli(
        ["transform", "compose", "--f-file", str(f), "--format", "json"],
        stdin="0,3\n3,0\n",
    )
    assert code == 0
    assert json.loads(out2)["matrix"] == [[1.0, 3.0], [3.0, 2.0]]
    code, _, err = cli(["transform", "compose"], stdin="0,3\n3,0\n")
    assert code == 2
    assert "requires --f-file" in err


@pytest.mark.parametrize(
    "f, message",
    [
        ("[1, 2]", "decomposition field 'f' must be an object of label: value"),
        ('{"a": "x"}', "gauge value for 'a' must be a finite number, got 'x'"),
        ('{"a": true}', "gauge value for 'a' must be a finite number, got True"),
        ('{"a": 1e400}', "gauge value for 'a' must be a finite number, got inf"),
    ],
)
def test_transform_compose_rejects_a_malformed_gauge_field(cli, f, message):
    doc = '{"d": {"matrix": [[0, 1], [1, 0]]}, "f": %s}' % f
    code, out, err = cli(["transform", "compose"], stdin=doc)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_transform_compose_reads_an_object_without_f_as_a_matrix(cli, tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("x1,1\nx2,2\n")
    argv = ["transform", "compose", "--f-file", str(f)]
    doc = '{"d": {"matrix": [[0, 1], [1, 0]]}, "matrix": [[0, 3], [3, 0]]}'
    code, out, _ = cli(argv, stdin=doc)
    assert code == 0
    assert json.loads(out)["matrix"] == [[1.0, 3.0], [3.0, 2.0]]
    code, out, err = cli(argv, stdin='{"d": {"matrix": [[0, 1], [1, 0]]}}')
    assert (code, out, err) == (2, "", "error: JSON input is missing the 'matrix' key\n")


def test_transform_compose_rejects_f_file_with_a_decomposition(cli, tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("x1,5\nx2,6\n")
    doc = '{"d": {"matrix": [[0, 3], [3, 0]]}, "f": {"x1": 1, "x2": 2}}'
    code, out, err = cli(["transform", "compose", "--f-file", str(f)], stdin=doc)
    assert (code, out) == (2, "")
    assert err == "error: transform compose takes --f-file only when the input is a matrix\n"


def test_transform_decompose_output_is_json_only(cli):
    code, _, err = cli(["transform", "decompose", "--format", "text"], stdin=PROTO_CSV)
    assert code == 2
    assert "always JSON" in err


def test_transform_zerocoords(cli):
    csv_in = ",a,b\na,2,3\nb,0,1\n"
    code, out, _ = cli(["transform", "zerocoords"], stdin=csv_in)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"a": {"a": 2.0, "b": 0.0}, "b": {"a": 0.0, "b": 1.0}, "ref": "a"}
    code, _, err = cli(["transform", "zerocoords"], stdin=PATH_CSV)
    assert code == 1
    assert "zero_coordinates needs zero_protometric" in err


def test_transform_potential(cli):
    code, out, _ = cli(["transform", "potential"], stdin=HDIFF_CSV)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"h": {"x1": 0.0, "x2": 1.0, "x3": 3.0}, "ref": "x1"}
    code, _, err = cli(["transform", "potential"], stdin=PATH_CSV)
    assert code == 1
    assert "potential_of needs potential_difference" in err


def test_transform_preorder(cli):
    csv_in = ",a,b,c\na,0,0,1\nb,0,0,1\nc,1,1,0\n"
    code, out, _ = cli(["transform", "preorder"], stdin=csv_in)
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == [["a", "b"], ["c"]]
    assert doc["order"] == []
    assert ["a", "b"] in doc["relation"] and ["b", "a"] in doc["relation"]


def test_transform_gromov_and_farris(cli):
    code, out, _ = cli(["transform", "gromov", "--base-label", "a"], stdin=COLLINEAR_CSV)
    assert code == 0
    assert parse_matrix(out).entries.tolist() == [
        [0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 3.0],
    ]
    code, out, _ = cli(
        ["transform", "farris", "--base-label", "a", "--constant", "5"],
        stdin=COLLINEAR_CSV,
    )
    assert code == 0
    assert parse_matrix(out).entries.tolist() == [
        [5.0, 5.0, 5.0], [5.0, 4.0, 4.0], [5.0, 4.0, 2.0],
    ]
    code, _, err = cli(["transform", "gromov"], stdin=COLLINEAR_CSV)
    assert code == 2
    assert "requires --base-label" in err
    code, _, err = cli(["transform", "farris", "--base-label", "a"], stdin=COLLINEAR_CSV)
    assert code == 2
    assert "requires --constant" in err
    code, _, err = cli(["transform", "gromov", "--base-label", "zz"], stdin=COLLINEAR_CSV)
    assert code == 2
    assert "not a point" in err
    # gromov needs a metric
    code, _, err = cli(["transform", "gromov", "--base-label", "x1"], stdin="0,1\n2,0\n")
    assert code == 1
    assert "gromov_product needs metric, but symmetric fails" in err


def test_transform_minfarris(cli):
    code, out, _ = cli(["transform", "minfarris", "--base-label", "a"], stdin=COLLINEAR_CSV)
    assert code == 0
    assert out == "3.0\n"
    code, _, err = cli(
        ["transform", "minfarris", "--base-label", "a", "--format", "csv"],
        stdin=COLLINEAR_CSV,
    )
    assert code == 2
    assert "bare number" in err


def test_transform_log(cli):
    s = serialize_matrix(
        LabeledMatrix(auto_labels(2), np.exp(-np.array([[0.0, 1.0], [1.0, 0.0]]))), "csv"
    )
    code, out, _ = cli(["transform", "log"], stdin=s)
    assert code == 0
    back = parse_matrix(out)
    assert np.allclose(back.entries, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    code, _, err = cli(["transform", "log"], stdin="1,0\n1,1\n")
    assert code == 1
    assert "strictly positive" in err


def test_transform_missing_gauge_file(cli, tmp_path):
    code, _, err = cli(
        ["transform", "gauge", "--alpha", "1", "--f-file", str(tmp_path / "absent.csv")],
        stdin="0,1\n1,0\n",
    )
    assert code == 2
    assert err.startswith("error:")


BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8, which spreadsheet exports put first


def test_a_leading_byte_order_mark_is_ignored(cli, tmp_path):
    src = tmp_path / "m.csv"
    src.write_bytes(BOM + PATH_CSV.encode())
    code, out, _ = cli(["check", "triangle:t", "-i", str(src)])
    assert (code, out) == (0, "triangle:t: PASS min_slack=0.0 violations=0/27\n")
    code, out, _ = cli(["check", "triangle:t"], stdin="\ufeff" + PATH_CSV)
    assert (code, out) == (0, "triangle:t: PASS min_slack=0.0 violations=0/27\n")
    src = tmp_path / "m.json"
    src.write_bytes(BOM + b'{"matrix": [[0, 1], [1, 0]]}')
    code, out, _ = cli(["check", "triangle:t", "-i", str(src)])
    assert (code, out) == (0, "triangle:t: PASS min_slack=0.0 violations=0/8\n")


def test_a_gauge_or_decomposition_with_a_byte_order_mark(cli, tmp_path):
    f = tmp_path / "f.csv"
    f.write_bytes(BOM + b"x1,1\nx2,2\n")
    code, out, _ = cli(
        ["transform", "gauge", "--alpha", "2", "--f-file", str(f)], stdin="0,1\n1,0\n"
    )
    assert code == 0
    assert parse_matrix(out).entries.tolist() == [[2.0, 5.0], [5.0, 4.0]]
    dec = tmp_path / "dec.json"
    dec.write_bytes(BOM + b'{"d": {"matrix": [[0, 3], [3, 0]]}, "f": {"x1": 1, "x2": 2}}')
    code, out, _ = cli(["transform", "compose", "-i", str(dec)])
    assert code == 0
    assert json.loads(out)["matrix"] == [[1.0, 3.0], [3.0, 2.0]]


@pytest.mark.parametrize("flag", ["-i", "--f-file", "--other"])
def test_a_file_that_is_not_utf8_is_an_input_error(cli, tmp_path, flag):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe0,1\n1,0\n")
    argv = {
        "-i": ["classify", "-i", str(bad)],
        "--f-file": ["transform", "gauge", "--alpha", "1", "--f-file", str(bad)],
        "--other": ["transform", "add", "--other", str(bad)],
    }[flag]
    code, out, err = cli(argv, stdin="0,1\n1,0\n")
    assert (code, out, err) == (2, "", f"error: {bad} is not UTF-8 text\n")


def test_standard_input_that_is_not_utf8_is_an_input_error(cli):
    # Python's UTF-8 mode reads the bytes ff fe as these lone surrogates.
    code, out, err = cli(["check", "triangle:t"], stdin="\udcff\udcfe0,1\n1,0\n")
    assert (code, out, err) == (2, "", "error: standard input is not UTF-8 text\n")


def test_generate_deterministic(cli):
    code1, out1, _ = cli(["generate", "metric", "--n", "5", "--seed", "7"])
    code2, out2, _ = cli(["generate", "metric", "--n", "5", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert classify(parse_matrix(out1)).flags["metric"]
    _, other, _ = cli(["generate", "metric", "--n", "5", "--seed", "8"])
    assert other != out1


def test_generate_kinds(cli):
    _, out, _ = cli(["generate", "qsm", "--n", "4", "--seed", "1"])
    assert classify(parse_matrix(out)).flags["quasi_semi_metric"]
    _, out, _ = cli(["generate", "protometric", "--n", "4", "--seed", "1", "--type", "o"])
    assert classify(parse_matrix(out)).flags["symmetric_protometric"]
    _, out, _ = cli(["generate", "zeroproto", "--n", "4", "--seed", "1"])
    assert classify(parse_matrix(out)).flags["zero_protometric"]
    code, out, _ = cli(["generate", "protometric", "--n", "4", "--seed", "1", "--strict"])
    assert code == 0
    from protometrics import check_strict

    assert check_strict(parse_matrix(out), "t").status.value == "PASS"


def test_generate_json_format(cli):
    code, out, _ = cli(["generate", "metric", "--n", "3", "--seed", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["labels"] == ["x1", "x2", "x3"]


def test_generate_validation(cli):
    assert cli(["generate", "metric", "--n", "0"])[0] == 2
    assert cli(["generate", "metric"])[0] == 2  # --n is required
    assert cli(["generate", "metric", "--n", "3", "--seed", "-1"])[0] == 2
    assert cli(["generate", "metric", "--n", "3", "--scale", "0"])[0] == 2
    assert cli(["generate", "metric", "--n", "3", "--format", "text"])[0] == 2
    code, _, err = cli(["generate", "qsm", "--n", "3", "--type", "t"])
    assert code == 2
    assert "--type only applies" in err
    code, _, err = cli(["generate", "metric", "--n", "3", "--strict"])
    assert code == 2
    assert "--strict only applies" in err
    assert cli(["generate", "protometric", "--n", "3", "--type", "q"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["metric", "--n", "3", "--scale", "1.7e308"],
    ["protometric", "--n", "4", "--scale", "1e308"],
])
def test_generate_rejects_a_scale_that_can_overflow(cli, argv):
    with warnings_printed():
        code, out, err = cli(["generate", *argv, "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: scale must be > 0 and at most 2**1021, got {float(argv[-1])!r}\n"


def test_generate_to_file(cli, tmp_path):
    dst = tmp_path / "m.csv"
    code, out, _ = cli(["generate", "metric", "--n", "3", "--seed", "4", "-o", str(dst)])
    assert code == 0
    assert out == ""
    assert classify(parse_matrix(dst.read_text())).flags["metric"]


def test_usage_errors(cli):
    assert cli([])[0] == 2
    assert cli(["frobnicate"])[0] == 2
    assert cli(["transform", "nosuch"], stdin=PATH_CSV)[0] == 2
    assert cli(["generate", "nosuch", "--n", "3"])[0] == 2


# Transform ops whose output is a JSON object or a bare number, and the flags each requires.
NON_MATRIX_OPS = {
    "decompose": [], "zerocoords": [], "potential": [], "preorder": [],
    "minfarris": ["--base-label", "x1"],
}


@pytest.mark.parametrize("stdin", ["oops\n", "0,-3\n1,0\n"], ids=["malformed", "precondition"])
@pytest.mark.parametrize("op", NON_MATRIX_OPS)
def test_a_bad_format_is_refused_before_the_input_is_read(cli, op, stdin):
    number = op == "minfarris"
    for fmt in ["csv"] if number else ["csv", "text"]:
        code, out, err = cli(["transform", op, *NON_MATRIX_OPS[op], "--format", fmt], stdin=stdin)
        assert (code, out) == (2, "")
        assert ("bare number" if number else "always JSON") in err


def test_the_op_tables_name_the_parser_flags():
    """Each flag an op table names is a flag of its subcommand, and each op-only flag is named."""
    shared = {"help", "op", "input", "output", "format", "tolerance_ineq", "tolerance_eq",
              "tolerance_strict", "max_witnesses", "n", "seed", "scale"}
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    for name, sub in subparsers.choices.items():
        named = {f for op in sub.get_default("ops").values() for f in op.required + op.optional}
        dests = {a.dest for a in sub._actions}
        assert named <= dests, name
        assert dests - shared == named, name


def test_a_zero_op_flag_counts_as_given(cli):
    code, _, err = cli(["transform", "transpose", "--alpha", "0"], stdin=PROTO_CSV)
    assert code == 2
    assert "does not take --alpha" in err


def test_a_json_label_with_a_lone_surrogate_exits_2(cli, tmp_path):
    src, dst = tmp_path / "sur.json", tmp_path / "out.csv"
    src.write_text('{"labels": ["\\udcff", "b"], "matrix": [[0, 1], [1, 0]]}')
    argv = ["transform", "transpose", "-i", str(src), "--format", "csv", "-o", str(dst)]
    code, out, err = cli(argv)
    assert (code, out) == (2, "")
    assert err == "error: label 1 holds a lone surrogate, which UTF-8 cannot encode: '\\udcff'\n"
    assert not dst.exists()
