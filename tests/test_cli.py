import io
import json
import sys

import numpy as np
import pytest

from protometrics import LabeledMatrix, auto_labels, classify, parse_matrix, serialize_matrix
from protometrics.cli import main

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


def test_classify_rejects_bad_tolerance_and_cap(cli):
    assert cli(["classify", "--tolerance-ineq", "-1"], stdin=PATH_CSV)[0] == 2
    assert cli(["classify", "--max-witnesses", "0"], stdin=PATH_CSV)[0] == 2


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
