"""Byte-for-byte golden outputs of the command line.

Every subcommand, every check selector and every transform op runs on small
fixed inputs, and its standard output and exit code must match the recorded
ones exactly; so must each subcommand's --help. Standard error is not pinned.

The --help text comes from argparse and was recorded at 80 columns. To
record the goldens again after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from protometrics.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

INPUTS = {
    "path.csv": "0,1,2\n1,0,1\n2,1,0\n",
    "collinear.csv": ",a,b,c\na,0,1,3\nb,1,0,2\nc,3,2,0\n",
    "qsm.csv": ",a,b,c,d\na,0,1,2,3\nb,2,0,1,2\nc,1,2,0,1\nd,3,1,2,0\n",
    "proto.json": '{"labels": ["x1", "x2", "x3"], '
                  '"matrix": [[1, 2, 1.75], [2, 2, 1.75], [1.75, 1.75, 0.5]]}\n',
    "decomp.json": '{"d": {"labels": ["x1", "x2", "x3"], '
                   '"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}, '
                   '"f": {"x1": 1, "x2": 2, "x3": 0.5}}\n',
    "zero.csv": ",a,b\na,2,3\nb,0,1\n",
    "hdiff.csv": "0,-1,-3\n1,0,-2\n3,2,0\n",
    "preorder.csv": ",a,b,c\na,0,0,1\nb,0,0,1\nc,1,1,0\n",
    "sim.csv": "1,0.5,0.25\n0.5,1,0.5\n0.25,0.5,1\n",
    "sim_zero.csv": "1,0\n0,1\n",
    "bad.csv": "0,-3\n1,0\n",
    "gauge.csv": "x1,1\nx2,2\nx3,0.5\n",
    "other.csv": "1,0,0\n0,1,0\n0,0,1\n",
    "malformed.csv": "0,1,2\n1,0\n2,1,0\n",
}

SELECTORS = [f"{kind}:{ty}" for kind in ("triangle", "prequad", "strict") for ty in "oitc"]

CASES = [
    ["--help"],
    ["classify", "--help"],
    ["check", "--help"],
    ["transform", "--help"],
    ["generate", "--help"],
    ["classify", "-i", "path.csv"],
    ["classify", "-i", "collinear.csv", "--format", "text"],
    ["classify", "-i", "proto.json", "--max-witnesses", "1"],
    ["classify", "-i", "qsm.csv", "--format", "text", "--tolerance-ineq", "0.5"],
    ["classify", "-i", "bad.csv", "--format", "text"],
    ["classify", "-i", "path.csv", "--format", "csv"],
    ["classify", "-i", "malformed.csv"],
    *[["check", sel, "-i", "qsm.csv"] for sel in SELECTORS],
    *[["check", sel, "-i", "proto.json", "--format", "json"] for sel in SELECTORS],
    ["check", "transition", "-i", "sim.csv"],
    ["check", "transition", "-i", "qsm.csv", "--format", "json", "--max-witnesses", "2"],
    ["check", "transition", "--for-log", "-i", "sim_zero.csv"],
    ["check", "transition", "--for-log", "-i", "sim.csv", "--format", "json"],
    ["check", "triangle:t", "-i", "bad.csv", "--format", "json"],
    ["check", "triangle:t", "--for-log", "-i", "path.csv"],
    ["check", "triangle", "-i", "path.csv"],
    ["check", "transition:t", "-i", "sim.csv"],
    ["check", "bogus:t", "-i", "path.csv"],
    ["transform", "transpose", "-i", "qsm.csv"],
    ["transform", "transpose", "-i", "proto.json", "--format", "csv"],
    ["transform", "gauge", "-i", "path.csv", "--alpha", "2", "--f-file", "gauge.csv"],
    ["transform", "gauge", "-i", "path.csv", "--alpha", "2"],
    ["transform", "add", "-i", "path.csv", "--other", "other.csv", "--format", "json"],
    ["transform", "metrize", "-i", "proto.json"],
    ["transform", "metrize", "-i", "proto.json", "--alpha", "2", "--format", "csv"],
    ["transform", "metrize", "-i", "bad.csv"],
    ["transform", "metrize", "-i", "path.csv", "--constant", "5"],
    ["transform", "compose", "-i", "decomp.json"],
    ["transform", "compose", "-i", "path.csv", "--f-file", "gauge.csv"],
    ["transform", "compose", "-i", "path.csv"],
    ["transform", "compose", "-i", "bad.csv", "--f-file", "gauge.csv"],
    ["transform", "decompose", "-i", "proto.json"],
    ["transform", "decompose", "-i", "bad.csv"],
    ["transform", "decompose", "-i", "proto.json", "--format", "csv"],
    ["transform", "zerocoords", "-i", "zero.csv"],
    ["transform", "zerocoords", "-i", "path.csv"],
    ["transform", "potential", "-i", "hdiff.csv"],
    ["transform", "potential", "-i", "path.csv"],
    ["transform", "preorder", "-i", "preorder.csv"],
    ["transform", "preorder", "-i", "qsm.csv"],
    ["transform", "preorder", "-i", "bad.csv"],
    ["transform", "gromov", "-i", "collinear.csv", "--base-label", "a"],
    ["transform", "gromov", "-i", "qsm.csv", "--base-label", "a"],
    ["transform", "gromov", "-i", "collinear.csv"],
    ["transform", "farris", "-i", "collinear.csv", "--base-label", "b", "--constant", "5"],
    ["transform", "farris", "-i", "collinear.csv", "--base-label", "b"],
    ["transform", "minfarris", "-i", "collinear.csv", "--base-label", "c"],
    ["transform", "minfarris", "-i", "collinear.csv", "--base-label", "c", "--format", "csv"],
    ["transform", "minfarris", "-i", "bad.csv", "--base-label", "x1"],
    ["transform", "log", "-i", "sim.csv"],
    ["transform", "log", "-i", "sim_zero.csv"],
    ["transform", "log", "-i", "malformed.csv"],
    ["generate", "metric", "--n", "4", "--seed", "7"],
    ["generate", "qsm", "--n", "4", "--seed", "7", "--format", "json"],
    ["generate", "protometric", "--n", "5", "--seed", "7"],
    ["generate", "protometric", "--n", "4", "--seed", "7", "--type", "o", "--strict"],
    ["generate", "zeroproto", "--n", "3", "--seed", "7", "--format", "json"],
    ["generate", "metric", "--n", "3", "--strict"],
    ["generate", "qsm", "--n", "3", "--format", "text"],
]


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run the command line in-process in ``workdir``; return its exit code and stdout."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd, stdin, columns = os.getcwd(), sys.stdin, os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"
    sys.stdin = io.StringIO("")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
        sys.stdin = stdin
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"code": code, "stdout": out.getvalue()}


def case_id(argv: list[str]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=case_id)
def test_cli_output_matches_golden(argv, golden, tmp_path):
    assert run_case(argv, tmp_path) == golden[case_id(argv)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {case_id(a): run_case(a, Path(tmp)) for a in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
