"""Reading and writing matrices and classification reports.

Two wire formats, named by the strings "csv" and "json". CSV: an optional
header row of labels plus a leading label column, detected by a non-numeric
first cell; otherwise a bare numeric grid labeled x1..xn. JSON: an object
with an optional "labels" array and a required square "matrix". Reports and
verdicts are written as "json" or "text". A serializer refuses every other
format value, "JSON" and None among them. Numbers are written with the
shortest decimal that parses back to the identical binary float, and
non-finite values are rejected at parse time, as is a JSON label that UTF-8
cannot encode. One leading byte-order mark (U+FEFF), which spreadsheet
exports write, is ignored.

Both directions convert a whole row at a time: a row is parsed by one
``map(float, ...)`` and checked by the finiteness of its sum, and written
from ``entries.tolist()``. Only a row that fails that check goes through
the per-cell loop, which locates its first bad cell; a row of finite
numbers whose sum overflows is accepted there.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math

from .classify import REPORT_FLAGS, ClassificationReport
from .checks import PropertyVerdict
from .errors import InputError, InvalidMatrixError, ParseError
from .matrix import LabeledMatrix, auto_labels
from .transforms import Decomposition

__all__ = [
    "decomposition_obj",
    "detect_format",
    "parse_decomposition",
    "parse_gauge_csv",
    "parse_matrix",
    "serialize_matrix",
    "serialize_report",
    "serialize_verdict",
]


# The formats each serializer writes, in the order its refusal names them.
_FORMATS = {"matrix": ("csv", "json"), "report": ("json", "text"), "verdict": ("json", "text")}


def _format(kind: str, format: object) -> str:
    """format, when the kind's serializer writes it; any other value is an InputError."""
    formats = _FORMATS[kind]
    if isinstance(format, str) and format in formats:
        return format
    raise InputError(f"unknown {kind} format {format!r}; expected {' or '.join(formats)}")


def _without_bom(text: str) -> str:
    return text[1:] if text.startswith("\ufeff") else text


def detect_format(text: str) -> str:
    """Sniff the format: "json" for a document starting with '{', else "csv"."""
    return "json" if _without_bom(text).lstrip().startswith("{") else "csv"


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise ParseError(f"expected a number, got {cell!r}", row=row, col=col) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite value {cell!r}", row=row, col=col)
    return v


def _parse_row(cells: list[str], row: int, col: int) -> list[float]:
    """The numbers of one CSV row whose first cell is at column ``col``."""
    try:
        values = list(map(float, cells))
        if math.isfinite(sum(values)):
            return values
    except ValueError:
        pass
    return [_parse_cell(c, row, col + j) for j, c in enumerate(cells)]


def _csv_rows(text: str) -> list[list[str]]:
    """The rows of CSV text, without blank lines. A row csv cannot read is a ParseError."""
    rows = []
    try:
        for r in csv.reader(_io.StringIO(text)):
            if r:
                rows.append(r)
    except csv.Error as e:  # such as a cell past the field size limit
        raise ParseError(f"unreadable CSV: {e}", row=len(rows) + 1) from None
    return rows


def _parse_csv(text: str) -> LabeledMatrix:
    rows = _csv_rows(text)
    try:  # a labeled grid starts with a header row and each row with its label
        float(rows[0][0])
        skip = 0
    except ValueError:
        skip = 1
    labels = tuple(rows[0][1:]) if skip else auto_labels(len(rows))
    n = len(labels)
    if n == 0:
        raise ParseError("header row carries no labels", row=1)
    body = rows[skip:]
    if len(body) != n:
        raise ParseError(f"{n} labels but {len(body)} data rows")
    grid = []
    for i, r in enumerate(body):
        if len(r) != n + skip:
            raise ParseError(f"expected {n + skip} cells, got {len(r)}", row=i + 1 + skip)
        if skip and r[0] != labels[i]:
            raise ParseError(f"row label {r[0]!r} does not match header label {labels[i]!r}",
                             row=i + 2, col=1)
        grid.append(_parse_row(r[skip:], i + 1 + skip, 1 + skip))
    try:
        return LabeledMatrix(labels, grid)
    except InvalidMatrixError as e:
        raise ParseError(str(e)) from None


def _reject_constant(token: str) -> float:
    raise ParseError(f"non-finite value {token!r} in JSON input")


def _load_json(text: str) -> object:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", row=e.lineno, col=e.colno) from None
    except ParseError:  # a NaN or Infinity token
        raise
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError("invalid JSON: an integer has too many digits") from None


def _json_float(v: int | float, what: str, **where) -> float:
    """float(v), with a JSON integer too large for a float reported as a ParseError."""
    try:
        return float(v)
    except OverflowError:
        raise ParseError(f"{what} is too large for a float", **where) from None


def _matrix_from_obj(doc: object) -> LabeledMatrix:
    """The matrix of a decoded JSON matrix object, {"labels": [...], "matrix": [[...]]}."""
    if not isinstance(doc, dict):
        raise ParseError("JSON input must be an object with a 'matrix' key")
    if "matrix" not in doc:
        raise ParseError("JSON input is missing the 'matrix' key")
    matrix = doc["matrix"]
    if not isinstance(matrix, list) or not matrix:
        raise ParseError("'matrix' must be a nonempty array of rows")
    n = len(matrix)
    grid = []
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"'matrix' must be square; row {i + 1} does not have {n} entries")
        if set(map(type, row)) == {float} and math.isfinite(sum(row)):
            grid.append(row)
            continue
        out = []
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ParseError(f"expected a number, got {v!r}", row=i + 1, col=j + 1)
            f = _json_float(v, "number", row=i + 1, col=j + 1)
            if not math.isfinite(f):
                raise ParseError(f"non-finite value {v!r}", row=i + 1, col=j + 1)
            out.append(f)
        grid.append(out)
    labels_field = doc.get("labels")
    if labels_field is None:
        labels = auto_labels(n)
    else:
        if not isinstance(labels_field, list) or not all(
            isinstance(l, str) for l in labels_field
        ):
            raise ParseError("'labels' must be an array of strings")
        if len(labels_field) != n:
            raise ParseError(f"{len(labels_field)} labels for a {n}x{n} matrix")
        for k, label in enumerate(labels_field):
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:  # JSON can escape a lone surrogate, like \udcff
                raise ParseError(f"label {k + 1} holds a lone surrogate, which UTF-8 "
                                 f"cannot encode: {label!r}") from None
        labels = tuple(labels_field)
    try:
        return LabeledMatrix(labels, grid)
    except InvalidMatrixError as e:
        raise ParseError(str(e)) from None


def parse_matrix(text: str) -> LabeledMatrix:
    """Parse matrix text in the format that ``detect_format`` sniffs.

    Errors carry a 1-based position where one makes sense.
    """
    text = _without_bom(text)
    if not text.strip():
        raise ParseError("empty input")
    if detect_format(text) == "csv":
        return _parse_csv(text)
    return _matrix_from_obj(_load_json(text))


def _matrix_obj(M: LabeledMatrix) -> dict:
    return {"labels": list(M.labels), "matrix": M.entries.tolist()}


def serialize_matrix(M: LabeledMatrix, format: str = "csv") -> str:
    """Serialize with labels; parse(serialize(M)) reproduces M bit for bit."""
    if _format("matrix", format) == "json":
        return json.dumps(_matrix_obj(M)) + "\n"
    for l in M.labels:
        if any(c in l for c in ",\r\n\""):
            raise InputError(f"label {l!r} cannot be written as CSV; use the JSON format")
    lines = ["," + ",".join(M.labels)]
    for l, row in zip(M.labels, M.entries.tolist()):
        lines.append(l + "," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _verdict_obj(v: PropertyVerdict) -> dict:
    return {
        "status": v.status.value,
        "min_slack": v.min_slack,
        "count_checked": v.count_checked,
        "count_violations": v.count_violations,
        "witnesses": [vars(w) for w in v.witnesses],  # x, y, z, lhs, rhs, deficit
    }


def serialize_verdict(selector: str, verdict: PropertyVerdict, format: str) -> str:
    """Render one check verdict as JSON or as a text line plus its first witness."""
    if _format("verdict", format) == "json":
        return json.dumps(_verdict_obj(verdict)) + "\n"
    slack = "n/a" if verdict.min_slack is None else repr(verdict.min_slack)
    lines = [
        f"{selector}: {verdict.status.value} min_slack={slack} "
        f"violations={verdict.count_violations}/{verdict.count_checked}"
    ]
    if verdict.witnesses:
        w = verdict.witnesses[0]
        lines.append(
            f"witness: x={w.x} y={w.y} z={w.z} "
            f"lhs={w.lhs!r} rhs={w.rhs!r} deficit={w.deficit!r}"
        )
    return "\n".join(lines) + "\n"


def serialize_report(report: ClassificationReport, format: str = "json") -> str:
    """Render a classification report as stable JSON or a readable text table.

    Serializing the same report twice gives byte-identical output.
    """
    verdicts = {}
    for ty, v in report.triangle.items():
        verdicts[f"triangle_{ty.value}"] = _verdict_obj(v)
    for ty, v in report.prequadrangle.items():
        verdicts[f"prequad_{ty.value}"] = _verdict_obj(v)
    verdicts["strict_t"] = _verdict_obj(report.strictness)
    if _format("report", format) == "json":
        return json.dumps({"flags": report.flags, "verdicts": verdicts}, indent=2) + "\n"
    width = max(len(name) for name in REPORT_FLAGS)
    lines = []
    for name in REPORT_FLAGS:
        lines.append(f"{name:<{width}}  {'yes' if report.flags[name] else 'no'}")
    lines.append("")
    for key, v in verdicts.items():
        slack = "n/a" if v["min_slack"] is None else repr(v["min_slack"])
        lines.append(
            f"{key:<{width}}  {v['status']}  min_slack={slack}  "
            f"violations={v['count_violations']}/{v['count_checked']}"
        )
        for w in v["witnesses"][:1]:
            lines.append(
                f"{'':<{width}}  first witness x={w['x']} y={w['y']} z={w['z']} "
                f"lhs={w['lhs']!r} rhs={w['rhs']!r} deficit={w['deficit']!r}"
            )
    return "\n".join(lines) + "\n"


def parse_gauge_csv(text: str) -> dict[str, float]:
    """Parse a two-column label,value CSV into a gauge mapping."""
    rows = _csv_rows(_without_bom(text))
    if not rows:
        raise ParseError("empty gauge input")
    out: dict[str, float] = {}
    for i, r in enumerate(rows):
        if len(r) != 2:
            raise ParseError(f"expected label,value, got {len(r)} cells", row=i + 1)
        label, cell = r
        if label in out:
            raise ParseError(f"duplicate label {label!r}", row=i + 1, col=1)
        out[label] = _parse_cell(cell, i + 1, 2)
    return out


def decomposition_obj(dec: Decomposition) -> dict:
    """The JSON object of a decomposition: {"d": matrix object, "f": {label: value}}."""
    return {"d": _matrix_obj(dec.d), "f": {l: float(v) for l, v in dec.f.items()}}


def parse_decomposition(text: str) -> Decomposition | None:
    """Parse a decomposition object as decomposition_obj writes it.

    Returns None when the text is not a JSON object with both "d" and "f" keys.
    """
    text = _without_bom(text)
    if detect_format(text) != "json":
        return None
    doc = _load_json(text)
    if not (isinstance(doc, dict) and "d" in doc and "f" in doc):
        return None
    d = _matrix_from_obj(doc["d"])
    if not isinstance(doc["f"], dict):
        raise ParseError("decomposition field 'f' must be an object of label: value")
    f = {}
    for label, v in doc["f"].items():
        what = f"gauge value for {label!r}"
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not (number and math.isfinite(_json_float(v, what))):
            raise ParseError(f"{what} must be a finite number, got {v!r}")
        f[label] = float(v)
    return Decomposition(d=d, f=f)
