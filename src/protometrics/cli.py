"""Command-line interface.

Four subcommands: classify, check, transform, generate. Matrices come from
a file or standard input and go to a file or standard output; diagnostics go
to the error stream. Exit codes are part of the contract: 0 for success or
a passing check, 1 for a failed check or an unmet transform precondition,
2 for usage or input errors. Each subcommand is one table of ops, and one
run path checks the flags and --format against the op's entry before any
input is read.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Callable

from .checks import (
    DEFAULT_WITNESS_CAP,
    Status,
    check_prequadrangle,
    check_strict,
    check_transition,
    check_triangle,
)
from .classify import classify
from .errors import InputError, PreconditionError
from .generators import (
    GenSpec,
    gen_metric,
    gen_protometric,
    gen_quasi_semi_metric,
    gen_zero_protometric,
)
from .io import (
    _FORMATS,
    decomposition_obj,
    detect_format,
    parse_decomposition,
    parse_gauge_csv,
    parse_matrix,
    serialize_matrix,
    serialize_report,
    serialize_verdict,
)
from .matrix import InequalityType, LabeledMatrix, ToleranceConfig
from . import transforms


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of standard input for "-"."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        # Python's UTF-8 mode reads bad bytes on standard input as lone
        # surrogates, which do not encode.
        text.encode("utf-8")
    except UnicodeError:
        name = "standard input" if path == "-" else path
        raise InputError(f"{name} is not UTF-8 text") from None
    return text


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _tolerance(args: argparse.Namespace) -> ToleranceConfig:
    return ToleranceConfig(
        eps_ineq=args.tolerance_ineq,
        eps_eq=args.tolerance_eq,
        eps_strict=args.tolerance_strict,
    )


@dataclass(frozen=True)
class _Output:
    """A kind of op output: the --format values it takes and how it is written.

    default applies without --format; None stands for the input matrix's
    format, or csv without input. refusal, filled in with the op and the
    format, is the error for any other --format.
    """

    formats: tuple[str, ...]
    default: str | None
    refusal: str
    write: Callable[[object, str, argparse.Namespace], str]


_MATRIX = _Output(_FORMATS["matrix"], None, "matrix output supports csv or json, not {fmt}",
                  lambda M, fmt, args: serialize_matrix(M, fmt))
_REPORT = _Output(_FORMATS["report"], "json", "reports support json or text output, not {fmt!r}",
                  lambda report, fmt, args: serialize_report(report, fmt))
_VERDICT = _Output(_FORMATS["verdict"], "text", "reports support json or text output, not {fmt!r}",
                   lambda verdict, fmt, args: serialize_verdict(args.op, verdict, fmt))
_OBJECT = _Output(("json",), "json", "{op} output is always JSON",
                  lambda obj, fmt, args: json.dumps(obj) + "\n")
_NUMBER = _Output(("json", "text"), "text", "{op} writes a bare number; use json or text",
                  lambda x, fmt, args: repr(x) + "\n")


@dataclass(frozen=True)
class _Op:
    """One op of a subcommand: an entry of the subcommand's table.

    run(source, args, tol) returns what output writes. source is the input
    matrix, the input text when reads_text is set, or None when the
    subcommand reads no input; tol is None when it has no tolerance flags.
    The op exits 2 when a flag in required is missing, or when it is given a
    flag that only other ops of its subcommand take. A typed op is selected
    as KIND:TYPE, and run finds the inequality type in args.type.
    """

    run: Callable[[object, argparse.Namespace, ToleranceConfig | None], object]
    output: _Output
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    reads_text: bool = False
    typed: bool = False


# Table entries call library functions through this module's globals, so
# that a rebinding of those names (as the benchmark's tracer does) reaches them.
CLASSIFY = {
    "classify": _Op(lambda M, args, tol: classify(M, tol, max_witnesses=args.max_witnesses),
                    _REPORT),
}

CHECKS = {
    "triangle": _Op(lambda M, args, tol: check_triangle(
        M, args.type, tol, max_witnesses=args.max_witnesses), _VERDICT, typed=True),
    "prequad": _Op(lambda M, args, tol: check_prequadrangle(
        M, args.type, tol, max_witnesses=args.max_witnesses), _VERDICT, typed=True),
    "strict": _Op(lambda M, args, tol: check_strict(
        M, args.type, tol, max_witnesses=args.max_witnesses), _VERDICT, typed=True),
    "transition": _Op(lambda M, args, tol: check_transition(
        M, tol, for_log_transform=args.for_log, max_witnesses=args.max_witnesses),
        _VERDICT, optional=("for_log",)),
}


def _compose(text: str, args: argparse.Namespace, tol: ToleranceConfig) -> LabeledMatrix:
    """Compose from a decomposition object, or from a matrix plus --f-file."""
    dec = parse_decomposition(text)
    if dec is None:
        if args.f_file is None:
            raise InputError("transform compose requires --f-file when the input is a matrix")
        f = parse_gauge_csv(_read_text(args.f_file))
        dec = transforms.Decomposition(d=parse_matrix(text), f=f)
    elif args.f_file is not None:
        raise InputError("transform compose takes --f-file only when the input is a matrix")
    return transforms.compose(dec.d, dec.f, tol)


def _preorder(M: LabeledMatrix, args: argparse.Namespace, tol: ToleranceConfig) -> dict:
    pre = transforms.specialization_preorder(M, tol)
    return {"relation": pre.relation, "classes": pre.classes, "order": pre.quotient_order}


TRANSFORMS = {
    "transpose": _Op(lambda M, args, tol: transforms.transpose(M), _MATRIX),
    "gauge": _Op(lambda M, args, tol: transforms.affine_gauge(
        M, args.alpha, parse_gauge_csv(_read_text(args.f_file))), _MATRIX,
        required=("alpha", "f_file")),
    "add": _Op(lambda M, args, tol: transforms.add(M, parse_matrix(_read_text(args.other))),
               _MATRIX, required=("other",)),
    "metrize": _Op(lambda M, args, tol: transforms.metrize(
        M, 1.0 if args.alpha is None else args.alpha, tol), _MATRIX, optional=("alpha",)),
    "compose": _Op(_compose, _MATRIX, optional=("f_file",), reads_text=True),
    "decompose": _Op(lambda M, args, tol: decomposition_obj(transforms.decompose(M, tol)),
                     _OBJECT),
    "zerocoords": _Op(lambda M, args, tol: asdict(transforms.zero_coordinates(M, tol)), _OBJECT),
    "potential": _Op(lambda M, args, tol: {"h": transforms.potential_of(M, tol),
                                           "ref": M.labels[0]}, _OBJECT),
    "preorder": _Op(_preorder, _OBJECT),
    "gromov": _Op(lambda M, args, tol: transforms.gromov_product(M, args.base_label, tol),
                  _MATRIX, required=("base_label",)),
    "farris": _Op(lambda M, args, tol: transforms.farris_transform(
        M, args.base_label, args.constant, tol), _MATRIX, required=("base_label", "constant")),
    "minfarris": _Op(lambda M, args, tol: transforms.min_farris_constant(
        M, args.base_label, tol), _NUMBER, required=("base_label",)),
    "log": _Op(lambda M, args, tol: transforms.log_transform(M), _MATRIX),
}


def _spec(args: argparse.Namespace) -> GenSpec:
    return GenSpec(n=args.n, seed=args.seed, scale=args.scale)


GENERATORS = {
    "metric": _Op(lambda _, args, tol: gen_metric(_spec(args)), _MATRIX),
    "qsm": _Op(lambda _, args, tol: gen_quasi_semi_metric(_spec(args)), _MATRIX),
    "protometric": _Op(
        lambda _, args, tol: gen_protometric(_spec(args), args.type or "t", strict=args.strict),
        _MATRIX, optional=("type", "strict"),
    ),
    "zeroproto": _Op(lambda _, args, tol: gen_zero_protometric(_spec(args)), _MATRIX),
}


def _parse_selector(selector: str) -> tuple[str, str | None]:
    """KIND:TYPE as (KIND, TYPE), and a bare KIND as (KIND, None)."""
    kind, sep, ty = selector.partition(":")
    return kind, ty if sep else None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _run(args: argparse.Namespace) -> int:
    """Run the op that args select from their subcommand's table; the exit code.

    Every check of the flags and of --format runs before any input is read.
    """
    table, sub = args.ops, args.subcommand
    name, ty = _parse_selector(args.op)
    op = table.get(name)
    if op is None:  # only a check selector is not restricted to the table by argparse
        forms = [k + ":TYPE" if o.typed else k for k, o in table.items()]
        raise InputError(f"unknown property selector {args.op!r}; expected "
                         f"{', '.join(forms[:-1])}, or {forms[-1]}")
    if op.typed:
        if not ty:
            raise InputError(f"selector {args.op!r} needs a type, like {name}:t")
        args.type = InequalityType.parse(ty)
    elif ty is not None:
        raise InputError(f"the {name} selector does not take a type")
    where = f"{sub} {name}"
    takes = op.required + op.optional
    for flag in sorted({f for o in table.values() for f in o.required + o.optional}):
        value = getattr(args, flag)  # compared by identity: --alpha 0 is given, and 0.0 == False
        if flag not in takes and value is not None and value is not False:
            users = ", ".join(k for k, o in table.items() if flag in o.required + o.optional)
            raise InputError(f"{where} does not take {_flag(flag)}: "
                             f"{_flag(flag)} only applies to {sub} {users}")
    for flag in op.required:
        if getattr(args, flag) is None:
            raise InputError(f"{where} requires {_flag(flag)}")
    output = op.output
    if args.format is not None and args.format not in output.formats:
        raise InputError(output.refusal.format(op=where, fmt=args.format))
    tol = _tolerance(args) if "tolerance_ineq" in args else None
    if "max_witnesses" in args and args.max_witnesses < 1:
        raise InputError(f"--max-witnesses must be >= 1, got {args.max_witnesses}")
    if "input" in args:
        text = _read_text(args.input)
        in_format = detect_format(text)
        source = text if op.reads_text else parse_matrix(text)
    else:
        source, in_format = None, "csv"
    out = op.run(source, args, tol)
    fmt = args.format or output.default or in_format
    _write_text(args.output, output.write(out, fmt, args))
    return 1 if output is _VERDICT and out.status is Status.FAIL else 0


def _add_io_flags(p: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        p.add_argument("-i", "--input", default="-", metavar="PATH",
                       help="input matrix file, or - for standard input (default)")
    p.add_argument("-o", "--output", default="-", metavar="PATH",
                   help="output file, or - for standard output (default)")
    p.add_argument("--format", choices=("csv", "json", "text"), default=None,
                   help="output format; defaults to the input format for "
                            "matrices, json for reports, text for checks")


def _add_tolerance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tolerance-ineq", type=float, default=1e-9, metavar="EPS",
                   help="absolute slack allowed on inequalities (default 1e-9)")
    p.add_argument("--tolerance-eq", type=float, default=1e-9, metavar="EPS",
                   help="absolute slack allowed on equalities (default 1e-9)")
    p.add_argument("--tolerance-strict", type=float, default=1e-9, metavar="EPS",
                   help="margin a strict inequality must exceed (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protometrics",
        description="Classify, transform, and generate generalized distance matrices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="full taxonomy report for a matrix")
    _add_io_flags(p)
    _add_tolerance_flags(p)
    p.add_argument("--max-witnesses", type=int, default=DEFAULT_WITNESS_CAP, metavar="N",
                   help="violation witnesses kept per check (default 10)")
    p.set_defaults(ops=CLASSIFY, op="classify")

    p = sub.add_parser("check", help="run one property check; exit 1 on failure")
    p.add_argument("op", metavar="selector",
                   help="triangle:TYPE, prequad:TYPE, strict:TYPE (TYPE in o,i,t,c), "
                        "or transition")
    p.add_argument("--for-log", action="store_true",
                   help="transition only: report not-applicable when entries "
                        "are not strictly positive")
    _add_io_flags(p)
    _add_tolerance_flags(p)
    p.add_argument("--max-witnesses", type=int, default=DEFAULT_WITNESS_CAP, metavar="N",
                   help="violation witnesses kept (default 10)")
    p.set_defaults(ops=CHECKS)

    p = sub.add_parser("transform", help="apply one matrix transformation")
    p.add_argument("op", choices=tuple(TRANSFORMS))
    p.add_argument("--alpha", type=float, default=None,
                   help="positive scale factor (gauge; optional for metrize, default 1)")
    p.add_argument("--f-file", default=None, metavar="PATH",
                   help="two-column label,value CSV gauge (gauge, compose)")
    p.add_argument("--base-label", default=None, metavar="LABEL",
                   help="base point (gromov, farris, minfarris)")
    p.add_argument("--constant", type=float, default=None, metavar="C",
                   help="Farris constant (farris)")
    p.add_argument("--other", default=None, metavar="PATH",
                   help="second operand matrix file (add)")
    _add_io_flags(p)
    _add_tolerance_flags(p)
    p.set_defaults(ops=TRANSFORMS)

    p = sub.add_parser("generate", help="emit a seeded random instance")
    p.add_argument("op", choices=tuple(GENERATORS))
    p.add_argument("--n", type=int, required=True, help="number of points (>= 1)")
    p.add_argument("--seed", type=int, default=0, help="64-bit stream seed (default 0)")
    p.add_argument("--scale", type=float, default=10.0,
                   help="magnitude of the drawn entries (default 10)")
    p.add_argument("--type", choices=("o", "i", "t", "c"), default=None,
                   help="protometric type (default t)")
    p.add_argument("--strict", action="store_true",
                   help="force strictness by keeping all points distinct")
    _add_io_flags(p, with_input=False)
    p.set_defaults(ops=GENERATORS)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _run(args)
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (InputError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
