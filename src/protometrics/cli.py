"""Command-line interface.

Four subcommands: classify, check, transform, generate. Matrices come from
a file or standard input and go to a file or standard output; diagnostics go
to the error stream. Exit codes are part of the contract: 0 for success or
a passing check, 1 for a failed check or an unmet transform precondition,
2 for usage or input errors. Flags are validated before any input is read.
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
    MatrixFormat,
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


def _witness_cap(args: argparse.Namespace) -> int:
    cap = args.max_witnesses
    if cap < 1:
        raise InputError(f"--max-witnesses must be >= 1, got {cap}")
    return cap


def _matrix_format(args: argparse.Namespace, default: MatrixFormat) -> MatrixFormat:
    if args.format is None:
        return default
    if args.format == "text":
        raise InputError("matrix output supports csv or json, not text")
    return MatrixFormat.parse(args.format)


def _report_format(args: argparse.Namespace, default: str) -> str:
    fmt = args.format or default
    if fmt not in ("json", "text"):
        raise InputError(f"reports support json or text output, not {fmt!r}")
    return fmt


def run_classify(args: argparse.Namespace) -> int:
    fmt = _report_format(args, "json")
    tol = _tolerance(args)
    cap = _witness_cap(args)
    M = parse_matrix(_read_text(args.input))
    report = classify(M, tol, max_witnesses=cap)
    _write_text(args.output, serialize_report(report, fmt))
    return 0


# Check selector kinds; every kind but transition takes an inequality type.
CHECKS = {
    "triangle": lambda M, ty, tol, cap, for_log: check_triangle(M, ty, tol, max_witnesses=cap),
    "prequad": lambda M, ty, tol, cap, for_log: check_prequadrangle(
        M, ty, tol, max_witnesses=cap
    ),
    "strict": lambda M, ty, tol, cap, for_log: check_strict(M, ty, tol, max_witnesses=cap),
    "transition": lambda M, ty, tol, cap, for_log: check_transition(
        M, tol, for_log_transform=for_log, max_witnesses=cap
    ),
}


def _parse_selector(selector: str) -> tuple[str, InequalityType | None]:
    kind, sep, rest = selector.partition(":")
    if kind not in CHECKS:
        raise InputError(
            f"unknown property selector {selector!r}; expected triangle:TYPE, "
            "prequad:TYPE, strict:TYPE, or transition"
        )
    if kind == "transition":
        if sep:
            raise InputError("the transition selector does not take a type")
        return kind, None
    if not rest:
        raise InputError(f"selector {selector!r} needs a type, like {kind}:t")
    return kind, InequalityType.parse(rest)


def run_check(args: argparse.Namespace) -> int:
    kind, ty = _parse_selector(args.selector)
    if args.for_log and kind != "transition":
        raise InputError("--for-log only applies to the transition selector")
    fmt = _report_format(args, "text")
    tol = _tolerance(args)
    cap = _witness_cap(args)
    M = parse_matrix(_read_text(args.input))
    verdict = CHECKS[kind](M, ty, tol, cap, args.for_log)
    _write_text(args.output, serialize_verdict(args.selector, verdict, fmt))
    return 1 if verdict.status is Status.FAIL else 0


@dataclass(frozen=True)
class _Transform:
    """One transform op.

    run(source, args, tol) returns a matrix, a JSON object or a bare number;
    source is the parsed input matrix, or the input text when reads_text is
    set. The op takes the flags in required and optional, and exits 2 when
    one in required is missing or another op's flag is given.
    """

    run: Callable[[object, argparse.Namespace, ToleranceConfig], object]
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    reads_text: bool = False


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
    "transpose": _Transform(lambda M, args, tol: transforms.transpose(M)),
    "gauge": _Transform(
        lambda M, args, tol: transforms.affine_gauge(
            M, args.alpha, parse_gauge_csv(_read_text(args.f_file))
        ),
        required=("alpha", "f_file"),
    ),
    "add": _Transform(
        lambda M, args, tol: transforms.add(M, parse_matrix(_read_text(args.other))),
        required=("other",),
    ),
    "metrize": _Transform(
        lambda M, args, tol: transforms.metrize(M, 1.0 if args.alpha is None else args.alpha, tol),
        optional=("alpha",),
    ),
    "compose": _Transform(_compose, optional=("f_file",), reads_text=True),
    "decompose": _Transform(lambda M, args, tol: decomposition_obj(transforms.decompose(M, tol))),
    "zerocoords": _Transform(lambda M, args, tol: asdict(transforms.zero_coordinates(M, tol))),
    "potential": _Transform(
        lambda M, args, tol: {"h": transforms.potential_of(M, tol), "ref": M.labels[0]}
    ),
    "preorder": _Transform(_preorder),
    "gromov": _Transform(
        lambda M, args, tol: transforms.gromov_product(M, args.base_label, tol),
        required=("base_label",),
    ),
    "farris": _Transform(
        lambda M, args, tol: transforms.farris_transform(M, args.base_label, args.constant, tol),
        required=("base_label", "constant"),
    ),
    "minfarris": _Transform(
        lambda M, args, tol: transforms.min_farris_constant(M, args.base_label, tol),
        required=("base_label",),
    ),
    "log": _Transform(lambda M, args, tol: transforms.log_transform(M)),
}


def run_transform(args: argparse.Namespace) -> int:
    op = args.op
    spec = TRANSFORMS[op]
    takes = spec.required + spec.optional
    op_flags = {name for t in TRANSFORMS.values() for name in t.required + t.optional}
    stray = sorted(n for n in op_flags if n not in takes and getattr(args, n) is not None)
    if stray:
        raise InputError(f"transform {op} does not take --{stray[0].replace('_', '-')}")
    for name in spec.required:
        if getattr(args, name) is None:
            raise InputError(f"transform {op} requires --{name.replace('_', '-')}")
    tol = _tolerance(args)
    text = _read_text(args.input)
    in_format = detect_format(text)
    out = spec.run(text if spec.reads_text else parse_matrix(text, in_format), args, tol)
    if isinstance(out, float):
        if args.format == "csv":
            raise InputError(f"{op} writes a bare number; use json or text")
        text = repr(out) + "\n"
    elif isinstance(out, dict):
        if args.format not in (None, "json"):
            raise InputError(f"transform {op} output is always JSON")
        text = json.dumps(out) + "\n"
    else:
        text = serialize_matrix(out, _matrix_format(args, in_format))
    _write_text(args.output, text)
    return 0


GENERATORS = {
    "metric": lambda spec, args: gen_metric(spec),
    "qsm": lambda spec, args: gen_quasi_semi_metric(spec),
    "protometric": lambda spec, args: gen_protometric(spec, args.type or "t", strict=args.strict),
    "zeroproto": lambda spec, args: gen_zero_protometric(spec),
}


def run_generate(args: argparse.Namespace) -> int:
    kind = args.kind
    if args.type is not None and kind != "protometric":
        raise InputError("--type only applies to generate protometric")
    if args.strict and kind != "protometric":
        raise InputError("--strict only applies to generate protometric")
    fmt = _matrix_format(args, MatrixFormat.CSV)
    M = GENERATORS[kind](GenSpec(n=args.n, seed=args.seed, scale=args.scale), args)
    _write_text(args.output, serialize_matrix(M, fmt))
    return 0


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
    p.set_defaults(func=run_classify)

    p = sub.add_parser("check", help="run one property check; exit 1 on failure")
    p.add_argument("selector",
                   help="triangle:TYPE, prequad:TYPE, strict:TYPE (TYPE in o,i,t,c), "
                        "or transition")
    p.add_argument("--for-log", action="store_true",
                   help="transition only: report not-applicable when entries "
                        "are not strictly positive")
    _add_io_flags(p)
    _add_tolerance_flags(p)
    p.add_argument("--max-witnesses", type=int, default=DEFAULT_WITNESS_CAP, metavar="N",
                   help="violation witnesses kept (default 10)")
    p.set_defaults(func=run_check)

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
    p.set_defaults(func=run_transform)

    p = sub.add_parser("generate", help="emit a seeded random instance")
    p.add_argument("kind", choices=tuple(GENERATORS))
    p.add_argument("--n", type=int, required=True, help="number of points (>= 1)")
    p.add_argument("--seed", type=int, default=0, help="64-bit stream seed (default 0)")
    p.add_argument("--scale", type=float, default=10.0,
                   help="magnitude of the drawn entries (default 10)")
    p.add_argument("--type", choices=("o", "i", "t", "c"), default=None,
                   help="protometric type (default t)")
    p.add_argument("--strict", action="store_true",
                   help="force strictness by keeping all points distinct")
    _add_io_flags(p, with_input=False)
    p.set_defaults(func=run_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
