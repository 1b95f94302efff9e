"""Statement and operator mutants: which statements and operators can change with no test failing?

Two kinds of mutant are made of the given modules. A statement mutant
replaces one statement inside a function or class body by ``pass``
(docstrings and ``pass`` itself excepted). An operator mutant swaps one
comparison operator (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
``is`` and ``is not``, ``in`` and ``not in``), one boolean operator
(``and`` and ``or``) or one numpy comparison (``np.less`` and
``np.less_equal``, ``np.greater`` and ``np.greater_equal``) anywhere in the
module; the expression is written back from its syntax tree, and a mutant
whose text does not parse to exactly the swapped tree is not made.
With ``--since REV`` only the mutants on lines that ``git diff REV`` adds or
changes under ``src/`` are made: a statement's own lines (for a compound
statement, its header), or the lines of the swapped expression.
Each mutant runs in a worker copy of the tree, ``src/`` and ``tests/`` and
``pyproject.toml``, against the given test modules with ``pytest -x``,
the mutated module's own ``tests/test_<module>.py`` first, under a
per-mutant timeout. A mutant is *killed* when pytest fails or times out,
and *survives* when it passes.

    python tools/mutants.py --out MUTANTS.json \\
        src/protometrics/checks.py src/protometrics/io.py -- tests/test_checks.py
    python tools/mutants.py --since main --out mutants-since-main.json

With no modules every module of ``src/protometrics`` is mutated; with no
test modules after ``--`` every ``tests/test_*.py`` runs. The tree must
pass its tests unmutated, which is checked first; if it does not, the tail
of pytest's output is printed. Only the standard library (and ``git``, for
``--since``) is used. Every pytest run is started in a process group of its
own and the group is killed on a timeout or an interrupt, so no process
outlives the script. The output lists each survivor, with its kind and
mutation, and with an empty ``outcome`` and ``reason`` for a reader to fill
in.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT = 300.0  # seconds per mutant; the whole suite takes well under a minute
OUTPUT = ".pytest-output"  # pytest's output in a worker tree
WORKERS = min(2, os.cpu_count() or 1)  # worker trees, each running one pytest at a time


def _statements(tree: ast.Module):
    """Every statement with a function or class among its ancestors, but docstrings and ``pass``."""

    def walk(body, inside):
        for k, node in enumerate(body):
            docstring = (k == 0 and inside and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if inside and not docstring and not isinstance(node, ast.Pass):
                yield node
            scope = inside or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for field in ("body", "orelse", "finalbody"):
                yield from walk(getattr(node, field, []), scope)
            for handler in getattr(node, "handlers", []):
                yield from walk(handler.body, scope)
            for case in getattr(node, "cases", []):
                yield from walk(case.body, scope)

    yield from walk(tree.body, False)


# Each swapped operator, and how it is written.
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in", ast.And: "and", ast.Or: "or"}
# Each swapped numpy comparison, by its name in ``np``.
UFUNC_SWAPS = {"less": "less_equal", "less_equal": "less",
               "greater": "greater_equal", "greater_equal": "greater"}
TAIL = 40  # lines of pytest's output printed when the unmutated tree fails


def _operators(tree: ast.Module):
    """Each (node, k, op) of a swappable operator: node.ops[k] of a comparison,
    node.op, or the name of np.<comparison> as a str."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in UFUNC_SWAPS
                and isinstance(node.value, ast.Name) and node.value.id == "np"):
            yield node, 0, node.attr
        ops = [node.op] if isinstance(node, ast.BoolOp) else getattr(node, "ops", [])
        for k, op in enumerate(ops):
            if type(op) in SWAPS:
                yield node, k, op


def _swap(op):
    return UFUNC_SWAPS[op] if isinstance(op, str) else SWAPS[type(op)]()


def _symbol(op) -> str:
    return f"np.{op}" if isinstance(op, str) else SYMBOLS[type(op)]


def _set(node: ast.AST, k: int, op) -> None:
    if isinstance(node, ast.Attribute):
        node.attr = op
    elif isinstance(node, ast.BoolOp):
        node.op = op
    else:
        node.ops[k] = op


def _own_lines(node: ast.AST) -> range:
    """The lines a mutant of ``node`` changes: a compound statement's header, else all of it."""
    body = getattr(node, "body", None)
    if isinstance(node, ast.stmt) and isinstance(body, list) and body:
        return range(node.lineno, body[0].lineno)
    return range(node.lineno, node.end_lineno + 1)


def changed_lines(rev: str) -> dict[str, set[int]]:
    """The lines of each file under src/ that ``git diff rev`` adds or changes, as now numbered."""
    diff = subprocess.run(["git", "diff", "-U0", "--no-color", rev, "--", "src/"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout
    lines: dict[str, set[int]] = {}
    path = None
    for row in diff.splitlines():
        if row.startswith("+++ "):
            path = row[6:] if row.startswith("+++ b/") else None
        elif row.startswith("@@") and path is not None:
            start, _, count = row.split()[2][1:].partition(",")
            lines.setdefault(path, set()).update(range(int(start), int(start) + int(count or 1)))
    return lines


def mutants(path: Path) -> list[dict]:
    """The mutants of one module: its text with one statement replaced by ``pass``,
    or with one operator swapped."""
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    # ast gives columns in UTF-8 bytes; the slices below count characters.
    chars = lambda k, col: starts[k - 1] + len(lines[k - 1].encode()[:col].decode())
    module = str(path.resolve().relative_to(ROOT))
    tree = ast.parse(text)
    out = []
    for node in _statements(tree):
        # A decorated definition starts at its first decorator, at the same indent.
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        begin, end = chars(first, node.col_offset), chars(node.end_lineno, node.end_col_offset)
        out.append({"module": module, "line": node.lineno, "kind": "statement",
                    "statement": lines[node.lineno - 1].strip(), "mutation": "pass",
                    "text": text[:begin] + "pass" + text[end:], "lines": _own_lines(node)})
    for node, k, op in _operators(tree):
        swap, chain = _swap(op), len(getattr(node, "ops", ()))
        where = f" (operator {k + 1} of {chain})" if chain > 1 else ""
        mutation = f"{_symbol(op)} -> {_symbol(swap)}{where} in {ast.unparse(node)}"
        _set(node, k, swap)
        want, expression = ast.dump(tree), ast.unparse(node)
        _set(node, k, op)
        begin = chars(node.lineno, node.col_offset)
        end = chars(node.end_lineno, node.end_col_offset)
        mutant = text[:begin] + "(" + expression + ")" + text[end:]
        try:
            if ast.dump(ast.parse(mutant)) != want:  # the text must be the swapped tree
                continue
        except SyntaxError:
            continue
        out.append({"module": module, "line": node.lineno, "kind": "operator",
                    "statement": lines[node.lineno - 1].strip(), "mutation": mutation,
                    "text": mutant, "lines": _own_lines(node)})
    return out


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _first_own(tests: list[str], module: str) -> list[str]:
    """The test modules with the one named after ``module`` first, where a kill is likeliest."""
    own = f"tests/test_{Path(module).stem}.py"
    return sorted(tests, key=lambda t: t != own)


def _pytest(tree: Path, tests: list[str], running: set) -> str:
    """Run the tests in a worker tree: "passed", "failed" or "timeout".

    pytest's output is left in ``tree / OUTPUT`` until the next run there.
    """
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no example carries over
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    with open(tree / OUTPUT, "wb") as log:
        proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
    running.add(proc)
    try:
        return "passed" if proc.wait(TIMEOUT) == 0 else "failed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        _kill(proc)
        running.discard(proc)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = " ".join(["python tools/mutants.py", *argv])
    tests = argv[argv.index("--") + 1:] if "--" in argv else []
    argv = argv[:argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", type=Path)
    parser.add_argument("--out", type=Path, default=Path("MUTANTS.json"))
    parser.add_argument("--since", metavar="REV",
                        help="mutate only the lines that git diff REV adds or changes in src/")
    args = parser.parse_args(argv)
    modules = [m.resolve() for m in args.modules] or sorted((ROOT / "src" / "protometrics").glob("*.py"))
    tests = tests or sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    todo = [m for path in modules for m in mutants(path)]
    if args.since is not None:
        touched = changed_lines(args.since)
        todo = [m for m in todo if touched.get(m["module"], set()).intersection(m["lines"])]
    print(f"{len(todo)} mutants of {len(modules)} modules, {WORKERS} workers", flush=True)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that the cleanup below runs
    running: set[subprocess.Popen] = set()
    results = []
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        trees: queue.Queue[Path] = queue.Queue()
        for k in range(WORKERS):
            tree = Path(work) / f"w{k}"
            tree.mkdir()
            for name in COPIED:
                src = ROOT / name
                if src.is_dir():
                    shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
                else:
                    shutil.copy2(src, tree / name)
            trees.put(tree)

        def run(mutant: dict | None) -> dict:
            tree = trees.get()
            try:
                if mutant is None:
                    outcome = _pytest(tree, tests, running)
                    tail = (tree / OUTPUT).read_text(errors="replace").splitlines()[-TAIL:]
                    return {"outcome": outcome, "tail": tail}
                target = tree / mutant["module"]
                original = target.read_text()
                target.write_text(mutant["text"])
                try:
                    ordered = _first_own(tests, mutant["module"])
                    return {**mutant, "result": _pytest(tree, ordered, running)}
                finally:
                    target.write_text(original)
            finally:
                trees.put(tree)

        pool = concurrent.futures.ThreadPoolExecutor(WORKERS)
        try:
            unmutated = run(None)
            if unmutated["outcome"] != "passed":
                print(f"the unmutated tree fails its tests ({unmutated['outcome']}); "
                      f"the end of pytest's output:", *unmutated["tail"], sep="\n",
                      file=sys.stderr)
                return 1
            for k, r in enumerate(pool.map(run, todo), 1):
                results.append(r)
                if r["result"] == "passed":
                    print(f"[{k}/{len(todo)}] survived {r['module']}:{r['line']} {r['statement']}"
                          f" [{r['mutation']}]", flush=True)
        finally:  # on an interrupt too: start no further mutant and end the running ones
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in list(running):
                _kill(proc)
            pool.shutdown(wait=True)

    count = {c: sum(r["result"] == c for r in results) for c in ("failed", "timeout", "passed")}
    doc = {
        "command": command,
        "tests": tests,
        "mutants": len(results),
        "by_kind": {kind: {"mutants": sum(r["kind"] == kind for r in results),
                           "survived": sum(r["kind"] == kind and r["result"] == "passed"
                                           for r in results)}
                    for kind in ("statement", "operator")},
        "killed": count["failed"] + count["timeout"],
        "timeouts": count["timeout"],
        "survived": count["passed"],
        "minutes": round((time.monotonic() - started) / 60, 1),
        "survivors": [
            {"module": r["module"], "line": r["line"], "kind": r["kind"],
             "statement": r["statement"], "mutation": r["mutation"], "outcome": "", "reason": ""}
            for r in results if r["result"] == "passed"
        ],
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{doc['killed']} killed ({doc['timeouts']} by timeout), {doc['survived']} survived, "
          f"in {doc['minutes']} min", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
