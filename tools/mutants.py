"""Statement-deletion mutants: which statements of the package can go without a test failing?

Each statement inside a function or class body of the given modules is
replaced in turn by ``pass`` (docstrings and ``pass`` itself excepted).
Each mutant runs in a worker copy of the tree, ``src/`` and ``tests/`` and
``pyproject.toml``, against the given test modules with ``pytest -x``,
the mutated module's own ``tests/test_<module>.py`` first, under a
per-mutant timeout. A mutant is *killed* when pytest fails or times out,
and *survives* when it passes.

    python tools/mutants.py --out MUTANTS.json \\
        src/protometrics/checks.py src/protometrics/io.py -- tests/test_checks.py

With no modules every module of ``src/protometrics`` is mutated; with no
test modules after ``--`` every ``tests/test_*.py`` runs. The tree must
pass its tests unmutated, which is checked first. Only the standard library
is used. Every pytest run is started in a process group of its own and the
group is killed on a timeout or an interrupt, so no process outlives the
script. The output lists each survivor with an empty ``outcome`` and
``reason`` for a reader to fill in.
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


def mutants(path: Path) -> list[dict]:
    """The mutants of one module: its text with one statement replaced by ``pass``."""
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    out = []
    for node in _statements(ast.parse(text)):
        # A decorated definition starts at its first decorator, at the same indent.
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        # ast gives columns in UTF-8 bytes; the slices below count characters.
        chars = lambda k, col: starts[k - 1] + len(lines[k - 1].encode()[:col].decode())
        begin, end = chars(first, node.col_offset), chars(node.end_lineno, node.end_col_offset)
        out.append({
            "module": str(path.resolve().relative_to(ROOT)),
            "line": node.lineno,
            "statement": lines[node.lineno - 1].strip(),
            "text": text[:begin] + "pass" + text[end:],
        })
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
    """Run the tests in a worker tree: "passed", "failed" or "timeout"."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no example carries over
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
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
    args = parser.parse_args(argv)
    modules = [m.resolve() for m in args.modules] or sorted((ROOT / "src" / "protometrics").glob("*.py"))
    tests = tests or sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    todo = [m for path in modules for m in mutants(path)]
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
                    return {"outcome": _pytest(tree, tests, running)}
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
            if run(None)["outcome"] != "passed":
                print("the unmutated tree fails its tests", file=sys.stderr)
                return 1
            for k, r in enumerate(pool.map(run, todo), 1):
                results.append(r)
                if r["result"] == "passed":
                    print(f"[{k}/{len(todo)}] survived {r['module']}:{r['line']} {r['statement']}",
                          flush=True)
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
        "killed": count["failed"] + count["timeout"],
        "timeouts": count["timeout"],
        "survived": count["passed"],
        "minutes": round((time.monotonic() - started) / 60, 1),
        "survivors": [
            {"module": r["module"], "line": r["line"], "statement": r["statement"],
             "outcome": "", "reason": ""}
            for r in results if r["result"] == "passed"
        ],
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{doc['killed']} killed ({doc['timeouts']} by timeout), {doc['survived']} survived, "
          f"in {doc['minutes']} min", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
