"""The three workloads: inputs from the seed, a fixed cycle of ops, a check per op.

- classify-n300: in-process verdicts at n=300, where the checks layer does
  most of the work and passing and failing inputs take different scan paths.
- pipeline-n200: in-process generate, serialize, parse and transform
  pipelines at n=200, where checks run only as transform preconditions.
- cli-small: one ``python -m protometrics`` process per op at n in [8, 64],
  where interpreter start, import, argparse and io dominate.

An op's ``call`` takes the package API (the module, or the tracer's wrapped
namespace) or, on cli-small, a ``CliRunner``. Its ``check`` takes the output
and returns None, or a description of what is wrong with it.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import protometrics as pm

import inputs
import reference
from reference import CAP
from tracer import Span

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[Any], Any]
    check: Callable[[Any], str | None]


@dataclass(frozen=True)
class Rejected:
    """The PreconditionError an op was expected to raise."""

    error: str
    message: str


def expect_reject(fn, *args):
    try:
        return fn(*args)
    except pm.PreconditionError as e:
        return Rejected(type(e).__name__, str(e))


def is_rejected(out) -> str | None:
    return None if isinstance(out, Rejected) else f"accepted an input outside its class: {out!r:.80}"


def _seed(rng) -> int:
    return int(rng.integers(2 ** 63))


def diag_sum(A: np.ndarray) -> np.ndarray:
    """f(x) + f(y) for the diagonal f of A, as a matrix."""
    return np.diagonal(A)[:, None] + np.diagonal(A)[None, :]


# --------------------------------------------------------------- classify-n300

CLASS_FLAG = {"qsm": "quasi_semi_metric", "metric": "metric", "proto": "prequad_t"}


def report_verdicts(report) -> dict:
    out = {f"triangle_{ty.value}": reference.verdict_json(v) for ty, v in report.triangle.items()}
    out.update({f"prequad_{ty.value}": reference.verdict_json(v)
                for ty, v in report.prequadrangle.items()})
    out["strict_t"] = reference.verdict_json(report.strictness)
    return out


def classify_n300(seed: int, n: int = 300) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    P = inputs.protometric(rng, n)
    perturbed, planted = inputs.perturbed(rng, P)
    E = {"qsm": inputs.qsm(rng, n), "metric": inputs.metric(rng, n), "proto": P,
         "perturbed": perturbed, "random": inputs.unstructured(rng, n),
         "similarity": inputs.similarity(P)}
    names = inputs.labels(n)
    M = {k: pm.LabeledMatrix(names, v) for k, v in E.items()}
    classified = ("qsm", "metric", "proto", "perturbed", "random")
    verdicts = {k: reference.classify_verdicts(E[k]) for k in classified}
    flags = {k: reference.flags(E[k], verdicts[k]) for k in classified}
    built = all(flags[k][f] for k, f in CLASS_FLAG.items()) and (
        verdicts["perturbed"]["prequad_t"].count == 1
        and verdicts["perturbed"]["prequad_t"].first[0][:3] == planted
        and verdicts["random"]["triangle_t"].count > CAP)
    if not built:
        raise RuntimeError("classify-n300 inputs are not the classes they were built to be")

    def classify(key):
        def check(report):
            if key in CLASS_FLAG and not report.flags[CLASS_FLAG[key]]:
                return f"{key} input does not get its class flag {CLASS_FLAG[key]}"
            return reference.report_problem(report.flags, report_verdicts(report),
                                            flags[key], verdicts[key], names)
        return Op(f"classify:{key}", lambda lib: lib.classify(M[key]), check)

    def scan(kind, ty, key):
        if kind == "strict":
            want, fn = reference.strict(E[key], ty), "check_strict"
        else:
            want = verdicts[key][f"{kind}_{ty}"]
            fn = "check_triangle" if kind == "triangle" else "check_prequadrangle"
        return Op(f"{kind}:{ty}:{key}", lambda lib: getattr(lib, fn)(M[key], ty),
                  lambda v: reference.verdict_problem(reference.verdict_json(v), want, names))

    def transition(key, for_log):
        want = reference.transition(E[key], for_log)
        return Op(f"transition:{key}",
                  lambda lib: lib.check_transition(M[key], for_log_transform=for_log),
                  lambda v: reference.verdict_problem(reference.verdict_json(v), want, names))

    def bounds(ty, key):
        want = [(l, *b) for l, b in zip(names, reference.diagonal_bounds(E[key], ty))]

        def check(out):
            got = [(l, iv.lo, iv.hi, iv.nonempty, member) for l, iv, member in out]
            return None if got == want else f"diagonal bounds of {key} differ"
        return Op(f"bounds:{ty}:{key}", lambda lib: lib.diagonal_bounds(M[key], ty), check)

    others = [
        scan("triangle", "t", "qsm"), scan("strict", "t", "proto"),
        scan("triangle", "o", "metric"), bounds("t", "proto"),
        scan("triangle", "i", "random"), scan("prequad", "t", "perturbed"),
        scan("triangle", "c", "proto"), bounds("o", "qsm"),
        scan("prequad", "o", "metric"), transition("random", True),
        scan("prequad", "i", "proto"), scan("strict", "o", "metric"),
        scan("prequad", "c", "random"), bounds("i", "random"),
        scan("prequad", "t", "proto"), transition("similarity", False),
        scan("triangle", "t", "random"), bounds("c", "metric"),
        scan("strict", "t", "perturbed"), scan("prequad", "t", "random"),
    ]
    ops = []
    for k in range(10):  # classify is every third op
        ops += [classify(classified[k % len(classified)]), others[2 * k], others[2 * k + 1]]
    return ops


# --------------------------------------------------------------- pipeline-n200

def pipeline_n200(seed: int, n: int = 200, n_perturb: int = 48) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    names = inputs.labels(n)
    spec = {k: pm.GenSpec(n, _seed(rng)) for k in ("metric", "qsm", "proto", "zero")}
    f = inputs.gauge(rng, n)
    gauge = dict(zip(names, map(float, f)))
    H = pm.LabeledMatrix(names, inputs.potential(rng, n))
    S = pm.LabeledMatrix(names, inputs.positive(rng, n))
    B = pm.LabeledMatrix(names, inputs.broken_metric(rng, n))
    P48 = pm.LabeledMatrix(inputs.labels(n_perturb), inputs.protometric(rng, n_perturb))
    st: dict[str, Any] = {}  # outputs of the earlier ops of the current pipeline

    def keep(key, fn):
        def call(lib):
            st[key] = out = fn(lib)
            return out
        return call

    def same(want_fn, exact=True):
        def check(out):
            return reference.matrix_problem(out.labels, out.entries, names, want_fn(), exact)
        return check

    def E(key):
        return st[key].entries

    def generated(cls):
        def check(M):
            if list(M.labels) != names:
                return "generated labels differ"
            return reference.class_problem(M.entries, cls)
        return check

    ops = [
        Op("gen_metric", keep("metric", lambda lib: lib.gen_metric(spec["metric"])),
           generated("metric")),
        Op("gen_quasi_semi_metric",
           keep("qsm", lambda lib: lib.gen_quasi_semi_metric(spec["qsm"])),
           generated("quasi_semi_metric")),
        Op("gen_protometric", keep("proto", lambda lib: lib.gen_protometric(spec["proto"])),
           generated("protometric")),
        Op("gen_zero_protometric", keep("zero", lambda lib: lib.gen_zero_protometric(spec["zero"])),
           generated("zero_protometric")),
    ]
    for key in ("metric", "qsm", "proto", "zero"):
        for fmt in ("csv", "json"):
            ops.append(Op(
                f"serialize_{fmt}:{key}",
                keep(f"{key}.{fmt}", lambda lib, k=key, f=fmt: lib.serialize_matrix(st[k], f)),
                lambda text, k=key: reference.matrix_problem(
                    *inputs.read_matrix(text), st[k].labels, st[k].entries)))
        for fmt in ("csv", "json"):
            # The matrix parsed from JSON is the one the transforms below receive.
            ops.append(Op(
                f"parse_{fmt}:{key}",
                keep(f"{key}.in" if fmt == "json" else f"{key}.csv.in",
                     lambda lib, k=key, f=fmt: lib.parse_matrix(st[f"{k}.{f}"])),
                same(lambda k=key: st[k].entries)))

    def decomposed(dec):
        p = E("proto.in")
        problem = reference.matrix_problem(dec.d.labels, dec.d.entries, names,
                                           (p + p) - diag_sum(p))
        if problem is None and dec.f != dict(zip(names, map(float, np.diagonal(p)))):
            problem = "decomposition gauge is not the diagonal"
        return problem

    def zero_coords(zc):
        z = E("zero.in")
        ok = (zc.ref == names[0] and list(zc.a.values()) == z[:, 0].tolist()
              and list(zc.b.values()) == (z[0, :] - z[0, 0]).tolist())
        return None if ok else "zero coordinates differ"

    def preorder(pre):
        got = {"relation": [list(p) for p in pre.relation],
               "classes": [list(c) for c in pre.classes],
               "order": [list(p) for p in pre.quotient_order]}
        return None if got == reference.preorder(st["dec"].d.entries, names) else "preorder differs"

    def gromov():
        return reference.gromov(E("metric.in"), 0)

    ops += [
        Op("transpose", lambda lib: lib.transpose(st["qsm.in"]), same(lambda: E("qsm.in").T)),
        Op("add", lambda lib: lib.add(st["qsm.in"], st["metric.in"]),
           same(lambda: E("qsm.in") + E("metric.in"))),
        Op("affine_gauge", lambda lib: lib.affine_gauge(st["proto.in"], 2.0, gauge),
           same(lambda: (2.0 * E("proto.in") + f[:, None]) + f[None, :])),
        Op("metrize", lambda lib: lib.metrize(st["proto.in"], 1.0),
           same(lambda: (E("proto.in") + E("proto.in").T) - diag_sum(E("proto.in")))),
        Op("decompose", keep("dec", lambda lib: lib.decompose(st["proto.in"])), decomposed),
        # compose(decompose(p)) == p, bit for bit.
        Op("compose:decomposition", lambda lib: lib.compose(st["dec"].d, st["dec"].f),
           same(lambda: E("proto.in"))),
        Op("compose", lambda lib: lib.compose(st["qsm.in"], gauge),
           same(lambda: ((E("qsm.in") + f[:, None]) + f[None, :]) * 0.5)),
        Op("zero_coordinates", lambda lib: lib.zero_coordinates(st["zero.in"]), zero_coords),
        Op("potential_of", lambda lib: lib.potential_of(H),
           lambda h: None if list(h.values()) == H.entries[:, 0].tolist() else "potential differs"),
        Op("specialization_preorder", lambda lib: lib.specialization_preorder(st["dec"].d),
           preorder),
        Op("gromov_product", lambda lib: lib.gromov_product(st["metric.in"], "x1"), same(gromov)),
        Op("farris_transform", lambda lib: lib.farris_transform(st["metric.in"], "x1", 64.0),
           same(lambda: 64.0 - gromov())),
        Op("min_farris_constant", lambda lib: lib.min_farris_constant(st["metric.in"], "x1"),
           lambda c: None if c == reference.min_farris(gromov()) else f"constant {c!r} differs"),
        Op("log_transform", lambda lib: lib.log_transform(S),
           same(lambda: -np.log(S.entries), exact=False)),
    ]
    # The same guarded transforms on an input that fails their precondition.
    ops += [
        Op("reject:metrize", lambda lib: expect_reject(lib.metrize, B, 1.0), is_rejected),
        Op("reject:decompose", lambda lib: expect_reject(lib.decompose, B), is_rejected),
        Op("reject:compose", lambda lib: expect_reject(lib.compose, B, gauge), is_rejected),
        Op("reject:zero_coordinates", lambda lib: expect_reject(lib.zero_coordinates, B),
           is_rejected),
        Op("reject:potential_of", lambda lib: expect_reject(lib.potential_of, B), is_rejected),
        Op("reject:specialization_preorder",
           lambda lib: expect_reject(lib.specialization_preorder, B), is_rejected),
        Op("reject:gromov_product", lambda lib: expect_reject(lib.gromov_product, B, "x1"),
           is_rejected),
        Op("reject:farris_transform",
           lambda lib: expect_reject(lib.farris_transform, B, "x1", 64.0), is_rejected),
        Op("reject:min_farris_constant",
           lambda lib: expect_reject(lib.min_farris_constant, B, "x1"), is_rejected),
        Op("reject:log_transform", lambda lib: expect_reject(lib.log_transform, B), is_rejected),
    ]

    def perturbation(out):
        changed = np.argwhere(out.entries != P48.entries)
        if len(changed) != 1:
            return f"{len(changed)} entries changed, expected one"
        i, j = changed[0]
        if not out.entries[i, j] > P48.entries[i, j]:
            return "the changed entry was not raised"
        if reference.additive(out.entries, "t", True).count == 0:
            return "the perturbed matrix still passes the type-t pre-quadrangle check"
        return None

    ops.append(Op("perturb_violation", lambda lib: lib.perturb_violation(P48, "t", 1.0),
                  perturbation))
    return ops


# ------------------------------------------------------------------- cli-small

@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


class CliRunner:
    """Runs one CLI process per call, closed loop, in a scratch directory.

    With a tracer, the process is ``cli_shim.py``, which runs the same
    command under the tracer; its spans are added to the tracer's and the
    time from spawning it to its first line of command code is kept in
    ``startup_s``.
    """

    def __init__(self, workdir: Path, env: dict, tracer=None):
        self.workdir, self.env, self.tracer = workdir, env, tracer
        self.started = 0
        self.peak_rss_kib = 0
        self.startup_s: list[float] = []

    def __call__(self, argv: list[str]) -> CliResult:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        spans_path = self.workdir / "spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "protometrics", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(spans_path), *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = spawn_on(self.started, cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                            env=self.env, cwd=ROOT)
            self.started += 1
            code, rss = wait(proc, CHILD_TIMEOUT_S)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        if self.tracer is not None:
            doc = json.loads(spans_path.read_text())
            self.startup_s.append(doc["ready"] - start)
            self.tracer.spans.extend(Span(*s) for s in doc["spans"])
        return CliResult(code, out_path.read_text(), err_path.read_text())


def spawn_on(k: int, *args, **kwargs) -> subprocess.Popen:
    """Popen with the child pinned to the k-th usable CPU, cyclically.

    The vCPUs of a shared host can run at different speeds for minutes at a
    time; spreading children evenly over them keeps a run's figures from
    depending on where the scheduler happened to start each one. The child
    inherits the affinity at fork; this process gets its own back at once.
    """
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})
    try:
        return subprocess.Popen(*args, **kwargs)
    finally:
        os.sched_setaffinity(0, mask)


def wait(proc: subprocess.Popen, timeout: int) -> tuple[int, int]:
    """Exit code and peak RSS (KiB) of a child, reaped as soon as it exits.

    ``Popen.wait(timeout=...)`` polls with sleeps of up to 50 ms, which
    would round every op's duration up; a blocking wait4 under an alarm
    does not.
    """
    def expire(signum, frame):
        raise TimeoutError(f"child ran longer than {timeout} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def load_oracles():
    """The brute-force oracles of the test suite, imported read-only."""
    spec = importlib.util.spec_from_file_location("protometrics_oracles",
                                                  ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_expected(oracles, kind: str, E: np.ndarray, ty: str = "t") -> reference.Expected:
    """An Expected verdict from the plain-Python oracles."""
    L = E.tolist()
    n = len(L)
    if kind in ("triangle", "prequad"):
        pq = kind == "prequad"
        bad, min_slack = oracles.additive_scan(L, ty, pq)
        first = [(x, y, z, oracles.LHS[ty](L, x, y, z), L[y][z] + L[x][x] if pq else L[y][z])
                 for x, y, z in bad[:CAP]]
        return reference.expected(n ** 3, len(bad), min_slack, first)
    if kind == "strict":
        bad = oracles.strict_scan(L, ty)
        first = [(x, y, y, oracles.LHS[ty](L, x, y, y), L[y][y] + L[x][x]) for x, y in bad[:CAP]]
        return reference.expected(n * (n - 1), len(bad), None, first)
    bad = oracles.transition_scan(L)
    first = [(x, y, z, L[y][x] * L[x][z], L[y][z] * L[x][x]) for x, y, z in bad[:CAP]]
    return reference.expected(n ** 3, len(bad), None, first)


VERDICT_LINE = re.compile(r"\S+: (\w+) min_slack=(\S+) violations=(\d+)/(\d+)")
WITNESS_LINE = re.compile(r"witness: x=(\S+) y=(\S+) z=(\S+) lhs=(\S+) rhs=(\S+) deficit=\S+")


def text_verdict(text: str) -> dict:
    """The verdict a ``check`` command printed in its text form, as a JSON-form dict."""
    lines = text.splitlines()
    status, slack, bad, checked = VERDICT_LINE.fullmatch(lines[0]).groups()
    witnesses = []
    for line in lines[1:]:
        x, y, z, lhs, rhs = WITNESS_LINE.fullmatch(line).groups()
        witnesses.append({"x": x, "y": y, "z": z, "lhs": float(lhs), "rhs": float(rhs)})
    return {"status": status, "min_slack": None if slack == "n/a" else float(slack),
            "count_violations": int(bad), "count_checked": int(checked), "witnesses": witnesses}


def cli_small(seed: int, workdir: Path, oracles, n_max: int = 64) -> list[Op]:
    """CLI ops on files of 8 to 64 points; ``n_max`` scales every size down for tests."""
    rng = np.random.default_rng([seed, 3])
    mats: dict[str, np.ndarray] = {}

    def sz(n):
        return max(4, n * n_max // 64)

    def put(name, E, header=True):
        mats[name] = E
        text = inputs.to_json(E) if name.endswith(".json") else inputs.to_csv(E, header)
        (workdir / name).write_text(text)
        return str(workdir / name)

    def path(name):
        return str(workdir / name)

    P32, P48 = inputs.protometric(rng, sz(32)), inputs.protometric(rng, sz(48))
    put("metric16.csv", inputs.metric(rng, sz(16)))
    put("metric16b.csv", inputs.metric(rng, sz(16)))
    put("metric32.json", inputs.metric(rng, sz(32)))
    put("metric64.csv", inputs.metric(rng, sz(64)), header=False)
    put("qsm24.json", inputs.qsm(rng, sz(24)))
    put("qsm64.csv", inputs.qsm(rng, sz(64)))
    put("ties40.csv", inputs.qsm_with_ties(rng, sz(40)))
    put("proto32.csv", P32)
    put("proto48.json", P48)
    put("perturbed40.csv", inputs.perturbed(rng, inputs.protometric(rng, sz(40)))[0])
    put("random24.csv", inputs.unstructured(rng, sz(24)))
    put("random48.csv", inputs.unstructured(rng, sz(48)))
    put("zero20.csv", inputs.zero_protometric(rng, sz(20)))
    put("potential16.csv", inputs.potential(rng, sz(16)))
    put("sim24.csv", inputs.similarity(inputs.protometric(rng, sz(24))))
    f32, f24 = inputs.gauge(rng, sz(32)), inputs.gauge(rng, sz(24))
    (workdir / "f32.csv").write_text(inputs.gauge_csv(f32))
    (workdir / "f24.csv").write_text(inputs.gauge_csv(f24))
    d48 = (P48 + P48) - (np.diagonal(P48)[:, None] + np.diagonal(P48)[None, :])
    (workdir / "dec48.json").write_text(json.dumps({
        "d": json.loads(inputs.to_json(d48)),
        "f": dict(zip(inputs.labels(len(P48)), np.diagonal(P48).tolist()))}))
    (workdir / "malformed.csv").write_text("0,1,2\n1,0\n2,1,0\n")
    gen_seeds = [str(_seed(rng)) for _ in range(4)]

    def op(name, argv, check):
        return Op(name, lambda run: run(argv), check)

    def exits(code):
        def check(res):
            if res.code != code:
                return f"exit {res.code}, expected {code}: {res.err.strip()[:200]}"
            if res.out:
                return "wrote output on a failed run"
            return None if code == 2 or res.err.startswith("error:") else "no error line"
        return check

    def ok(parse):
        def check(res):
            if res.code != 0:
                return f"exit {res.code}: {res.err.strip()[:200]}"
            return parse(res.out)
        return check

    def matrix(want, exact=True):
        def parse(out):
            labels, E = inputs.read_matrix(out)
            return reference.matrix_problem(labels, E, inputs.labels(len(want)), want, exact)
        return ok(parse)

    def classify(name, extra=(), shown=CAP):
        E = mats[name]
        want = {f"{k}_{ty}": oracle_expected(oracles, k, E, ty)
                for k in ("triangle", "prequad") for ty in reference.TYPES}
        want["strict_t"] = oracle_expected(oracles, "strict", E, "t")
        flags = reference.flags(E, want)

        def parse(out):
            doc = json.loads(out)
            return reference.report_problem(doc["flags"], doc["verdicts"], flags, want,
                                            inputs.labels(len(E)), shown)
        return op(f"classify:{name}", ["classify", "-i", path(name), *extra], ok(parse))

    def check(selector, name, fmt="text", for_log=False):
        E = mats[name]
        kind, _, ty = selector.partition(":")
        want = (reference.transition(E, True) if for_log
                else oracle_expected(oracles, kind, E, ty or "t"))

        def verify(res):
            code = 1 if want.status == "FAIL" else 0
            if res.code != code:
                return f"exit {res.code}, expected {code}: {res.err.strip()[:200]}"
            got = json.loads(res.out) if fmt == "json" else text_verdict(res.out)
            return reference.verdict_problem(got, want, inputs.labels(len(E)),
                                             CAP if fmt == "json" else 1)
        argv = ["check", selector, "-i", path(name)] + (["--for-log"] if for_log else [])
        if fmt == "json":
            argv += ["--format", "json"]
        return op(f"check:{selector}:{name}", argv, verify)

    def generated(n, cls, ty="t", strict=False):
        def parse(out):
            labels, E = inputs.read_matrix(out)
            if labels != inputs.labels(n):
                return "generated labels differ"
            if strict and reference.strict(E, ty).count:
                return "generated protometric is not strict"
            return reference.class_problem(E, cls, ty)
        return parse

    def decomposed(out):
        doc = json.loads(out)
        problem = reference.matrix_problem(doc["d"]["labels"], doc["d"]["matrix"],
                                           inputs.labels(len(P48)), d48)
        same_f = doc["f"] == dict(zip(inputs.labels(len(P48)), np.diagonal(P48).tolist()))
        return problem or (None if same_f else "decomposition gauge is not the diagonal")

    Z, Hm, T = mats["zero20.csv"], mats["potential16.csv"], mats["ties40.csv"]
    G16 = reference.gromov(mats["metric16.csv"], 0)
    G16_3 = reference.gromov(mats["metric16.csv"], 2)
    pairs, defects, classes, order = oracles.preorder_structure(T.tolist())
    t_labels = inputs.labels(len(T))
    want_preorder = {"relation": [[t_labels[i], t_labels[j]] for i, j in pairs],
                     "classes": [[t_labels[i] for i in c] for c in classes],
                     "order": [[t_labels[a], t_labels[b]] for a, b in order]}
    if defects:
        raise RuntimeError("cli-small preorder input is not transitive")
    return [
        classify("metric16.csv"),
        classify("proto32.csv"),
        classify("random24.csv", ["--max-witnesses", "3"], shown=3),
        classify("qsm24.json"),
        check("triangle:t", "qsm64.csv"),
        check("triangle:o", "random48.csv"),
        check("triangle:i", "metric64.csv", "json"),
        check("triangle:c", "proto48.json"),
        check("prequad:t", "proto48.json"),
        check("prequad:t", "perturbed40.csv"),
        check("prequad:o", "metric32.json", "json"),
        check("prequad:i", "random24.csv", "json"),
        check("prequad:c", "qsm24.json"),
        check("strict:t", "metric32.json"),
        check("strict:o", "proto32.csv", "json"),
        check("transition", "sim24.csv"),
        check("transition", "random24.csv", for_log=True),
        op("transform:transpose", ["transform", "transpose", "-i", path("qsm24.json")],
           matrix(mats["qsm24.json"].T)),
        op("transform:gauge", ["transform", "gauge", "--alpha", "2", "--f-file", path("f32.csv"),
                               "-i", path("proto32.csv")],
           matrix((2.0 * P32 + f32[:, None]) + f32[None, :])),
        op("transform:add", ["transform", "add", "--other", path("metric16b.csv"),
                             "-i", path("metric16.csv")],
           matrix(mats["metric16.csv"] + mats["metric16b.csv"])),
        op("transform:metrize", ["transform", "metrize", "-i", path("proto32.csv")],
           matrix((P32 + P32.T) - diag_sum(P32))),
        op("transform:compose", ["transform", "compose", "--f-file", path("f24.csv"),
                                 "-i", path("qsm24.json")],
           matrix(((mats["qsm24.json"] + f24[:, None]) + f24[None, :]) * 0.5)),
        # compose(decompose(p)) == p, bit for bit.
        op("transform:compose-decomposition", ["transform", "compose", "-i", path("dec48.json")],
           matrix(P48)),
        op("transform:decompose", ["transform", "decompose", "-i", path("proto48.json")],
           ok(decomposed)),
        op("transform:zerocoords", ["transform", "zerocoords", "-i", path("zero20.csv")],
           ok(lambda out: None if json.loads(out) == {
               "a": dict(zip(inputs.labels(len(Z)), Z[:, 0].tolist())),
               "b": dict(zip(inputs.labels(len(Z)), (Z[0, :] - Z[0, 0]).tolist())),
               "ref": "x1"} else "zero coordinates differ")),
        op("transform:potential", ["transform", "potential", "-i", path("potential16.csv")],
           ok(lambda out: None if json.loads(out) == {
               "h": dict(zip(inputs.labels(len(Hm)), Hm[:, 0].tolist())), "ref": "x1"}
              else "potential differs")),
        op("transform:preorder", ["transform", "preorder", "-i", path("ties40.csv")],
           ok(lambda out: None if json.loads(out) == want_preorder else "preorder differs")),
        op("transform:gromov", ["transform", "gromov", "--base-label", "x1",
                                "-i", path("metric32.json")],
           matrix(reference.gromov(mats["metric32.json"], 0))),
        op("transform:farris", ["transform", "farris", "--base-label", "x3", "--constant", "64",
                                "-i", path("metric16.csv")],
           matrix(64.0 - G16_3)),
        op("transform:minfarris", ["transform", "minfarris", "--base-label", "x1",
                                   "-i", path("metric16.csv")],
           ok(lambda out: None if float(out) == oracles.farris_scan(G16.tolist())
              else f"constant {out.strip()} differs")),
        op("transform:log", ["transform", "log", "-i", path("sim24.csv")],
           matrix(-np.log(mats["sim24.csv"]), exact=False)),
        op("generate:metric", ["generate", "metric", "--n", str(sz(32)), "--seed", gen_seeds[0]],
           ok(generated(sz(32), "metric"))),
        op("generate:qsm", ["generate", "qsm", "--n", str(sz(24)), "--seed", gen_seeds[1],
                            "--format", "json"],
           ok(generated(sz(24), "quasi_semi_metric"))),
        op("generate:protometric", ["generate", "protometric", "--n", str(sz(40)),
                                    "--seed", gen_seeds[2], "--type", "c", "--strict"],
           ok(generated(sz(40), "protometric", "c", strict=True))),
        op("generate:zeroproto", ["generate", "zeroproto", "--n", str(sz(16)),
                                  "--seed", gen_seeds[3]],
           ok(generated(sz(16), "zero_protometric"))),
        op("unmet:decompose", ["transform", "decompose", "-i", path("random48.csv")], exits(1)),
        op("unmet:gromov", ["transform", "gromov", "--base-label", "x1",
                            "-i", path("qsm24.json")], exits(1)),
        op("unmet:log", ["transform", "log", "-i", path("random24.csv")], exits(1)),
        op("bad:malformed", ["classify", "-i", path("malformed.csv")], exits(2)),
        op("bad:missing-flag", ["transform", "gauge", "-i", path("proto32.csv")], exits(2)),
        op("bad:selector", ["check", "bogus:t", "-i", path("metric16.csv")], exits(2)),
        op("bad:size", ["generate", "metric", "--n", "0"], exits(2)),
        op("bad:cap", ["classify", "--max-witnesses", "0", "-i", path("metric16.csv")], exits(2)),
    ]


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The op cycle of a workload; cli-small writes its input files into ``workdir``."""
    seed %= 2 ** 64  # numpy seeds are nonnegative; this is the identity on valid seeds
    if name == "classify-n300":
        return classify_n300(seed)
    if name == "pipeline-n200":
        return pipeline_n200(seed)
    return cli_small(seed, workdir, load_oracles())


def canonical(v):
    """A comparable form of an op output, for matching traced and untraced runs."""
    if isinstance(v, pm.LabeledMatrix):
        return ("matrix", v.labels, v.entries.tobytes())
    if dataclasses.is_dataclass(v):
        return (type(v).__name__,) + tuple(canonical(getattr(v, f.name))
                                           for f in dataclasses.fields(v))
    if isinstance(v, dict):
        return tuple((canonical(k), canonical(x)) for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return tuple(canonical(x) for x in v)
    if isinstance(v, enum.Enum):
        return v.value
    return v
