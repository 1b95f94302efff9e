"""Benchmark of protometrics: one workload per run, closed loop, from one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is classify-n300, pipeline-n200 or cli-small (see workloads.py). One
caller issues the workload's fixed cycle of ops, each only after the last
completed, with no threads, and checks every output. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs one cycle
untraced, then the same ops under the tracer, and reports the per-layer
metrics. Names and units of the metrics come from BENCHMARK.json.

The last line of standard output is the result object. The line before it
is a JSON summary: sample counts, the fail ratio (failed / attempted), the
first failures, set-up samples and provenance.
"""

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads its BLAS, here and in every child

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 10  # fresh interpreters per run, spread evenly over the CPUs; setup_s is their median
WARMUP_OPS = 2  # run and checked, but not timed
MIN_OP_SAMPLES = 100  # so that op_p90_ms has at least 10 samples beyond it
WORKLOADS = ("classify-n300", "pipeline-n200", "cli-small")


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probe(env: dict, module: str, k: int = 0) -> float:
    """Seconds from spawning a fresh interpreter, on the k-th CPU, until it has imported ``module``."""
    import workloads

    code = f"import sys, {module}; print(sys.modules['protometrics'].__file__, flush=True)"
    start = time.perf_counter()
    proc = workloads.spawn_on(k, [sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    proc.wait(timeout=60)
    if Path(line.strip()).resolve() != SRC / "protometrics" / "__init__.py":
        raise RuntimeError(f"set-up probe imported protometrics from {line.strip()!r}")
    return elapsed


def provenance() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        commit = done.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((SRC / "protometrics").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "src_sha256": src.hexdigest(),
            "thread_env": THREAD_ENV}


class Session:
    """Steps through a workload's op cycle, timing each op and checking its output.

    With ``spread``, each cycle runs pinned to the next usable CPU in turn, so
    that a run's figures average over CPUs that a shared host may run at
    different speeds, rather than depend on where the scheduler put it.
    """

    def __init__(self, ops, spread: bool = False):
        self.ops, self.i = ops, 0
        self.attempted = 0
        self.failures: list[str] = []
        self.cpus = sorted(os.sched_getaffinity(0)) if spread else []

    def step(self, ctx):
        if self.cpus and self.i % len(self.ops) == 0:
            cycle = self.i // len(self.ops)
            os.sched_setaffinity(0, {self.cpus[cycle % len(self.cpus)]})
        op = self.ops[self.i % len(self.ops)]
        self.i += 1
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.call(ctx)
        except Exception as e:  # a crashed op is a failed op; the loop goes on
            self.failures.append(f"{op.name}: raised {type(e).__name__}: {e}")
            return time.perf_counter() - start, None
        dur = time.perf_counter() - start
        try:
            problem = op.check(out)
        except Exception as e:  # output too malformed for the check to read
            problem = f"check raised {type(e).__name__}: {e}"
        if problem:
            self.failures.append(f"{op.name}: {problem}")
        return dur, out


def digest(out) -> str:
    import workloads

    return hashlib.sha256(repr(workloads.canonical(out)).encode()).hexdigest()


def measure(session: Session, ctx, seconds: float) -> dict[int, list[float]]:
    """Durations of the ops run closed loop, by cycle position.

    The run is made of whole cycles, so that every op of the cycle has the same
    number of samples whatever the speed of the host: it ends at the first cycle
    boundary after ``seconds`` have passed and MIN_OP_SAMPLES ops have run.
    """
    durations: dict[int, list[float]] = {}
    cycle, first = len(session.ops), session.i
    deadline = time.perf_counter() + seconds
    while ((session.i - first) % cycle or time.perf_counter() < deadline
           or session.i - first < MIN_OP_SAMPLES):
        position = session.i % cycle
        durations.setdefault(position, []).append(session.step(ctx)[0])
    return durations


def end_to_end(session, ctx, seconds, setup, cli) -> tuple[dict, dict]:
    """The end-to-end metrics. ops_per_s is the rate of the op cycle with each op at
    its median duration in the run, so that a passing stall of the machine moves it
    less than it moves a mean."""
    by_op = measure(session, ctx, seconds)
    durations = [d for ds in by_op.values() for d in ds]
    peak_kib = ctx.peak_rss_kib if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": tracing.median(setup),
        "ops_per_s": len(by_op) / sum(tracing.median(ds) for ds in by_op.values()),
        "op_p50_ms": 1e3 * tracing.median(durations),
        "op_p90_ms": 1e3 * statistics.quantiles(durations, n=10)[8],
        "peak_rss_mb": peak_kib / 1024,
    }, {"op_samples": len(durations)}


def traced(session, plain, make_traced, seconds, setup) -> tuple[dict, dict]:
    """One untraced cycle, the same cycle traced, then whole traced cycles until time is up."""
    deadline = time.perf_counter() + seconds
    cycle = len(session.ops)
    first = session.i
    untraced = [session.step(plain) for _ in range(cycle)]
    tracer = tracing.Tracer()
    ctx = make_traced(tracer)
    tracer.install()
    try:
        traced_cycle = [session.step(ctx) for _ in range(cycle)]
        cycle_spans = list(tracer.spans)
        wall = wall_of(traced_cycle)
        while (session.i - first) % cycle or time.perf_counter() < deadline:
            wall += session.step(ctx)[0]
    finally:
        tracer.restore()
    for k, ((_, a), (_, b)) in enumerate(zip(untraced, traced_cycle)):
        if digest(a) != digest(b):
            name = session.ops[(first + k) % cycle].name
            session.failures.append(f"{name}: traced output differs from untraced output")
    traced_ops = session.i - first - cycle
    metrics = tracing.per_layer(tracer.spans, cycle_spans, wall, traced_ops / cycle)
    startup = getattr(ctx, "startup_s", None) or setup
    mains = [s.self_time for s in tracer.spans if s.layer == "cli" and s.name == "main"]
    metrics["cli.startup_ms"] = 1e3 * tracing.median(startup)
    metrics["cli.main_self_ms"] = 1e3 * tracing.median(mains) if mains else 0.0
    metrics["trace.overhead_ratio"] = wall_of(traced_cycle) / wall_of(untraced)
    counts = tracing.counts(cycle_spans)
    counts["subprocesses"] = sum(1 for s in cycle_spans if s.layer == "cli" and s.name == "main")
    for name, value in counts.items():
        metrics[f"count.{name}_per_cycle"] = value
    return metrics, {"traced_ops": traced_ops, "counts_per_cycle": counts,
                     "traced_subprocesses": getattr(ctx, "started", 0)}


def wall_of(steps) -> float:
    return sum(d for d, _ in steps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "protometrics" / "__init__.py", ROOT / "tests" / "oracles.py",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(SRC))
    import protometrics

    if Path(protometrics.__file__).resolve().parent != SRC / "protometrics":
        print(f"error: imported protometrics from {protometrics.__file__}", file=sys.stderr)
        return 2
    import workloads

    cli = args.workload == "cli-small"
    env = child_env()
    module = "protometrics.cli" if cli else "protometrics"
    setup = [setup_probe(env, module, k) for k in range(SETUP_PROBES)]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    cpus = os.sched_getaffinity(0)
    try:
        # cli-small spreads its child processes instead (workloads.spawn_on); a
        # traced run stays put, so that its untraced and traced cycles compare.
        session = Session(workloads.build(args.workload, args.seed, workdir),
                          spread=not (cli or args.trace))
        if cli:
            plain = workloads.CliRunner(workdir, env)

            def make_traced(tracer):
                return workloads.CliRunner(workdir, env, tracer)
        else:
            plain = protometrics

            def make_traced(tracer):
                return tracer.api(protometrics)
        for _ in range(WARMUP_OPS):
            session.step(plain)
        if args.trace:
            values, extra = traced(session, plain, make_traced, args.seconds, setup)
        else:
            values, extra = end_to_end(session, plain, args.seconds, setup, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sched_setaffinity(0, cpus)

    started = len(setup) + getattr(plain, "started", 0) + extra.pop("traced_subprocesses", 0)
    failed = min(len(session.failures), session.attempted)
    for failure in session.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_cycle": len(session.ops), **extra,
        "attempted": session.attempted, "failed": failed,
        "fail_ratio": failed / session.attempted,
        "failures": session.failures[:10],
        "setup_samples_s": setup,
        "subprocesses_started": started,
        "provenance": provenance(),
    }
    print(json.dumps({"summary": summary}))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
