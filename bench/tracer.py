"""Spans around the calls between the modules of protometrics, recorded from outside.

``Tracer.install`` rebinds, in each module of the package, every function
that the module bound from another module of the package (and
``LabeledMatrix``, whose construction is the matrix layer's validation
work) to a wrapper that records a span. Calls nested inside a span become
its children, and a span's self time is its duration minus its direct
children's. ``Tracer.restore`` puts the original bindings back.

Spans stay in memory; ``per_layer`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from dataclasses import dataclass

LAYERS = ("cli", "io", "matrix", "checks", "classify", "transforms", "generators")

# classify's own work includes recovering the potential, so that call stays in it.
KEEP_IN_CALLER = {("classify", "potential_of")}
# Helpers inside the generators layer timed as spans of their own.
CLOSURES = ("_closure", "shortest_path_closure")

SCANS = ("check_triangle", "check_prequadrangle")
PARSERS = ("parse_matrix", "parse_gauge_csv")
SERIALIZERS = ("serialize_matrix", "serialize_report")
# Transforms that raise PreconditionError when their input is outside their class.
GUARDED = ("metrize", "compose", "decompose", "zero_coordinates", "potential_of",
           "specialization_preorder", "gromov_product", "farris_transform",
           "min_farris_constant", "log_transform")


def _protometric_draws(args, kwargs) -> int:
    spec = args[0]
    ty = args[1] if len(args) > 1 else kwargs.get("ty", "t")
    strict = args[2] if len(args) > 2 else kwargs.get("strict", False)
    n = spec.n
    m = n if strict else max(1, (n + 1) // 2)
    base = m * (m - 1) if getattr(ty, "value", ty) == "t" else m * (m - 1) // 2
    return base + (n - m) + n


# SplitMix64 draws each generator makes, from its documented draw order (the
# redraw after a degenerate closure is unreachable at the default scale).
DRAWS = {
    "gen_metric": lambda args, kwargs: args[0].n * (args[0].n - 1) // 2,
    "gen_quasi_semi_metric": lambda args, kwargs: args[0].n * (args[0].n - 1),
    "gen_protometric": _protometric_draws,
    "gen_zero_protometric": lambda args, kwargs: 2 * args[0].n,
}


@dataclass
class Span:
    layer: str
    name: str
    parent: str | None  # layer of the enclosing span, None at top level
    dur: float
    self_time: float
    outcome: str  # "ok", "reject" (PreconditionError) or "error"
    status: str | None  # verdict status of a check
    count: int  # triples checked, bytes parsed or written, or draws made


def _note(name: str, args, kwargs, result) -> tuple[str | None, int]:
    if name.startswith("check_"):
        return result.status.value, result.count_checked
    if name in PARSERS:
        return None, len(args[0].encode())
    if name in SERIALIZERS:
        return None, len(result.encode())
    if name in DRAWS:
        return None, DRAWS[name](args, kwargs)
    return None, 0


def _layer_of(obj) -> str | None:
    from protometrics.matrix import LabeledMatrix

    if obj is LabeledMatrix:
        return "matrix"
    if isinstance(obj, types.FunctionType) and obj.__module__.startswith("protometrics."):
        layer = obj.__module__.rpartition(".")[2]
        return layer if layer in LAYERS else None
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [layer, child time] of each open span
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn):
        from protometrics.errors import PreconditionError

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            outcome, result = "error", None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                outcome = "ok"
                return result
            except PreconditionError:
                outcome = "reject"
                raise
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                status, count = _note(name, args, kwargs, result) if outcome == "ok" else (None, 0)
                spans.append(Span(layer, name, parent[0] if parent else None, dur,
                                  dur - frame[1], outcome, status, count))

        return traced

    def _rebind(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"protometrics.{layer}") for layer in LAYERS}
        by_name = {m.__name__: layer for layer, m in modules.items()}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.ModuleType) and by_name.get(obj.__name__) not in (None, layer):
                    self._rebind(module, attr, self._proxy(obj, by_name[obj.__name__]))
                    continue
                home = _layer_of(obj)
                if home in (None, layer) or (layer, attr) in KEEP_IN_CALLER:
                    continue
                self._rebind(module, attr, self.wrap(home, attr, obj))
        for attr in CLOSURES:
            fn = getattr(modules["generators"], attr)
            self._rebind(modules["generators"], attr, self.wrap("generators", attr, fn))

    def _proxy(self, module, layer: str):
        """A stand-in for a module binding whose functions are wrapped."""
        proxy = types.ModuleType(module.__name__)
        for attr, obj in vars(module).items():
            traced = _layer_of(obj) == layer and not attr.startswith("_")
            setattr(proxy, attr, self.wrap(layer, attr, obj) if traced else obj)
        return proxy

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def api(self, package) -> types.SimpleNamespace:
        """The package's public names, its functions wrapped, for the benchmark's own calls."""
        ns = {}
        for name in package.__all__:
            obj = getattr(package, name)
            layer = _layer_of(obj)
            wrap = layer is not None and isinstance(obj, types.FunctionType)
            ns[name] = self.wrap(layer, name, obj) if wrap else obj
        return types.SimpleNamespace(**ns)


def median(values) -> float:
    """Median of a nonempty sequence (statistics is not imported: it slows CLI start-up)."""
    v = sorted(values)
    return (v[(len(v) - 1) // 2] + v[len(v) // 2]) / 2


def _median_ms(values) -> float:
    return 1e3 * median(values) if values else 0.0


def per_layer(spans: list[Span], cycle_spans: list[Span], wall: float,
              cycles: float) -> dict[str, float]:
    """Per-layer metrics of ``spans``, recorded over ``cycles`` op cycles taking ``wall`` s.

    ``*_calls`` count the calls into a layer from outside it in one cycle
    (``cycle_spans``), so they repeat exactly; ``*_self_s`` are self seconds
    per cycle; ``*_ms`` are medians of whole-span durations; rates divide a
    count by the self time it took; a share is self time over ``wall``.
    """
    def pick(layer=None, names=None, outcome=None, among=spans):
        return [s for s in among
                if (layer is None or s.layer == layer)
                and (names is None or s.name in names)
                and (outcome is None or s.outcome == outcome)]

    def total(group):
        return sum(s.self_time for s in group)

    def self_s(group):
        return total(group) / cycles

    def rate(group):
        return sum(s.count for s in group) / total(group) if group else 0.0

    def calls(layer, names=None):
        return sum(1 for s in pick(layer, names, among=cycle_spans) if s.parent != layer)

    m: dict[str, float] = {}
    parse, ser = pick("io", PARSERS), pick("io", SERIALIZERS)
    m["io.parse_calls"] = calls("io", PARSERS)
    m["io.parse_self_s"] = self_s(parse)
    m["io.parse_mb_per_s"] = rate(parse) / 1e6
    m["io.serialize_calls"] = calls("io", SERIALIZERS)
    m["io.serialize_self_s"] = self_s(ser)
    m["io.serialize_mb_per_s"] = rate(ser) / 1e6
    m["matrix.construct_calls"] = calls("matrix", ("LabeledMatrix",))
    m["matrix.construct_self_s"] = self_s(pick("matrix", ("LabeledMatrix",)))
    scans = pick("checks", SCANS)
    m["checks.scan_calls"] = calls("checks", SCANS)
    m["checks.scan_self_s"] = self_s(scans)
    m["checks.triples_per_s"] = rate(scans)
    m["checks.scan_pass_ms"] = _median_ms([s.dur for s in scans if s.status == "PASS"])
    m["checks.scan_fail_ms"] = _median_ms([s.dur for s in scans if s.status == "FAIL"])
    m["checks.strict_self_s"] = self_s(pick("checks", ("check_strict",)))
    m["checks.transition_self_s"] = self_s(pick("checks", ("check_transition",)))
    m["classify.calls"] = calls("classify")
    m["classify.self_s"] = self_s(pick("classify"))
    m["transforms.calls"] = calls("transforms")
    m["transforms.self_s"] = self_s(pick("transforms"))
    m["transforms.accept_ms"] = _median_ms([s.dur for s in pick("transforms", GUARDED, "ok")])
    m["transforms.reject_ms"] = _median_ms([s.dur for s in pick("transforms", GUARDED, "reject")])
    m["generators.calls"] = calls("generators")
    m["generators.self_s"] = self_s(pick("generators"))
    m["generators.draws_per_s"] = rate(pick("generators", DRAWS))
    m["generators.closure_self_s"] = self_s(pick("generators", CLOSURES))
    m["generators.perturb_self_s"] = self_s(pick("generators", ("perturb_violation",)))
    for layer in LAYERS:
        m[f"{layer}.share"] = total(pick(layer)) / wall
    return m


def counts(spans: list[Span]) -> dict[str, int]:
    """Work counts that repeat exactly for a given seed and code."""
    return {
        "triples_checked": sum(s.count for s in spans
                               if s.name in SCANS or s.name == "check_transition"),
        "splitmix64_draws": sum(s.count for s in spans if s.name in DRAWS),
        "bytes_parsed": sum(s.count for s in spans if s.name in PARSERS),
        "bytes_serialized": sum(s.count for s in spans if s.name in SERIALIZERS),
    }
