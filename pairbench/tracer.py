"""Per-layer tracing of pairlin from outside the package.

``install`` wraps the public functions of the pairlin modules in spans and
counts element operations on ``PairAlgebra``.  pairlin's modules bind each
other's functions at import (``from .matrices import det_doubled``), and the
suite and command tables hold function objects, so a wrapper replaces every
reference to the original: in each module namespace, and in module-level
lists and dicts.

A span records its duration, and its parent is the span that was open when
it started.  Spans are folded as they close, so memory stays flat however
many calls a run makes: each function keeps its call count and the time of
its outermost calls, and each layer keeps its self time, the span durations
minus the part covered by child spans.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import Counter

# Layer of each pairlin module.  In core and instances only pair
# construction and the audit get spans: element-level helpers run millions of
# times, and a span costs more than the helper, so element operations are
# counted instead.
LAYERS = {
    "pairlin.core": "core",
    "pairlin.instances": "core",
    "pairlin.matrices": "matrices",
    "pairlin.rank": "rank",
    "pairlin.solve": "solve",
    "pairlin.suites": "suites",
    "pairlin.cli": "cli",
}
CORE_SPANS = {"make_algebra", "axiom_audit"}

# Suite names as `verify all` prints them.
SUITE_NAMES = (
    "sign-a2-counterexample",
    "doubled-boolean-a2",
    "truncated-quasiperiodic",
    "powerset-symdiff-a2prime",
    "laplace-identity",
    "cayley-hamilton",
    "cramer-balance",
    "jacobi-convergence",
    "singular-3x3-dependence",
    "a1-dependence-singularity",
    "krasner-2x2",
    "structure-audit",
    "hyperfield-a2prime",
)
CLI_COMMANDS = ("det", "rank", "check", "solve", "audit", "verify")

# metric name -> wrapped function whose outermost spans it sums
SPAN_METRICS = {
    "core.make_algebra_s": "instances.make_algebra",
    "core.axiom_audit_s": "core.axiom_audit",
    "matrices.det_s": "matrices.det_doubled",
    "matrices.adjoint_s": "matrices.adjoint",
    "matrices.laplace_s": "matrices.laplace_expand",
    "matrices.char_poly_s": "matrices.char_poly_doubled",
    "rank.find_dependence_s": "rank.find_dependence",
    "rank.entry_ratio_domain_s": "rank.entry_ratio_domain",
    "rank.submatrix_rank_s": "rank.submatrix_rank",
    "rank.rank_report_s": "rank.rank_report",
    "solve.cramer_s": "solve.cramer_solve",
    "solve.jacobi_s": "solve.jacobi_solve",
}
for _cmd in CLI_COMMANDS:
    SPAN_METRICS[f"cli.{_cmd}_s"] = f"cli.cmd_{_cmd}"
CLI_PARSE = ("cli.parse_matrix_text", "cli.parse_vector", "cli.build_parser")


def metric_units():
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        ("core.add_calls", "count"),
        ("core.mul_calls", "count"),
        ("core.check_calls", "count"),
        ("core.make_algebra_s", "s"),
        ("core.axiom_audit_s", "s"),
        ("matrices.det_calls", "count"),
        ("matrices.tracks", "count"),
        ("matrices.det_s", "s"),
        ("matrices.adjoint_s", "s"),
        ("matrices.laplace_s", "s"),
        ("matrices.char_poly_s", "s"),
        ("matrices.self_s", "s"),
        ("rank.find_dependence_calls", "count"),
        ("rank.witness_rate", "ratio"),
        ("rank.find_dependence_s", "s"),
        ("rank.entry_ratio_domain_s", "s"),
        ("rank.domain_candidates", "count"),
        ("rank.submatrix_rank_calls", "count"),
        ("rank.submatrix_rank_s", "s"),
        ("rank.rank_report_s", "s"),
        ("rank.self_s", "s"),
        ("solve.cramer_s", "s"),
        ("solve.jacobi_s", "s"),
        ("solve.jacobi_iterations", "count"),
        ("solve.self_s", "s"),
    ]
    out += [(f"suites.{name}_s", "s") for name in SUITE_NAMES]
    out += [("cli.parse_s", "s")]
    out += [(f"cli.{cmd}_s", "s") for cmd in CLI_COMMANDS]
    out += [("cli.startup_s", "s"), ("cli.self_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.calls = Counter()  # function key -> calls
        self.outer_s = Counter()  # function key -> time of outermost calls
        self.self_s = Counter()  # layer -> self time
        self.work = Counter()  # named work counts
        self.ops = Counter()  # PairAlgebra method -> calls
        self.suite_s = Counter()  # suite name -> time
        self.startup_s = 0.0
        self._stack = []  # child time of each open span
        self._depth = Counter()

    def _span(self, key, layer, fn, after):
        stack, depth = self._stack, self._depth
        calls, outer_s, self_s = self.calls, self.outer_s, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[key] -= 1
                if not depth[key]:
                    outer_s[key] += elapsed
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            calls[key] += 1
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        ops = self.ops

        def wrapper(*args, **kwargs):
            ops[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # work counts read from arguments and results
    def _after_det(self, args, kwargs, result, elapsed):
        self.work["tracks"] += math.factorial(args[0].rows)

    def _after_find_dependence(self, args, kwargs, result, elapsed):
        domain = args[1] if len(args) > 1 else kwargs.get("domain")
        try:
            self.work["domain_candidates"] += len(domain.candidates)
        except (AttributeError, TypeError):
            pass
        if result is not None:
            self.work["witnesses"] += 1

    def _after_jacobi(self, args, kwargs, result, elapsed):
        self.work["jacobi_iterations"] += len(result.iterates)

    def _after_suite(self, args, kwargs, result, elapsed):
        self.suite_s[result.name] += elapsed

    def install(self):
        """Wrap every public function of the loaded pairlin modules."""
        after = {
            "matrices.det_doubled": self._after_det,
            "rank.find_dependence": self._after_find_dependence,
            "solve.jacobi_solve": self._after_jacobi,
        }
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "pairlin" or name.startswith("pairlin.")
        }
        replace = {}
        for name, layer in LAYERS.items():
            mod = modules.get(name)
            if mod is None:
                continue
            short = name.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != name:
                    continue
                if layer == "core" and attr not in CORE_SPANS:
                    continue
                key = f"{short}.{attr}"
                hook = after.get(key)
                if layer == "suites" and attr.startswith("suite_"):
                    hook = self._after_suite
                replace[id(obj)] = self._span(key, layer, obj, hook)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
                elif attr.startswith("__"):
                    continue
                elif isinstance(obj, list):
                    obj[:] = [replace.get(id(x), x) for x in obj]
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in replace:
                            obj[k] = replace[id(v)]
        core = modules.get("pairlin.core")
        if core is not None and hasattr(core, "PairAlgebra"):
            cls = core.PairAlgebra
            for method in ("add", "mul", "check"):
                if inspect.isfunction(getattr(cls, method, None)):
                    setattr(cls, method, self._counter(method, getattr(cls, method)))

    def metrics(self):
        calls, outer = self.calls, self.outer_s
        out = {
            "core.add_calls": self.ops["add"],
            "core.mul_calls": self.ops["mul"],
            "core.check_calls": self.ops["check"],
            "matrices.det_calls": calls["matrices.det_doubled"],
            "matrices.tracks": self.work["tracks"],
            "matrices.self_s": self.self_s["matrices"],
            "rank.find_dependence_calls": calls["rank.find_dependence"],
            "rank.witness_rate": (
                self.work["witnesses"] / calls["rank.find_dependence"]
                if calls["rank.find_dependence"] else 0.0
            ),
            "rank.domain_candidates": self.work["domain_candidates"],
            "rank.submatrix_rank_calls": calls["rank.submatrix_rank"],
            "rank.self_s": self.self_s["rank"],
            "solve.jacobi_iterations": self.work["jacobi_iterations"],
            "solve.self_s": self.self_s["solve"],
            "cli.parse_s": sum(outer[k] for k in CLI_PARSE),
            "cli.startup_s": self.startup_s,
            "cli.self_s": self.self_s["cli"],
        }
        for metric, key in SPAN_METRICS.items():
            out[metric] = outer[key]
        for name in SUITE_NAMES:
            out[f"suites.{name}_s"] = self.suite_s[name]
        for name, unit in metric_units():
            if unit == "s":
                out[name] = float(out[name])
        return out

    def functions(self):
        """Calls and outermost time of every wrapped function that ran."""
        return {
            key: {"calls": n, "s": round(self.outer_s[key], 6)}
            for key, n in sorted(self.calls.items())
        }
