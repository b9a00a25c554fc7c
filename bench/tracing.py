"""Span and counter tracing of the ``extschur`` modules, installed from
outside the package.

``Tracer.install`` wraps every public function of the seven modules and
rebinds each wrapper under every name that held the original in the
``extschur.*`` module namespaces, so calls between modules and within one
module go through it.  No file of the package changes.

Each call of a wrapped function is one span: name, start, end, parent span
and the request it belongs to.  Calls of the hot leaf functions, and every
call made inside one, are not spans: they are summed into a counter keyed by
(nearest enclosing span, function), which keeps the trace small and the
overhead bounded.  Every frame accumulates the time covered by its direct
children, so a span's self time is its duration minus that time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = (
    "cli",
    "compositions",
    "tableaux",
    "hecke_action",
    "qsym",
    "module_analysis",
    "linalg",
)

# Called once per tableau, or per relation and tableau, in the inner loops.
# apply_word calls only the two operators below it, and is_standard_extended
# nothing, so counting them as leaves loses no span structure.
HOT_LEAVES = frozenset(
    {
        "hecke_action.pi_quotient",
        "hecke_action.pi_full",
        "hecke_action.apply_word",
        "tableaux.swap_entries",
        "tableaux.descent_composition",
        "tableaux.is_standard_extended",
    }
)

NO_SPAN = -1


class Tracer:
    def __init__(self):
        self.request = -1
        self.spans: list[tuple] = []  # (id, request, name, start, end, parent, child_s)
        self.leaves: dict[tuple[int, str], list] = {}  # -> [calls, total_s, self_s]
        # Frames are [child_s, name, srit_seen]; the base frame catches calls
        # made outside any traced function.
        self.stack: list[list] = [[0.0, "", 0]]
        self.current = NO_SPAN
        self.leaf_depth = 0
        self.next_id = 0
        self.counts: dict[str, int] = {}
        self.shapes: dict[str, set] = {"tableaux.enumerate_set": set(), "hecke_action.filtration": set()}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"extschur.{layer}")
            for fname, fn in vars(module).items():
                if (
                    not fname.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fname}")
        namespaces = [importlib.import_module("extschur")] + [
            importlib.import_module(f"extschur.{layer}") for layer in LAYERS
        ]
        for module in namespaces:
            for fname, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, fname, wrapper)

    def _wrap(self, fn, name: str):
        tracer = self
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans
        leaves = self.leaves
        hot = name in HOT_LEAVES
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0, name, 0]
            if hot or tracer.leaf_depth:
                tracer.leaf_depth += 1
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    tracer.leaf_depth -= 1
                    duration = end - start
                    stack[-1][0] += duration
                    key = (tracer.current, name)
                    agg = leaves.get(key)
                    if agg is None:
                        leaves[key] = [1, duration, duration - frame[0]]
                    else:
                        agg[0] += 1
                        agg[1] += duration
                        agg[2] += duration - frame[0]
                return result
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.current
            tracer.current = span_id
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.current = parent
                stack[-1][0] += end - start
                spans.append((span_id, tracer.request, name, start, end, parent, frame[0]))
            if hook is not None:
                hook(tracer, args, result, frame)
            return result

        return functools.wraps(fn)(wrapper)

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- results ----------------------------------------------------------

    def per_function(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds]."""
        out: dict[str, list] = {}
        for _sid, _req, name, start, end, _parent, child in self.spans:
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child
        for (_parent, name), (calls, total, self_s) in self.leaves.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, by name."""
        functions = self.per_function()
        out: dict[str, float] = {}
        for layer in LAYERS:
            rows = [v for k, v in functions.items() if k.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(r[2] for r in rows)
            out[f"{layer}.calls"] = sum(r[0] for r in rows)

        def calls(name):
            return functions.get(name, [0, 0.0, 0.0])[0]

        def inclusive(name):
            return functions.get(name, [0, 0.0, 0.0])[1]

        def per_shape(name):
            shapes = len(self.shapes[name])
            return calls(name) / shapes if shapes else 0.0

        counts = self.counts
        generated = counts.get("tableaux.srit_generated", 0)
        kept = counts.get("tableaux.set_kept", 0)
        out.update(
            {
                "tableaux.srit_generated": generated,
                "tableaux.set_kept": kept,
                "tableaux.set_yield": kept / generated if generated else 0.0,
                "tableaux.enumerate_set.calls_per_shape": per_shape("tableaux.enumerate_set"),
                "hecke_action.pi_full.calls": calls("hecke_action.pi_full"),
                "hecke_action.pi_quotient.calls": calls("hecke_action.pi_quotient"),
                "hecke_action.apply_word.calls": calls("hecke_action.apply_word"),
                "hecke_action.filtration.calls_per_shape": per_shape("hecke_action.filtration"),
                "module_analysis.commutant.unknowns": counts.get("module_analysis.commutant.unknowns", 0),
                "module_analysis.commutant.equations": counts.get("module_analysis.commutant.equations", 0),
                "linalg.nullspace.s": inclusive("linalg.nullspace"),
                "linalg.nullspace.rank": counts.get("linalg.nullspace.rank", 0),
                "linalg.nullspace.nullity": counts.get("linalg.nullspace.nullity", 0),
                "linalg.determinant.s": inclusive("linalg.determinant"),
                "qsym.fundamental_to_monomial.s": inclusive("qsym.fundamental_to_monomial"),
                "qsym.monomial_to_fundamental.s": inclusive("qsym.monomial_to_fundamental"),
                "compositions.refinements.terms": counts.get("compositions.refinements.terms", 0),
            }
        )
        return out

    def write(self, path: Path) -> None:
        """Write the spans and leaf counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "span_fields": ["id", "request", "name", "start", "end", "parent", "child_s"],
            "spans": self.spans,
            "leaf_fields": ["parent", "name", "calls", "total_s", "self_s"],
            "leaves": [[p, n, *v] for (p, n), v in self.leaves.items()],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


# -- counters recorded on return from particular functions -----------------


def _enumerate_srit(tracer, args, result, frame):
    parent = tracer.stack[-1]
    if parent[1] == "tableaux.enumerate_set":
        parent[2] += len(result)


def _enumerate_set(tracer, args, result, frame):
    # A filter reports the fillings it visited through enumerate_srit; a
    # generator that calls nothing visited only the tableaux it returned.
    tracer.count("tableaux.srit_generated", frame[2] or len(result))
    tracer.count("tableaux.set_kept", len(result))
    tracer.shapes["tableaux.enumerate_set"].add(tuple(args[0]))


def _filtration(tracer, args, result, frame):
    tracer.shapes["hecke_action.filtration"].add(tuple(args[0]))


def _nullspace(tracer, args, result, frame):
    rows, ncols = args[0], args[1]
    tracer.count("linalg.nullspace.nullity", len(result))
    tracer.count("linalg.nullspace.rank", ncols - len(result))
    if tracer.stack[-1][1] == "module_analysis.commutant_basis":
        tracer.count("module_analysis.commutant.unknowns", ncols)
        tracer.count("module_analysis.commutant.equations", len(rows))


def _refinements(tracer, args, result, frame):
    tracer.count("compositions.refinements.terms", len(result))


_HOOKS = {
    "tableaux.enumerate_srit": _enumerate_srit,
    "tableaux.enumerate_set": _enumerate_set,
    "hecke_action.filtration": _filtration,
    "linalg.nullspace": _nullspace,
    "compositions.refinements": _refinements,
}
