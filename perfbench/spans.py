"""Span tracing of the engine from outside it.

``Tracer.install`` replaces every public function of each ``legcable``
module with a wrapper that records a span (name, start, end, parent, the
operation it ran for) and aggregates calls, inclusive time and self time per
span name.  The engine imports functions by name across modules, so every
module attribute (and every tuple of functions, such as the selfcheck list)
that holds an original is rebound.  ``uninstall`` restores the originals.

Self time is a span's duration minus the durations of its direct children.
Inclusive time and call counts are taken only for the outermost span of a
name, so recursion is not counted twice.  Spans are kept in memory up to a
cap and written out when the run ends; the aggregates are exact past the cap.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from time import perf_counter

# Private helpers that do a public function's work under another name: their
# time belongs to the public span.
ALIASES = {
    ("links", "_canonicalize_greater"): "links.canonicalize",
    ("links", "_canonicalize_lesser"): "links.canonicalize",
}

_REGIME_TAG = {"GreaterLink": "greater", "IntegerLink": "integer", "LesserLink": "lesser"}


def _isotopic_tag(args) -> str:
    return _REGIME_TAG.get(type(args[1]).__name__, "other") if len(args) > 1 else "other"


# Span names whose name depends on the arguments.
TAGGERS = {"links.isotopic": _isotopic_tag}


def _count_closure(tracer: "Tracer", result) -> None:
    states, complete = result
    tracer.add("links.integer_closure.states", len(states))
    tracer.add("links.integer_closure.complete", int(bool(complete)))


def _count_verdict(tracer: "Tracer", result) -> None:
    tracer.add("oracle.closure_equal.conclusive", int(result.conclusive))


def _count_bytes(tracer: "Tracer", result) -> None:
    tracer.add("render.bytes_out", len(result.encode()))


# Counters read from a call's return value.
ON_RETURN = {
    "links.integer_closure": _count_closure,
    "oracle.closure_equal": _count_verdict,
    "render.ascii_mountain": _count_bytes,
    "render.svg_mountain": _count_bytes,
}

# Move generators: each call expands one state of a closure search.
MOVES = ("oracle.legclass_moves", "links.integer_moves")

# Spans kept in memory; past this many only the aggregates are updated.
SPAN_CAP = 20000


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.op = -1
        self.spans: list = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list = []
        self._active: dict = {}
        # (phase, name) -> [calls, inclusive s, self s, errors]
        self.agg: dict = {}
        # (phase, counter) -> value
        self.counts: dict = {}
        self._patched: list = []

    def add(self, counter: str, value) -> None:
        key = (self.phase, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tagger = TAGGERS.get(name)
        on_return = ON_RETURN.get(name)
        counts_state = name in MOVES
        tracer = self

        def traced(*args, **kwargs):
            span = name if tagger is None else f"{name}.{tagger(args)}"
            parent = tracer._stack[-1][3] if tracer._stack else None
            frame = [span, perf_counter(), 0.0, tracer._next_id]
            tracer._next_id += 1
            tracer._stack.append(frame)
            active = tracer._active
            active[span] = active.get(span, 0) + 1
            if counts_state and active.get("oracle.closure_equal"):
                tracer.add("oracle.states_expanded", 1)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                tracer._stack.pop()
                active[span] -= 1
                dur = end - frame[1]
                key = (tracer.phase, span)
                row = tracer.agg.get(key)
                if row is None:
                    row = tracer.agg[key] = [0, 0.0, 0.0, 0]
                row[2] += dur - frame[2]
                if active[span] == 0:
                    row[0] += 1
                    row[1] += dur
                if failed:
                    row[3] += 1
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (frame[3], parent, span, frame[1], end, tracer.op, tracer.phase)
                    )
                else:
                    tracer.dropped += 1
            if on_return is not None:
                on_return(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every module of ``package``."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if not inspect.isfunction(value) or value.__module__ != mod.__name__:
                    continue
                name = ALIASES.get((short, attr))
                if name is None and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                if name is not None:
                    wrappers[value] = self._wrap(value, name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                new = None
                if inspect.isfunction(value) and value in wrappers:
                    new = wrappers[value]
                elif isinstance(value, tuple) and any(
                    inspect.isfunction(v) and v in wrappers for v in value
                ):
                    new = tuple(wrappers.get(v, v) if inspect.isfunction(v) else v
                                for v in value)
                if new is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- reading ------------------------------------------------------------

    def row(self, phase: str, name: str) -> list:
        return self.agg.get((phase, name), [0, 0.0, 0.0, 0])

    def count(self, phase: str, counter: str):
        return self.counts.get((phase, counter), 0)

    def dump(self, path) -> None:
        """Write spans and per-phase aggregates as one JSON document."""
        doc = {
            "span_fields": ["id", "parent", "name", "start", "end", "op", "phase"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "aggregates": [
                {"phase": phase, "name": name, "calls": r[0], "inclusive_s": r[1],
                 "self_s": r[2], "errors": r[3]}
                for (phase, name), r in sorted(self.agg.items())
            ],
            "counters": [
                {"phase": phase, "name": name, "value": v}
                for (phase, name), v in sorted(self.counts.items())
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
