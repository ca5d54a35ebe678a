"""Span tracing of rootrec's public functions, installed from outside.

``Tracer.install`` wraps every public function (module level, no
leading underscore) of the traced modules.  It rebinds the wrapper under
every name that refers to the original in any loaded ``rootrec``
namespace, so calls made through ``rootrec.cli.simulate`` or
``rootrec.ctmc.transition_matrix`` are seen as well as direct ones.  No
code of the package changes.

A span is ``[id, parent id, name, start, end, child time]``.  Spans stay
in memory until ``write_spans`` is called at the end of the command.
A span's self time is its duration minus the time covered by its child
spans; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("tree", "ctmc", "treechain", "estimators", "bounds",
                  "tkf91", "cli")

ID, PARENT, NAME, START, END, CHILD = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack: list = []
        self._next_id = 0
        self._tm_keys: set = set()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, observe):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            rec = [self._next_id, stack[-1][ID] if stack else 0, name,
                   perf_counter(), 0.0, 0.0]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = rec[END] = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += end - rec[START]
                spans.append(rec)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_transition(self, args, kwargs, result):
        Q = args[0] if args else kwargs["Q"]
        t = args[1] if len(args) > 1 else kwargs["t"]
        self._tm_keys.add((Q.q.tobytes(), float(t)))

    def _observe_law(self, args, kwargs, result):
        self.counters["treechain.exact_leaf_law.outcomes"] += len(result.probs)

    def _observe_report(self, args, kwargs, result):
        self.counters["estimators.fallbacks"] += int(result.fallback)

    def install(self) -> None:
        """Wrap the public functions of the traced modules in place."""
        observers = {
            "ctmc.transition_matrix": self._observe_transition,
            "treechain.exact_leaf_law": self._observe_law,
            "estimators.frequency_estimate": self._observe_report,
            "estimators.uniform_chain_estimate": self._observe_report,
        }
        replace = {}
        for mod_name in TRACED_MODULES:
            mod = importlib.import_module(f"rootrec.{mod_name}")
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    name = f"{mod_name}.{attr}"
                    replace[id(fn)] = (fn, self._wrap(name, fn,
                                                      observers.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rootrec"
                                   or mod_name.startswith("rootrec.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, plus
        the counters gathered by the observers."""
        layers: dict = {}
        for rec in self.spans:
            row = layers.setdefault(rec[NAME], {"calls": 0, "s": 0.0,
                                                "self_s": 0.0})
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - rec[CHILD]
        counters = dict(self.counters)
        counters["ctmc.transition_matrix.distinct"] = len(self._tm_keys)
        return {"layers": layers, "counters": counters}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            t0 = min((rec[START] for rec in self.spans), default=0.0)
            for rec in sorted(self.spans):
                fh.write(f"{rec[ID]},{rec[PARENT]},{rec[NAME]},"
                         f"{rec[START] - t0:.9f},{rec[END] - t0:.9f},"
                         f"{rec[END] - rec[START] - rec[CHILD]:.9f}\n")
