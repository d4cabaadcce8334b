"""Per-layer tracing by wrapping the package's public functions from outside.

`Tracer.install()` replaces each traced function in every loaded
`chordalbounds` module that holds it (methods are replaced on their
class), so calls between modules go through the wrapper too.  Each wrapped
call is a span; a span's self time is its duration minus the time covered
by the traced calls it made.  Spans are kept in memory and written out by
`write_spans`; the innermost, most frequent layers (listed in HOT) are
only counted, not kept one by one, and spans past SPAN_CAP are counted as
dropped, to bound memory.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, layer name).  Every entry is reported as
# <layer>.calls, <layer>.self_s and <layer>.errors.
TARGETS = [
    ("events", "bernoulli_product", "events.bernoulli_product"),
    ("events", "from_outcomes", "events.from_outcomes"),
    ("events", "intersection_prob", "events.intersection_prob"),
    ("events", "EventSystem.mass", "events.mass"),
    ("events", "union_prob_exact", "events.union_prob_exact"),
    ("events", "alpha_prime", "events.alpha_prime"),
    ("poly", "Polynomial.__mul__", "poly.Polynomial.mul"),
    ("poly", "Polynomial.__rmul__", "poly.Polynomial.mul"),
    ("poly", "Polynomial.__add__", "poly.Polynomial.add"),
    ("poly", "Polynomial.__radd__", "poly.Polynomial.add"),
    ("poly", "Polynomial.__call__", "poly.Polynomial.call"),
    *(
        ("bounds", fn, f"bounds.{fn}")
        for fn in (
            "clique_sieve_sum", "classical_bonferroni", "chordal_upper", "chordal_lower",
            "hunter_upper_tree", "hunter_lower_tree", "path_lower", "kwerel_upper",
            "kwerel_lower", "kwerel2_lower", "generalized_lower",
        )
    ),
    *(
        ("graphs", fn, f"graphs.{fn}")
        for fn in ("mcs_order", "is_chordal", "clique_complex", "independence_number")
    ),
    *(
        ("optimize", fn, f"optimize.{fn}")
        for fn in ("pairwise_weights", "best_tree", "best_path", "exhaustive_tree_oracle")
    ),
    *(
        ("reliability", fn, f"reliability.{fn}")
        for fn in (
            "enumerate_st_paths", "path_event_system", "exact_reliability",
            "bound_polynomials", "sweep",
        )
    ),
    ("cli", "main", "cli.main"),
]

HOT = {"poly.Polynomial.mul", "poly.Polynomial.add", "events.mass", "events.intersection_prob"}
# Spans kept beyond this many are counted as dropped.
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.outcomes_built = 0
        self.cliques = 0
        self.mass_distinct = 0
        self._masks = set()
        self.spans = []
        self.dropped = 0
        self.job = 0
        self._stack = []  # [child seconds, span id] per open span
        self._next_id = 1
        self._restore = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        keep = name not in HOT

        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                if keep:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((name, start, end, span_id, parent, tracer.job))
                    else:
                        tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def _observed(self, name, fn):
        """Wrap with extra counting done outside the timed span."""
        traced = self._wrap(name, fn)
        tracer = self
        if name == "events.mass":
            def observed(system, mask):
                tracer._masks.add((id(system), mask))
                return traced(system, mask)
        elif name == "graphs.clique_complex":
            def observed(*args, **kwargs):
                result = traced(*args, **kwargs)
                tracer.cliques += len(result)
                return result
        else:
            return traced
        observed.__wrapped__ = fn
        return observed

    def install(self):
        from chordalbounds import events

        packages = [m for n, m in list(sys.modules.items()) if n == "chordalbounds" or n.startswith("chordalbounds.")]
        for module_name, path, name in TARGETS:
            module = sys.modules[f"chordalbounds.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._replace(owner, attr, self._observed(name, getattr(owner, attr)))
                continue
            original = getattr(module, attr)
            wrapper = self._observed(name, original)
            for pkg in packages:
                for key, value in list(vars(pkg).items()):
                    if value is original:
                        self._replace(pkg, key, wrapper)

        original_init = events.EventSystem.__init__
        tracer = self

        def counting_init(system, backend, weights, evs):
            weights = tuple(weights)
            tracer.outcomes_built += len(weights)
            original_init(system, backend, weights, evs)

        self._replace(events.EventSystem, "__init__", counting_init)

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- jobs and results -----------------------------------------------

    def start_job(self, job_id: int):
        """Spans that follow belong to `job_id`; mass reuse is counted per job."""
        self.mass_distinct += len(self._masks)
        self._masks.clear()
        self.job = job_id

    def metrics(self) -> dict:
        self.start_job(self.job)
        out = {}
        for name in dict.fromkeys(name for _, _, name in TARGETS):
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.errors"] = (self.errors[name], "count")
        mass_calls = self.calls["events.mass"]
        out["events.outcomes_built"] = (self.outcomes_built, "count")
        out["events.mass.reuse_ratio"] = (1 - self.mass_distinct / mass_calls if mass_calls else 0.0, "ratio")
        out["graphs.clique_complex.cliques"] = (self.cliques, "count")
        return out

    def write_spans(self, path: str, meta: dict):
        """One JSON header line, then one [name, start, end, id, parent, job]
        line per kept span."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {**meta, "spans": len(self.spans), "dropped": self.dropped, "counted_only": sorted(HOT)}
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
