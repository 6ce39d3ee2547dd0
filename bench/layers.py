"""Outside-in layer tracing for the benchmark.

`Tracer.install` replaces functions of `modaltpi` with wrappers
that record a span per call: name, start, end, parent span and request
id.  Each function is wrapped in the namespace its caller looks it up
in (for example `modaltpi.pi.candidates`, which `theory_prime_implicates`
calls), so nothing inside the program changes.  Spans stay in memory
until `write` is called when the run ends; `layer_metrics` derives self
times and counts from them.
"""

from __future__ import annotations

import json
import time

import modaltpi.formula as F
import modaltpi.pi as P
import modaltpi.qa as Q
import modaltpi.semantics as S

# (module, attribute, span name, summary of the result kept on the span)
WRAPPED = [
    (F, "parse", "formula.parse", None),
    (Q, "parse", "formula.parse", None),
    (P, "compile_kb", "pi.compile_kb",
     lambda r, a: (len(r.candidates), len(r.theta))),
    (P, "entails", "semantics.entails", None),
    (P, "candidates", "pi.candidates", lambda r, a: len(r)),
    (P, "to_dnf", "normal_forms.to_dnf", lambda r, a: len(r.terms)),
    (P, "term_candidates", "pi.term_candidates", None),
    (P, "_minimize", "pi.minimize", None),
    (P, "equivalent_mod", "semantics.equivalent_mod", None),
    (P, "entails_mod", "semantics.entails_mod", None),
    (P, "is_horn", "pi.is_horn", None),
    (S, "is_satisfiable", "semantics.is_satisfiable", lambda r, a: bool(r)),
    (Q, "entails_mod", "semantics.entails_mod", None),
    (Q, "find_model", "semantics.find_model", None),
    (Q, "answer_query", "qa.answer_query", lambda r, a: len(a[0].omega())),
    (Q, "answer_query_direct", "qa.answer_query_direct", None),
    (Q, "save_compilation", "qa.save_compilation", None),
    (Q, "load_compilation", "qa.load_compilation", None),
]


class Tracer:
    """Span recorder.  A span is (name, start, end, parent index,
    request id, result summary, error class name or None); a call made
    while no span is open starts a new request."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = 0
        self._saved = []

    def install(self, roots=()):
        """Wrap every function in WRAPPED, and each (module, attribute,
        span name) in `roots`: the caller's own entry points, so that all
        spans of one of its operations share a request id."""
        for module, attr, name, summary in (WRAPPED
                                            + [r + (None,) for r in roots]):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, summary))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, summary):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._request += 1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                error = type(err).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._request,
                                None, error)
            if summary is not None:
                spans[index] = spans[index][:5] + (summary(result, args), None)
            return result

        return traced

    def write(self, path):
        """One JSON array per line: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:5]) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def subtree_check(spans, own, root_name) -> float:
    """Largest gap, in seconds, between a root span's duration and the
    sum of self times over its subtree; zero when the spans nest."""
    totals = list(own)
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i][3]
        if p >= 0:
            totals[p] += totals[i]
    return max((abs(totals[i] - (s[2] - s[1]))
                for i, s in enumerate(spans) if s[0] == root_name),
               default=0.0)


def layer_metrics(spans) -> dict:
    """Per-layer totals over the traced run, keyed by metric name."""
    own = self_times(spans)
    names = [s[0] for s in spans]

    def parent_name(s):
        return names[s[3]] if s[3] >= 0 else None

    def total(name, values=None):
        vals = values if values is not None else [s[2] - s[1] for s in spans]
        return sum(v for v, n in zip(vals, names) if n == name)

    def count(name, parent=None):
        return sum(1 for s in spans
                   if s[0] == name and (parent is None or parent_name(s) == parent))

    entail_names = ("semantics.entails_mod", "semantics.equivalent_mod",
                    "semantics.entails")
    minimize_entails = [s for s in spans if s[0] in entail_names[:2]
                        and parent_name(s) == "pi.minimize"]
    compiles = [s for s in spans if s[0] == "pi.compile_kb"]
    built = [s[5] for s in compiles if s[5] is not None]
    sats = [s for s in spans if s[0] == "semantics.is_satisfiable"]
    answered = [s for s in spans if s[0] == "qa.answer_query"]
    n_answered = len(answered)

    return {
        "normal_forms.to_dnf.s": total("normal_forms.to_dnf"),
        "normal_forms.to_dnf.terms": sum(s[5] or 0 for s in spans
                                         if s[0] == "normal_forms.to_dnf"),
        "pi.compile.calls": len(compiles),
        "pi.candidates.s": total("pi.candidates"),
        "pi.distribution.self_s": total("pi.candidates", own),
        "pi.candidates.count": sum(c for c, _ in built),
        "pi.minimize.self_s": total("pi.minimize", own)
        + total("pi.compile_kb", own),
        "pi.minimize.entail_calls": len(minimize_entails),
        "pi.minimize.entail_s": sum(s[2] - s[1] for s in minimize_entails),
        "pi.theta_per_candidate": (sum(t for _, t in built)
                                   / max(1, sum(c for c, _ in built))),
        "pi.fail.capacity": sum(1 for s in compiles if s[6] == "CapacityError"),
        "pi.fail.budget": sum(1 for s in compiles
                              if s[6] == "BudgetExceededError"),
        "qa.fail.budget": sum(1 for s in spans if s[6] == "BudgetExceededError"
                              and s[0].startswith("qa.answer_query")),
        "semantics.sat.calls": len(sats),
        "semantics.sat.s": total("semantics.is_satisfiable"),
        "semantics.sat.true_frac": (sum(1 for s in sats if s[5])
                                    / max(1, len(sats))),
        "semantics.entail_overhead_s": sum(total(n, own) for n in entail_names),
        "semantics.find_model.calls": count("semantics.find_model"),
        "semantics.find_model.s": total("semantics.find_model"),
        "qa.compiled.calls": n_answered,
        "qa.compiled.entail_calls_per_query": (
            count("semantics.entails_mod", "qa.answer_query")
            / max(1, n_answered)),
        "qa.compiled.omega_size": (sum(s[5] or 0 for s in answered)
                                   / max(1, n_answered)),
        "qa.compiled.self_s": total("qa.answer_query", own),
        "qa.direct.calls": count("qa.answer_query_direct"),
        "qa.direct.self_s": total("qa.answer_query_direct", own),
        "qa.save_load.s": (total("qa.save_compilation")
                           + total("qa.load_compilation")),
        "formula.parse.s": total("formula.parse"),
        "formula.parse.calls": count("formula.parse"),
        "trace.nesting_gap_s": subtree_check(spans, own, "pi.compile_kb"),
    }
