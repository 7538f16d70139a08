"""In-memory spans around the calls the benchmark makes into each layer.

Wrappers are installed from outside the package, on the names the callers
look up at run time:

- ``FAMILIES[f].check`` / ``.build`` (catalog) and, on every built case,
  ``case.closed_form`` (identities) and ``case.oracle`` (quadrature);
- ``wright_psi_normalized``, ``wright_psi`` and ``hyper_pfq`` as bound in
  ``wrightlab.identities`` (the inner series calls of the closed forms);
- a counting wrapper, without a span, on ``log_gamma_signed`` as bound in
  ``wrightlab.series``.

A span is ``(name, start_ns, end_ns, parent, point)``: ``parent`` is the
index of the enclosing span (-1 for a point's root span) and ``point`` the
id of the verify point it belongs to.  The untraced run installs nothing.
"""

from __future__ import annotations

import dataclasses
import gzip
from array import array
from time import perf_counter_ns

from wrightlab import catalog, identities, series

INNER_NAMES = ("wright_psi_normalized", "wright_psi", "hyper_pfq")
CAPTURE_LIMIT = 300_000  # log-gamma arguments kept for the kernel-rate replay


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.point = -1
        self.counting = False  # counts and captures only while this is set
        self.log_gamma_calls = 0
        self.log_gamma_args = array("d")
        self.inner_calls = 0
        self.inner_terms = 0
        self.inner_repeats = 0
        self.outer_terms = 0
        self.node_evals = 0
        self._ladders: set = set()
        self._undo: list = []

    def span(self, name: str, fn, observe=None):
        """Wrap fn so that each call records one span; observe(args, result) sees the result."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.point)
            if observe is not None and self.counting:
                observe(args, result)
            return result

        return traced

    # -- observers ----------------------------------------------------------

    def _inner(self, name):
        def observe(args, result):
            if name == "hyper_pfq":  # (num, den, z, ...)
                key = (name, tuple(args[0]), tuple(args[1]), complex(args[2]))
            else:  # (spec, z, ...)
                key = (name, args[0].upper, args[0].lower, complex(args[1]))
            self._count_inner(key, result)

        return observe

    def _count_inner(self, key, result):
        self.inner_calls += 1
        self.inner_terms += result.terms_used
        if key in self._ladders:
            self.inner_repeats += 1
        else:
            self._ladders.add(key)

    def _closed(self, args, result):
        self.outer_terms += result.terms_used

    def _oracle(self, args, result):
        self.node_evals += result.evaluations

    def _counting_log_gamma(self, fn):
        args = self.log_gamma_args

        def counted(x):
            result = fn(x)
            if self.counting:
                self.log_gamma_calls += 1
                if len(args) < CAPTURE_LIMIT:
                    args.append(x)
            return result

        return counted

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name, wrap):
        """Replace owner.name by wrap(owner.name); a name the program lacks is skipped."""
        if not hasattr(owner, name):
            return
        self._undo.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, wrap(getattr(owner, name)))

    def install(self):
        for name in INNER_NAMES:
            self._patch(identities, name,
                        lambda fn, name=name: self.span(f"series.{name}", fn, self._inner(name)))
        self._patch(series, "log_gamma_signed", self._counting_log_gamma)
        for fam in catalog.FAMILIES.values():
            self._patch(fam, "check", lambda fn: self.span("catalog.check", fn))
            self._patch(fam, "build",
                        lambda fn: self._case_wrapper(self.span("catalog.build", fn)))

    def _case_wrapper(self, build):
        def traced_build(params):
            case = build(params)
            return dataclasses.replace(
                case,
                closed_form=self.span("identities.closed_form", case.closed_form, self._closed),
                oracle=self.span("quadrature.oracle", case.oracle, self._oracle))

        return traced_build

    def uninstall(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is None:
                delattr(owner, name)
            else:
                setattr(owner, name, old)

    def write(self, path):
        """Write the spans as gzipped tab-separated lines with a header."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tpoint\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def layer_times(spans) -> dict:
    """Total and self time in ns per span name; self time excludes direct children."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict = {}
    own: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] = total.get(name, 0) + end - start
        own[name] = own.get(name, 0) + end - start - child[i]
    return {"total": total, "self": own}
