"""Spans around calls into bchyper, recorded from outside the package.

``Tracer.install`` replaces each named module attribute by a wrapper,
in every ``bchyper`` module that binds the same function object (so
``from .kernels import coeff_table`` copies are wrapped too), and
``uninstall`` puts the originals back.  The program itself is not
changed.  A wrapper records a span only while a case is open; a span
is (name, start_ns, end_ns, parent index, case id, attrs).  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict


def _series_sum(args, kwargs, out, _):
    return {"terms": int(out[1])}


def _series_sum_many(args, kwargs, out, _):
    """The numpy kernel advances every lane until the longest one stops,
    so the work done is lanes x the longest lane's term count."""
    counts = out[1]
    steps = int(counts.max()) if len(counts) else 0
    return {"lanes": len(counts), "lane_steps": len(counts) * steps, "useful": int(counts.sum())}


def _rule_size(args, kwargs, out, _):
    return {"n": int(args[0] if args else kwargs["n"])}


# Module attribute -> extractor of per-call counts from
# (args, kwargs, result, state taken before the call), or None.
TARGETS = {
    "quad.euler_integral": None,
    "quad.laplace_integral": None,
    "quad.double_integral": None,
    "quad.jacobi_rule_01": _rule_size,
    "quad._inner_values": None,
    "kernels.series_sum": _series_sum,
    "kernels.series_sum_many": _series_sum_many,
    "kernels.series_sum_terminating": None,
    "kernels.window_probe": None,
    "kernels.term_ratio": None,
    "kernels.coeff_table": None,
    "gamma.complex_pochhammer": None,
    "hyper.pfq": None,
    "hyper.pfq_components": None,
    "hyper.component_series": None,
    "hyper.check_domain": None,
    "hyper.oracle_pfq_complex": None,
    "hyper.classify": None,
    "identities.quad_even": None,
    "identities.quad_odd": None,
    "identities.saalschutz": None,
    "identities.derivative_relation": None,
    "identities.cauchy_riemann_check": None,
    "identities.contiguous_alpha_plus": None,
    "identities.contiguous_alpha_minus": None,
    "identities.contiguous_beta_minus": None,
    "identities.contiguous_beta_plus": None,
    "identities.coefficient_recurrence_ulps": None,
    "identities.ode_residual_with_bound": None,
    "coherent.build_tables": None,
    "coherent.annihilate": None,
    "coherent.inner_product": None,
}

CASE = "case"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._case = None
        self._installed: list = []

    # -- wrapping -----------------------------------------------------------

    def install(self, package="bchyper"):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for target, extract in TARGETS.items():
            mod_name, attr = target.split(".", 1)
            orig = getattr(sys.modules.get(f"{package}.{mod_name}"), attr, None)
            if orig is None:
                print(f"trace: {package}.{target} not found, not traced", file=sys.stderr)
                continue
            before = None
            if hasattr(orig, "cache_info"):  # an lru_cache: record the hits of each call
                before = lambda fn=orig: fn.cache_info().hits
                extract = lambda args, kwargs, out, hits, fn=orig: {"hits": fn.cache_info().hits - hits}
            wrapper = self._wrapper(target, orig, extract, before)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, orig))

    def uninstall(self):
        for mod, name, orig in reversed(self._installed):
            setattr(mod, name, orig)
        self._installed.clear()

    def _wrapper(self, name, fn, extract, before):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self._case is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            state = before() if before is not None else None
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1], self._case, None)
            if extract is not None:
                try:
                    attrs = extract(args, kwargs, out, state)
                except (TypeError, IndexError, KeyError, ValueError, AttributeError):
                    attrs = None
                spans[idx] = spans[idx][:5] + (attrs,)
            return out

        return traced

    # -- cases --------------------------------------------------------------

    def open_case(self, case_id, suite):
        self._case = case_id
        idx = len(self.spans)
        self.spans.append((CASE, time.perf_counter_ns(), None, -1, case_id, {"suite": suite}))
        self._stack.append(idx)

    def close_case(self):
        idx = self._stack.pop()
        name, start, _, parent, case, attrs = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent, case, attrs)
        self._case = None

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus the part of its
        interval that its child spans cover."""
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(i)
        out = []
        for i, (_, start, end, _, _, _) in enumerate(self.spans):
            covered = 0
            cursor = start
            for j in sorted(children.get(i, ()), key=lambda k: self.spans[k][1]):
                c_start = max(self.spans[j][1], cursor)
                c_end = min(self.spans[j][2], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append(end - start - covered)
        return out

    def summary(self):
        """Per span name: calls, self_ns, and the summed count attributes."""
        agg = defaultdict(lambda: defaultdict(float))
        for span, self_ns in zip(self.spans, self.self_times()):
            name, _, _, _, _, attrs = span
            row = agg[name]
            row["calls"] += 1
            row["self_ns"] += self_ns
            for key, value in (attrs or {}).items():
                if key == "n":  # Gauss rule size
                    row[f"n{value}_calls"] += 1
                    row[f"n{value}_self_ns"] += self_ns
                elif isinstance(value, (int, float)):
                    row[key] += value
        return agg

    def write(self, path):
        """Spans as gzipped JSON lines, one [name, start_ns, end_ns,
        parent, case, attrs] per line."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
