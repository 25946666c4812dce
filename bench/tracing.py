"""Tracing melroot from outside: spans and counters around its public functions.

Nothing in melroot is edited. A :class:`Tracer` swaps wrappers into every
module namespace that looks a traced name up (``from .x import f`` binds
``f`` at import, so patching the defining module alone misses those
callers) and restores the originals on exit. ``z``, the reference oracles
and the prefactors are reached through the model's dataclasses, so those are
wrapped by :func:`dataclasses.replace` on the model instead.

Each span records its name, start, end and parent span. Spans are kept in
memory and written out by the caller when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path



class Tracer:
    def __init__(self, mr):
        self.mr = mr
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.kernel_samples: list[tuple] = []  # (contour, phi, kernel value)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call records a span. ``name`` may be a
        function of the call's positional arguments."""
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            label = name(args, kwargs) if callable(name) else name
            spans.append([label, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[label + ".raised"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, name, fn, points: bool = False):
        """Wrap ``fn`` to count calls (and the size of its first argument,
        an array or a scalar, as ``<name>.points`` when ``points``)."""
        counts, calls_key, points_key = self.counts, name + ".calls", name + ".points"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if points:
                counts[points_key] += getattr(args[0], "size", 1)
            return fn(*args, **kwargs)

        return wrapper

    # -- model and module patching -----------------------------------------

    def wrap_model(self, ff):
        """Copy of the FactoredFunction with z, f, f', K and K' traced."""
        zf = replace(ff.zf, z=self.counter("mellin.z", ff.zf.z, points=True))
        return replace(
            ff,
            zf=zf,
            K=self.span("zeta.prefactor", ff.K),
            Kprime=self.span("zeta.prefactor", ff.Kprime),
            f_reference=self.span("zeta.reference", ff.f_reference),
            fprime_reference=self.span("zeta.reference", ff.fprime_reference),
        )

    def _patch(self, owner, attr, lookups, make):
        """Swap ``make(owner.attr)`` into every module of ``lookups`` that
        binds that same function. A name that a later melroot drops is
        skipped, so its layer reports 0 calls instead of breaking the run."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        wrapper = make(fn)
        for mod in lookups:
            if getattr(mod, attr, None) is fn:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def __enter__(self):
        mr = self.mr
        q, mel, con, num, exs, zet, cli = (
            mr.quadrature, mr.mellin, mr.contour, mr.numerics, mr.expsum, mr.zeta, mr.cli
        )
        counts, span = self.counts, self.span

        def add_evals(args, result):
            counts["quadrature.semi_infinite.evals"] += result.evals

        def add_nodes(args, result):
            counts["quadrature.periodic.nodes"] += args[1]

        def keep_kernel(args, result):
            self.kernel_samples.append((args[1], args[2], result))

        def order(prefix):
            return lambda a, kw: f"{prefix}.k{a[1] if len(a) > 1 else kw['k']}"

        self._patch(q, "integrate_semi_infinite", (q, mel), lambda f: span("quadrature.semi_infinite", f, add_evals))
        self._patch(q, "integrate_periodic", (q, con), lambda f: span("quadrature.periodic", f, add_nodes))
        # _sign_factor imports mellin.transform at call time, so the module
        # attribute is the only place to catch it.
        self._patch(mel, "transform", (mel,), lambda f: span("mellin.transform", f))
        self._patch(mel, "power_transform", (mel, con, cli), lambda f: span(order("mellin.power_transform"), f))
        self._patch(mel, "deriv_times_power", (mel, con), lambda f: span(order("mellin.deriv_times_power"), f))
        self._patch(con, "kernel_mellin", (con, cli), lambda f: span("contour.kernel_mellin", f, keep_kernel))
        self._patch(con, "integrand_direct", (con,), lambda f: span("contour.integrand_direct", f))
        self._patch(con, "count_pipeline", (con, cli), lambda f: span("contour.count_pipeline", f))
        self._patch(con, "count_direct", (con, cli), lambda f: span("contour.count_direct", f))
        self._patch(num, "csgn", (con, exs, cli), lambda f: self.counter("numerics.csgn", f))
        self._patch(num, "log_gamma", (zet,), lambda f: span("numerics.log_gamma", f))
        self._patch(num, "digamma", (zet,), lambda f: span("numerics.digamma", f))
        self._patch(zet, "zeta_reference", (cli,), lambda f: span("zeta.reference", f))
        self._patch(exs, "inv_approx", (exs, con), lambda f: span("expsum.inv_approx", f))
        self._patch(exs, "error_grid", (cli,), lambda f: span("expsum.error_grid", f))
        self._patch(cli, "main", (cli,), lambda f: span("cli.main", f))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    # -- results ------------------------------------------------------------

    def layer_stats(self) -> tuple[Counter, defaultdict]:
        """(calls per span name, self seconds per span name). Calls count the
        spans that returned; ``<name>.raised`` in :attr:`counts` counts the
        rest. Self time is a span's duration minus the durations of its
        direct children, raised spans included."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for name, parent, start, end in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        for name in calls:
            calls[name] -= self.counts[name + ".raised"]
        return calls, self_s

    def write(self, path: Path) -> None:
        """Write the spans as JSON: times relative to the first span start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "parent", "start_s", "end_s"], "spans": rows}))
