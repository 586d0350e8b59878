"""Spans and counters recorded around calls into vgpricer's public layers.

The tracer replaces module attributes with timing wrappers, so every caller
that looks a function up through its module (the CLI, the pricers calling
each other, the Fourier engine calling the model) goes through the wrapper.
Nothing under ``src/`` changes.

A span is recorded for the outermost call of each name only: gap calls the
two digitals, rn_characteristic_fn calls characteristic_fn, and those inner
calls belong to the outer span.  A span's self time is its duration minus
the durations of its direct child spans.

Counts are taken over the first pass of a run only, which is the same for a
given seed however long the run lasts; times accumulate over the whole run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

_GL_POINTS = 32  # Gauss-Legendre nodes per Fourier panel


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, child seconds, span id, parent id]
        self.active = Counter()
        self.spans = []  # (id, parent id, name, start, end) while keep_spans
        self.keep_spans = True
        self.counting = True
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._next_id = 0
        self._panels = []  # panel counts of the current Fourier price

    # -- span machinery ----------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        parent = self.stack[-1][3] if self.stack else 0
        frame = [name, time.perf_counter(), 0.0, self._next_id, parent]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, span_id, parent = frame
        self.active[name] -= 1
        duration = end - start
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if self.keep_spans:
            self.spans.append((span_id, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, namespaces, attr, name, on_return=None, on_call=None):
        """Replace ``attr`` in every namespace with a span-recording wrapper.

        on_call(args) runs before the call and on_return(args, result, error)
        after it, both only while counting and only for the outermost call.
        """
        fn = getattr(namespaces[0], attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active[name]:
                return fn(*args, **kwargs)
            if tracer.counting and on_call is not None:
                on_call(args)
            frame = tracer._open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                tracer._close(frame)
                if tracer.counting and on_return is not None:
                    on_return(args, result, error)

        for ns in namespaces:
            setattr(ns, attr, wrapper)

    def count_calls(self, namespace, attr, hook):
        """Call hook(args) before each call, without a span."""
        fn = getattr(namespace, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.counting:
                hook(args)
            return fn(*args, **kwargs)

        setattr(namespace, attr, wrapper)

    # -- layer hooks -------------------------------------------------------

    def install(self):
        """Wrap the series, specfun, fourier, model, montecarlo, quadrature and cli layers."""
        from vgpricer import cli, fourier, model, montecarlo, quadrature, series, specfun

        c = self.counts

        def series_done(args, result, error):
            c["series.prices"] += 1
            if error is not None:
                c["series.errors"] += 1
            else:
                c["series.terms"] += result.terms_evaluated

        for fn in (
            "european", "cash_or_nothing", "asset_or_nothing", "asym_cash_or_nothing",
            "gap", "power_asset_or_nothing", "log_call",
        ):
            self.wrap([series], fn, "series", on_return=series_done)
        self.wrap([series], "_kahan_diagonal_sum", "series.reduce")

        def log_gamma_call(args):
            c["specfun.log_gamma.calls"] += 1
            c["specfun.log_gamma.points"] += int(np.size(args[0]))

        self.wrap([specfun], "_log_gamma_signed", "specfun.log_gamma", on_call=log_gamma_call)

        def fourier_start(args):
            self._panels = []

        def fourier_done(args, result, error):
            c["fourier.prices"] += 1
            if error is None:
                c["fourier.evals"] += result.terms_evaluated
            if self._panels:
                c["fourier.refinements"] += len(self._panels) - 1
                c["fourier.final_pass_points"] += self._panels[-1] * _GL_POINTS
                c["fourier.points"] += sum(self._panels) * _GL_POINTS

        for fn in ("lewis_asset_or_nothing", "lewis_cash_or_nothing", "carr_madan_european"):
            self.wrap([fourier], fn, "fourier", on_call=fourier_start, on_return=fourier_done)
        self.count_calls(fourier, "_panel_integral", lambda args: self._panels.append(args[3]))

        def charfn_call(args):
            c["model.charfn.points"] += int(np.size(args[1]))

        for fn in ("characteristic_fn", "rn_characteristic_fn"):
            self.wrap([model], fn, "model.charfn", on_call=charfn_call)
        self.wrap(
            [model], "derive", "model.derive",
            on_call=lambda args: c.update(("model.derive.calls",)),
        )

        self.wrap(
            [montecarlo], "mc_price", "montecarlo",
            on_call=lambda args: c.update({"montecarlo.paths": args[3].n_paths}),
        )
        self.wrap([montecarlo], "_gamma_marsaglia_tsang", "montecarlo.gamma_clock")
        self.wrap([montecarlo], "_terminal_payoff", "montecarlo.payoff")

        self.wrap(
            [quadrature], "gl_european", "quadrature",
            on_call=lambda args: c.update(("quadrature.prices",)),
        )
        self.wrap(
            [quadrature, specfun], "laguerre_rule", "specfun.laguerre_rule",
            on_call=lambda args: c.update(("specfun.laguerre_rule.calls",)),
        )
        self.wrap([cli], "main", "cli")

    # -- results -----------------------------------------------------------

    def metrics(self, first_pass_requests: int, requests: int, time_scale: float) -> dict:
        """{name: (value, unit)}: counts per request over the first pass, self times per request over the run.

        time_scale converts wall time to reference time (run.HostClock).
        """
        c = self.counts
        out = {
            key: (c[key] / first_pass_requests, "B/req" if key == "cli.bytes_out" else "count/req")
            for key in (
                "series.prices", "series.terms", "series.errors",
                "specfun.log_gamma.calls", "specfun.log_gamma.points",
                "fourier.prices", "fourier.evals", "fourier.refinements",
                "model.charfn.points", "model.derive.calls", "montecarlo.paths",
                "quadrature.prices", "specfun.laguerre_rule.calls", "cli.bytes_out",
            )
        }
        share = c["fourier.final_pass_points"] / c["fourier.points"] if c["fourier.points"] else 0.0
        out["fourier.final_pass_share"] = (share, "ratio")
        for key, span in (
            ("series.self_ms", "series"),
            ("series.reduce.ms", "series.reduce"),
            ("specfun.log_gamma.ms", "specfun.log_gamma"),
            ("fourier.self_ms", "fourier"),
            ("model.charfn.ms", "model.charfn"),
            ("model.derive.ms", "model.derive"),
            ("montecarlo.gamma_clock.ms", "montecarlo.gamma_clock"),
            ("montecarlo.payoff.ms", "montecarlo.payoff"),
            ("montecarlo.self_ms", "montecarlo"),
            ("quadrature.self_ms", "quadrature"),
            ("specfun.laguerre_rule.ms", "specfun.laguerre_rule"),
            ("cli.self_ms", "cli"),
        ):
            out[key] = (self.self_s[span] * 1e3 * time_scale / requests, "ms/req")
        return out

    def write(self, path) -> None:
        """Write the kept spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
