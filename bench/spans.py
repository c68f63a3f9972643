"""Spans and counts around the program's public functions, recorded from outside.

A :class:`Tracer` replaces a function at the module attribute the program
calls it through (``mgpkit.mgp.cov_matrix`` is what ``penalized_loglik``
looks up) with a wrapper that records one span per call: name, start, end
and the index of the enclosing span.  Spans stay in memory and are written
out once, when the run ends.  ``uninstall`` puts the original functions back,
so untraced rounds run the program unchanged.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.self_s = Counter()  # span time minus the time of its child spans
        self.total_s = Counter()  # span time, outermost span of each name only
        self._stack = []  # [span index, child time] of the open spans
        self._depth = Counter()
        self._originals = []

    def wrap(self, module, attr: str, name: str, on_result=None, on_args=None):
        """Trace calls of ``module.attr`` under ``name``.

        ``on_result(tracer, args, kwargs, result)`` may add counts after a call;
        ``on_args(tracer, args, kwargs)`` may replace the arguments before it.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(self, args, kwargs)
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append([idx, 0.0])
            self._depth[name] += 1
            self.counts[name + ".calls"] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                end = perf_counter()
                _, child = self._stack.pop()
                self._depth[name] -= 1
                dur = end - start
                self.spans[idx] = (name, start, end, parent)
                self.self_s[name] += dur - child
                if self._depth[name] == 0:
                    self.total_s[name] += dur
                if self._stack:
                    self._stack[-1][1] += dur
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        self._originals.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def snapshot(self) -> dict:
        """Counts and times so far, keyed as '<span>.calls', '<span>.self_s', '<span>.s'."""
        out = dict(self.counts)
        out.update({f"{k}.self_s": v for k, v in self.self_s.items()})
        out.update({f"{k}.s": v for k, v in self.total_s.items()})
        return out

    def write(self, path):
        """Spans as gzipped JSON lines: [name, start, end, parent]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install_mgpkit(tracer: Tracer, mgpkit) -> None:
    """Wrap the public functions of every layer at the attributes the program uses."""
    cli, covkernel, design, mgp, plantsim = (
        mgpkit.cli, mgpkit.covkernel, mgpkit.design, mgpkit.mgp, mgpkit.plantsim)

    def lbfgs_result(tr, args, kwargs, res):
        tr.counts["mgp.lbfgs.nit"] += int(res.nit)
        tr.counts["mgp.lbfgs.nfev"] += int(res.nfev)
        maxiter = kwargs.get("options", {}).get("maxiter")
        if maxiter is not None and res.nit >= maxiter:
            tr.counts["mgp.lbfgs.iter_limit_hits"] += 1

    def count_model_evals(tr, args, kwargs):
        f = args[0]

        def counted(u):
            tr.counts["sensitivity.model_evals"] += 1
            return f(u)

        return (counted,) + tuple(args[1:]), kwargs

    # covkernel: cov_matrix is reached through mgp; cross_cov_block through
    # covkernel (inside cov_matrix) and through mgp (inside predict)
    tracer.wrap(mgp, "cov_matrix", "covkernel.cov_matrix")
    tracer.wrap(covkernel, "cross_cov_block", "covkernel.cross_cov_block")
    tracer.wrap(mgp, "cross_cov_block", "covkernel.cross_cov_block")
    # mgp: fit recurses through the module attribute (prefits, lam="auto",
    # fit_independent), so every nested fit is one more call
    tracer.wrap(mgp, "penalized_loglik", "mgp.penalized_loglik")
    tracer.wrap(mgp, "cholesky", "mgp.cholesky")
    tracer.wrap(mgp, "minimize", "mgp.lbfgs", on_result=lbfgs_result)
    tracer.wrap(mgp, "fit", "mgp.fit")
    tracer.wrap(cli, "fit", "mgp.fit")
    tracer.wrap(mgp, "gls_beta_l1", "mgp.gls_beta_l1")
    tracer.wrap(mgp, "predict", "mgp.predict")
    tracer.wrap(cli, "predict_batch", "mgp.predict_batch")
    tracer.wrap(cli, "model_from_json", "mgp.model_from_json")
    # sensitivity
    tracer.wrap(cli, "elementary_effects", "sensitivity.elementary_effects",
                on_args=count_model_evals)
    # design and plantsim: the benchmark's set-up calls them through their
    # own modules, the CLI through its imported names
    tracer.wrap(design, "maximin_lhs", "design.maximin_lhs")
    tracer.wrap(cli, "maximin_lhs", "design.maximin_lhs")
    tracer.wrap(cli, "write_design_csv", "design.write_design_csv")
    tracer.wrap(cli, "read_design_csv", "design.read_design_csv")
    tracer.wrap(plantsim, "generate_dataset", "plantsim.generate_dataset")
    # cli: argparse binds cmd_* when main() builds its parser, after wrapping
    for cmd in ("cmd_design", "cmd_fit", "cmd_predict", "cmd_sensitivity"):
        tracer.wrap(cli, cmd, f"cli.{cmd}")
    tracer.wrap(cli, "main", "cli.main")
