"""Spans and counts around the program's layers, from outside the program.

Tracer.install() replaces module attributes of the `perfprior` package by
wrappers that record a span (name, op, start, end, parent) and counts. A
function imported by name is wrapped where its caller looks it up: for
example `evaluation.inject`, not `noise.inject`. Nothing in the package
changes on disk; the wrappers live only in the traced process.

Self time of a span is its duration minus the durations of the spans it
directly contains. Every per-layer metric is a total over the traced run
divided by the number of fits the run completed.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# every per-layer metric, in the order BENCHMARK.json lists them; metric
# names start with a letter, so the `_core` module's metrics are `core.*`
LAYER_METRICS = (
    "cli.self_ms",
    "dataset.load_ms",
    "dataset.load_calls",
    "dataset.aggregate_ms",
    "dataset.aggregate_calls",
    "dataset.subset_ms",
    "dataset.subset_calls",
    "benchgen.simulate_ms",
    "noise.inject_ms",
    "noise.inject_calls",
    "noise.measurements",
    "pipelines.self_ms",
    "priors.effort_search_ms",
    "priors.effort_search_calls",
    "priors.effort_distinct_ratio",
    "priors.derive_ms",
    "priors.time_fit_ms",
    "modeler.search_self_ms",
    "modeler.search_calls",
    "modeler.family_build_ms",
    "modeler.family_build_calls",
    "modeler.fit_ms",
    "modeler.fit_calls",
    "modeler.hypotheses_scored",
    "pmnf.design_matrix_ms",
    "pmnf.design_matrix_calls",
    "core.loo_line_ms",
    "core.loo_line_calls",
    "core.loo_grid_ms",
    "core.loo_grid_calls",
    "core.loo_rescues",
    "core.fit_ols_ms",
    "evaluation.metrics_ms",
    "evaluation.self_ms",
)


class Tracer:
    """In-memory spans and counts of one traced run."""

    def __init__(self, grid_points: int):
        # a LOO stack with this many rows scores the full grid; fewer rows
        # mean one grid line along one axis
        self.grid_points = grid_points
        self.spans: list = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.op = -1
        self._stack: list[list] = []
        self._effort_inputs: set = set()

    # -- recording -----------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[idx] = (name, self.op, start, end, parent)
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def begin_op(self, op: int) -> None:
        self.op = op
        self._effort_inputs = set()

    def end_op(self) -> None:
        # effort inputs repeated within one op are work a cached prior
        # would skip; distinct inputs are the work it cannot
        self.counts["effort_distinct"] += len(self._effort_inputs)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries of the imported `perfprior` package."""
        from perfprior import (
            _core,
            benchgen,
            cli,
            evaluation,
            modeler,
            pipelines,
            priors,
        )

        self._wrap(cli, "main", "cli")
        self._wrap(cli, "load_experiment", "dataset.load")
        self._wrap(pipelines, "aggregate", "dataset.aggregate")
        self._wrap(priors, "aggregate", "dataset.aggregate")
        self._wrap(evaluation, "subset_repetitions", "dataset.subset")
        self._wrap(benchgen, "simulate_measurements", "benchgen.simulate")
        self._wrap(cli, "run_pipeline", "pipelines.run")
        self._wrap(evaluation, "run_pipeline", "pipelines.run")
        self._wrap(pipelines, "search", "modeler.search")
        self._wrap(pipelines, "build_swc_model", "priors.build_swc")
        self._wrap(priors, "derive_computation_prior", "priors.derive")
        self._wrap(priors, "derive_communication_prior", "priors.derive")
        self._wrap(priors, "fit_skeleton_to_time", "priors.time_fit")
        self._wrap(modeler, "single_param_hypotheses", "modeler.family_build")
        self._wrap(modeler, "fit_coefficients", "modeler.fit")
        self._wrap(modeler, "design_matrix", "pmnf.design_matrix")
        self._wrap(_core, "fit_ols", "_core.fit_ols")
        self._wrap(evaluation, "noise_robustness_study", "evaluation.study")
        self._wrap(evaluation, "repetition_study", "evaluation.study")
        self._wrap(evaluation, "deviation_from_truth", "evaluation.metrics")
        self._wrap(evaluation, "relative_error", "evaluation.metrics")

        effort_search = priors.search

        def traced_effort_search(data, space):
            self._effort_inputs.add((tuple(sorted(data.items())), space))
            return self.span("priors.effort_search", effort_search, data, space)

        priors.search = traced_effort_search

        inject = evaluation.inject

        def traced_inject(exp, config):
            self.counts["noise.measurements"] += sum(
                len(series.data) * series.repetitions
                for _, metrics in exp.callpaths
                for metric, series in metrics.items()
                if metric == "time_s"
            )
            return self.span("noise.inject", inject, exp, config)

        evaluation.inject = traced_inject

        loo = _core.loo_cv_batch

        def traced_loo(a_stack, y):
            self.counts["hypotheses_scored"] += a_stack.shape[0]
            kind = "grid" if a_stack.shape[1] >= self.grid_points else "line"
            return self.span(f"_core.loo_{kind}", loo, a_stack, y)

        _core.loo_cv_batch = traced_loo

        rescue = _core.loo_cv_slow

        def counted_rescue(a, y):
            self.counts["loo_rescues"] += 1
            return rescue(a, y)

        _core.loo_cv_slow = counted_rescue

    # -- results -------------------------------------------------------

    def layer_metrics(self, fits: int) -> dict[str, float]:
        """Every per-layer metric, per completed fit."""
        ms = lambda seconds: seconds * 1e3 / fits  # noqa: E731
        per_fit = lambda n: n / fits  # noqa: E731
        searches = self.calls["modeler.search"] + self.calls["priors.effort_search"]
        effort = self.calls["priors.effort_search"]
        values = {
            "cli.self_ms": ms(self.self_time["cli"]),
            "dataset.load_ms": ms(self.total["dataset.load"]),
            "dataset.load_calls": per_fit(self.calls["dataset.load"]),
            "dataset.aggregate_ms": ms(self.total["dataset.aggregate"]),
            "dataset.aggregate_calls": per_fit(self.calls["dataset.aggregate"]),
            "dataset.subset_ms": ms(self.total["dataset.subset"]),
            "dataset.subset_calls": per_fit(self.calls["dataset.subset"]),
            "benchgen.simulate_ms": ms(self.total["benchgen.simulate"]),
            "noise.inject_ms": ms(self.total["noise.inject"]),
            "noise.inject_calls": per_fit(self.calls["noise.inject"]),
            "noise.measurements": per_fit(self.counts["noise.measurements"]),
            "pipelines.self_ms": ms(self.self_time["pipelines.run"]),
            "priors.effort_search_ms": ms(self.total["priors.effort_search"]),
            "priors.effort_search_calls": per_fit(effort),
            "priors.effort_distinct_ratio": (
                self.counts["effort_distinct"] / effort if effort else 0.0
            ),
            "priors.derive_ms": ms(self.total["priors.derive"]),
            "priors.time_fit_ms": ms(self.total["priors.time_fit"]),
            "modeler.search_self_ms": ms(
                self.self_time["modeler.search"]
                + self.self_time["priors.effort_search"]
            ),
            "modeler.search_calls": per_fit(searches),
            "modeler.family_build_ms": ms(self.total["modeler.family_build"]),
            "modeler.family_build_calls": per_fit(self.calls["modeler.family_build"]),
            "modeler.fit_ms": ms(self.total["modeler.fit"]),
            "modeler.fit_calls": per_fit(self.calls["modeler.fit"]),
            "modeler.hypotheses_scored": per_fit(self.counts["hypotheses_scored"]),
            "pmnf.design_matrix_ms": ms(self.total["pmnf.design_matrix"]),
            "pmnf.design_matrix_calls": per_fit(self.calls["pmnf.design_matrix"]),
            "core.loo_line_ms": ms(self.total["_core.loo_line"]),
            "core.loo_line_calls": per_fit(self.calls["_core.loo_line"]),
            "core.loo_grid_ms": ms(self.total["_core.loo_grid"]),
            "core.loo_grid_calls": per_fit(self.calls["_core.loo_grid"]),
            "core.loo_rescues": per_fit(self.counts["loo_rescues"]),
            "core.fit_ols_ms": ms(self.total["_core.fit_ols"]),
            "evaluation.metrics_ms": ms(self.total["evaluation.metrics"]),
            "evaluation.self_ms": ms(self.self_time["evaluation.study"]),
        }
        return {name: values[name] for name in LAYER_METRICS}

    def self_table(self, fits: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, self ms and total ms, all per fit."""
        return {
            name: {
                "calls": self.calls[name] / fits,
                "self_ms": self.self_time[name] * 1e3 / fits,
                "total_ms": self.total[name] * 1e3 / fits,
            }
            for name in sorted(self.calls)
        }

    def write(self, path, header: dict, fits: int) -> None:
        """Write the header, the per-span table and every span as JSON."""
        names = sorted(self.calls)
        index = {n: k for k, n in enumerate(names)}
        doc = dict(header)
        doc["span_table"] = self.self_table(fits)
        doc["span_names"] = names
        doc["span_fields"] = ["name", "op", "start_s", "end_s", "parent"]
        doc["spans"] = [
            [index[n], op, round(s, 7), round(e, 7), parent]
            for n, op, s, e, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
