"""Layer spans recorded from outside gtspq.

The tracer replaces a layer's public function at the module attribute where
its caller looks it up (``gtspq.cli.parse_gtsplib``, because ``cli`` imports
that name; ``gtspq.qubo.energy``, because callers write ``qubo.energy``).
Each call becomes a span (name, start, end, parent, run id) kept in memory;
counters are taken at the same boundary from the call's arguments and
result. Span names are the per-layer metric names, so a layer's metric is
the summed self time of its spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.run = 0
        self.bounds: dict[int, tuple[float, float]] = {}  # run id -> its bench interval
        self.names: list[str] = []  # span names in the order they were first wrapped
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts.setdefault(self.run, Counter())[name] += amount

    def wrap(self, module, attr: str, name: str, on_return=None) -> None:
        """Trace ``module.attr`` as span ``name``; ``on_return(tracer,
        result, args, kwargs)`` records counters after a successful call."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, tracer.run)
            tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(tracer, result, args, kwargs)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        if name not in self.names:
            self.names.append(name)

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, Counter]:
    """Per run id, each span name's summed self time: span duration minus
    the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    out: dict[int, Counter] = {}
    for s, t in zip(spans, own):
        out.setdefault(s.run, Counter())[s.name] += t
    return out


def uncovered(spans: list[Span], run: int, start: float, end: float) -> float:
    """Part of [start, end] that no top-level span of ``run`` covers."""
    return (end - start) - sum(
        s.end - s.start for s in spans if s.run == run and s.parent is None
    )


def nesting_errors(spans: list[Span], bounds: dict[int, tuple[float, float]]) -> list[str]:
    """Spans must sit inside their parent (or their run's interval) and
    siblings must not overlap; otherwise self times would not partition the
    interval."""
    errors = []
    last_end: dict[tuple[int, int | None], float] = {}
    for i, s in enumerate(spans):
        lo, hi = bounds[s.run] if s.parent is None else (spans[s.parent].start, spans[s.parent].end)
        if not lo <= s.start <= s.end <= hi:
            errors.append(f"span {i} ({s.name}) lies outside its parent")
        key = (s.run, s.parent)
        if s.start < last_end.get(key, -float("inf")):
            errors.append(f"span {i} ({s.name}) overlaps its previous sibling")
        last_end[key] = s.end
    return errors


# --- the layer map -------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the gtspq package currently imported."""
    from gtspq import baseline, bench, cli, preprocess, qaoa, qubo, sampler

    sweeps_default = inspect.signature(sampler.default_schedule).parameters["sweeps"].default
    sa_signature = inspect.signature(sampler.sa_sample)

    def calls(counter):
        return lambda tr, result, args, kwargs: tr.count(counter)

    def on_build(tr, model, args, kwargs):
        tr.count("qubo.terms", len(model.quadratic))

    def on_sa(tr, samples, args, kwargs):
        bound = sa_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        model, schedule = bound.arguments["model"], bound.arguments["schedule"]
        sweeps = schedule.sweeps if schedule is not None else sweeps_default
        tr.count("sampler.sa_flip_attempts", samples.num_reads * model.num_vars * sweeps)
        tr.count("sampler.sa_unique_rows", len(samples.entries))
        tr.count("sampler.sa_reads", samples.num_reads)

    def on_exhaustive(tr, result, args, kwargs):
        tr.count("sampler.exhaustive_states", 2 ** args[0].num_vars)

    def on_grid(tr, result, args, kwargs):
        tr.count("qaoa.cells", len(result.cells))

    def on_run_qaoa(tr, state, args, kwargs):
        layout, params = args[1], args[2]
        tr.count("qaoa.amplitudes", layout.dim * params.layers)

    def on_shots(tr, samples, args, kwargs):
        tr.count("qaoa.unique_shots", len(samples.entries))
        tr.count("qaoa.shots", samples.num_reads)

    def on_exact(tr, result, args, kwargs):
        tr.count("baseline.exact_orderings", result.explored_orderings)

    tracer.wrap(cli, "parse_gtsplib", "instance.parse_s", calls("instance.calls"))
    tracer.wrap(cli, "serialize_gtsplib", "instance.serialize_s", calls("instance.calls"))
    tracer.wrap(preprocess, "nn2c_reduce", "preprocess.nn2c_s")
    tracer.wrap(qubo, "build_qubo", "qubo.build_s", on_build)
    tracer.wrap(qubo, "to_json_dict", "qubo.export_s")
    tracer.wrap(qubo, "to_coo_text", "qubo.export_s")
    tracer.wrap(qubo, "energy", "qubo.energy_s", calls("qubo.energy_calls"))
    tracer.wrap(qubo, "decode", "qubo.decode_s", calls("qubo.decode_calls"))
    tracer.wrap(sampler, "sa_sample", "sampler.sa_self_s", on_sa)
    tracer.wrap(sampler, "exhaustive_ground_state", "sampler.exhaustive_s", on_exhaustive)
    tracer.wrap(sampler, "external_sampler_submit", "sampler.external_self_s")
    tracer.wrap(qaoa, "grid_search", "qaoa.grid_self_s", on_grid)
    tracer.wrap(qaoa, "cost_diagonal", "qaoa.diag_s")
    tracer.wrap(qaoa, "run_qaoa", "qaoa.sim_s", on_run_qaoa)
    tracer.wrap(qaoa, "sample_shots", "qaoa.shots_self_s", on_shots)
    tracer.wrap(baseline, "exact_solve", "baseline.exact_s", on_exact)
    tracer.wrap(baseline, "random_tours", "baseline.random_s")
    tracer.wrap(bench, "build_report", "bench.build_report_self_s")
    tracer.wrap(bench, "emit", "bench.emit_s")

