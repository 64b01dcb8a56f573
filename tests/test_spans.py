"""The benchmark's layer tracer still fits the functions it wraps.

``pipebench/spans.py`` replaces gtspq functions by their module attribute and
reads counters off their arguments, e.g. ``run_qaoa``'s layout and params at
positions 1 and 2 and ``exhaustive_ground_state``'s model at position 0. A
rename or a moved argument would break only traced benchmark runs, so one
small traced ``bench`` run here checks the counters.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from gtspq.cli import main

import gen

SPANS = Path(__file__).resolve().parents[1] / "pipebench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_bench_counts_qaoa_cells_and_amplitudes(write_instance, tmp_path):
    spans = _load_spans()
    n, k = 4, 3
    path = write_instance(gen.subsample_instance("5ulysses22_nodes_4", n, k))
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        args = ["bench", str(path), "--backend", "exhaustive,sa,qaoa", "--grid", "2x2"]
        code = main(args + ["--reads", "20", "--shots", "20", "--out", str(tmp_path / "run")])
    finally:
        tracer.unwrap_all()
    assert code == 0
    counts = tracer.counts[tracer.run]
    assert counts["qaoa.cells"] == 4
    assert counts["qaoa.amplitudes"] == 4 * n**k
    assert counts["sampler.exhaustive_states"] == 2 ** (n * k)
