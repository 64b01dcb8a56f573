"""The benchmark's layer tracer still fits the functions it wraps.

``pipebench/spans.py`` replaces gtspq functions by their module attribute and
reads counters off their arguments, e.g. ``run_qaoa``'s layout and params at
positions 1 and 2 and ``exhaustive_ground_state``'s model at position 0. A
rename, a moved argument or a call that bypasses the module attribute would
break only traced benchmark runs, so small traced ``bench`` runs here check
the counters and the spans. Likewise ``pipebench/outputs.py`` reads fields of
the report and raw files by name, so a small run is read through it too.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

from gtspq.cli import main

import gen

PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"


def _load(stem: str):
    spec = importlib.util.spec_from_file_location(f"pipebench_{stem}", PIPEBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_bench_counts_qaoa_cells_and_amplitudes(write_instance, tmp_path):
    spans = _load("spans")
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
    assert counts["baseline.exact_orderings"] == math.factorial(k - 1)
    names = [s.name for s in tracer.spans]
    assert names.count("baseline.exact_s") == 1
    assert names.count("baseline.random_s") == 1  # one draw per instance, at report time


def test_traced_bench_sees_nn2c_and_external(write_instance, tmp_path):
    """The nn2c reduction and the external sampler each record one span."""
    spans, stub = _load("spans"), _load("stub")
    path = write_instance(gen.preprocess_original("4br17", 4, 17, 4))
    server = stub.StubServer(seed=1)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        args = ["bench", str(path), "--reduce", "nn2c", "--backend", "external"]
        code = main(args + ["--reads", "20", "--external-url", server.url, "--out", str(tmp_path)])
    finally:
        tracer.unwrap_all()
        server.close()
    assert code == 0
    names = [s.name for s in tracer.spans]
    assert names.count("preprocess.nn2c_s") == 1
    assert names.count("sampler.external_self_s") == 1


def test_benchmark_reads_a_real_run(write_instance, tmp_path):
    """The benchmark's output checks and quality tally accept a real run."""
    outputs = _load("outputs")
    path = write_instance(gen.subsample_instance("5ulysses22_nodes_4", 4, 3))
    backends = ["exhaustive", "sa", "qaoa"]
    args = ["bench", str(path), "--backend", ",".join(backends), "--grid", "2x2"]
    code = main(args + ["--reads", "20", "--shots", "20", "--out", str(tmp_path)])
    assert code == 0
    assert outputs.output_errors(tmp_path) == []
    tally = outputs.Tally()
    outputs.tally_run(tally, tmp_path, backends, code, 1)
    assert tally.cells == 3
    assert {key: b.shots for key, b in tally.backends.items()} == {
        "exhaustive": 1,
        "sa": 20,
        "qaoa": 20,
    }
    assert tally.backend("exhaustive").ar_sum == 1.0
    assert tally.backend("sa").feasible_shots > 0
