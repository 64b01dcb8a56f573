"""Tests of the benchmark's own code.

    python3 -m pytest pipebench/test_pipebench.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stub  # noqa: E402
from gtspq import preprocess, qubo  # noqa: E402
from gtspq.instance import parse_gtsplib  # noqa: E402


def _cell(rate, best, failure=None):
    return {"feasible_shot_rate": rate, "best_shot_ar": best, "failure": failure,
            "ar_distribution": [], "mean_solver_cost": None, "mean_random_cost": 1.0,
            "optimal_cost": 1.0, "wall_time_s": None}


def _write_run(tmp_path: Path, cells: dict, reads: dict) -> Path:
    """A run directory with report/group.json, report/feasibility.csv and
    raw sample files; cells maps instance -> backend -> cell."""
    run = tmp_path / "run"
    (run / "report").mkdir(parents=True)
    rows = ["instance,backend,feasible_pct,failure"]
    instances = []
    for index, (name, backends) in enumerate(cells.items()):
        raw = run / "raw" / f"{index:03d}_{name}"
        raw.mkdir(parents=True)
        for key, cell in sorted(backends.items()):
            rows.append(f"{name},{key},{100.0 * cell['feasible_shot_rate']!r},{cell['failure'] or ''}")
            (raw / f"samples_{key}.json").write_text(
                json.dumps({"backend": key, "num_reads": reads[key], "failure": None, "entries": []}))
        instances.append({"instance": {"name": name}, "backends": backends})
    (run / "report" / "feasibility.csv").write_text("\n".join(rows) + "\n")
    (run / "report" / "group.json").write_text(json.dumps({"instances": instances}))
    return run


def test_quality_metrics_count_failed_cells_as_zero(tmp_path):
    run = _write_run(tmp_path, {
        "a": {"sa": _cell(0.25, 1.0), "qaoa": _cell(0.5, 0.8)},
        "b": {"sa": _cell(0.0, None, "invalid_tour"), "qaoa": _cell(0.1, 0.6)},
    }, reads={"sa": 100, "qaoa": 1500})
    tally = outputs.Tally()
    outputs.tally_run(tally, run, ["sa", "qaoa"], exit_code=0, instances=2)
    q = outputs.quality_metrics(tally)
    assert q["failed_cell_frac"][:2] == (0.25, "ratio")
    assert q["failed_cell_frac"][2] == "1/4 cells"
    assert q["feasible_pct.sa"][0] == pytest.approx(100.0 * 25 / 200)
    assert q["feasible_pct.sa"][2] == "25/200 shots"
    assert q["feasible_pct.qaoa"][0] == pytest.approx(100.0 * (750 + 150) / 3000)
    assert q["best_ar.sa"][0] == pytest.approx(0.5)  # (1.0 + 0) / 2, not 1.0 over survivors
    assert q["best_ar.qaoa"][0] == pytest.approx(0.7)
    assert q["best_ar.external"][:1] == (0.0,) and q["feasible_pct.external"][2] == "0/0 shots"


def test_nonzero_exit_fails_every_cell_of_the_invocation(tmp_path):
    tally = outputs.Tally()
    outputs.tally_run(tally, tmp_path / "missing", ["exhaustive", "qaoa"], exit_code=2, instances=3)
    q = outputs.quality_metrics(tally)
    assert q["failed_cell_frac"][0] == 1.0 and q["failed_cell_frac"][2] == "6/6 cells"
    assert q["best_ar.qaoa"][0] == 0.0 and q["feasible_pct.qaoa"][2] == "0/0 shots"


def test_feasibility_rows_out_of_step_raise(tmp_path):
    run = _write_run(tmp_path, {"a": {"sa": _cell(0.5, 1.0)}, "b": {"sa": _cell(0.5, 1.0)}},
                     reads={"sa": 10})
    csv_path = run / "report" / "feasibility.csv"
    header, first, second = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join([header, second, first]) + "\n")
    with pytest.raises(ValueError, match="out of step"):
        outputs.tally_run(outputs.Tally(), run, ["sa"], exit_code=0, instances=2)


def _span(name, start, end, parent, run=0):
    return spans.Span(name, start, end, parent, run)


def test_self_times_subtract_direct_children_only():
    recorded = [
        _span("outer", 1.0, 9.0, None),   # 8 long, children cover 5
        _span("mid", 2.0, 6.0, 0),        # 4 long, child covers 1
        _span("leaf", 3.0, 4.0, 1),
        _span("leaf", 7.0, 8.0, 0),
        _span("outer", 10.0, 11.0, None, run=1),
    ]
    own = spans.self_times(recorded)
    assert own[0] == {"outer": pytest.approx(3.0), "mid": pytest.approx(3.0), "leaf": pytest.approx(2.0)}
    assert own[1] == {"outer": pytest.approx(1.0)}
    cli_self = spans.uncovered(recorded, 0, 0.0, 12.0)
    assert cli_self == pytest.approx(4.0)
    # layer self times plus the uncovered part add up to the interval
    assert sum(own[0].values()) + cli_self == pytest.approx(12.0)
    assert spans.nesting_errors(recorded, {0: (0.0, 12.0), 1: (10.0, 11.0)}) == []


def test_nesting_errors_flag_overlap_and_escape():
    recorded = [
        _span("a", 1.0, 5.0, None),
        _span("b", 4.0, 6.0, None),   # overlaps its sibling
        _span("c", 3.0, 7.0, 0),      # leaves its parent
    ]
    errors = spans.nesting_errors(recorded, {0: (0.0, 10.0)})
    assert any("overlaps" in e for e in errors)
    assert any("outside" in e for e in errors)


def test_tracer_records_parents_counts_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner = mod.inner
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "layer.inner_s", lambda tr, r, a, k: tr.count("layer.calls"))
    tracer.wrap(mod, "outer", "layer.outer_s")
    tracer.run = 3
    assert mod.outer(1) == 4
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("layer.outer_s", None, 3), ("layer.inner_s", 0, 3)]
    assert tracer.counts[3]["layer.calls"] == 1
    tracer.unwrap_all()
    assert mod.inner is original_inner


def test_bench_s_sums_each_invocations_fastest_round():
    rounds = [[3.0, 1.0, 7.0], [2.0, 4.0, 6.5], [5.0, 0.5, 9.0]]  # round -> invocation times
    assert run.fastest_sum(rounds) == pytest.approx(2.0 + 0.5 + 6.5)
    assert run.fastest_sum([[4.0], [3.5]]) == pytest.approx(3.5)


def test_workload_invocations_per_file_except_anneal():
    anneal = run.invocations("anneal-medium", 1)
    assert len(anneal) == 1 and len(anneal[0].specs) == len(inputs.SUBSAMPLE_MEDIUM)
    invs = run.invocations("qaoa-nn2c", 1)
    assert all(len(inv.specs) == 1 for inv in invs)
    assert len({inv.label for inv in invs}) == len(invs)
    # 10 small and 7 medium QAOA shapes, then the 12 originals with K <= 9
    assert [inv.backends for inv in invs] == (
        [("exhaustive", "qaoa")] * 10 + [("qaoa",)] * 7 + [("external",)] * 12)


def test_coo_energy_is_offset_plus_dense_quadratic_form():
    coo = "# qubo coo v1\n# n_vars 3 offset 2.5 lambda 9.0 n 3 k 1\n0 0 -1.0\n2 2 4.0\n0 1 3.0\n0 2 0.5\n"
    assert outputs.coo_energy(coo, "101") == 2.5 - 1.0 + 4.0 + 0.5
    assert outputs.coo_energy(coo, "110") == 2.5 - 1.0 + 3.0
    with pytest.raises(ValueError):
        outputs.coo_energy(coo, "10")


def test_tree_digest_and_differences(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "sub" / "x.txt").write_text("same")
    assert outputs.tree_digest(a) == outputs.tree_digest(b)
    (b / "sub" / "x.txt").write_text("other")
    (b / "y.txt").write_text("new")
    assert outputs.tree_digest(a) != outputs.tree_digest(b)
    assert outputs.tree_differences(a, b) == ["extra y.txt", "differs sub/x.txt"]


# --- inputs and stub against gtspq itself ----------------------------------------


def _parse(name, shape):
    return parse_gtsplib(inputs.gtsplib_text(name, *shape))


@pytest.mark.parametrize("row", inputs.PREPROCESS_SMALL + inputs.PREPROCESS_MEDIUM)
def test_nn2c_reduces_originals_to_the_table_size(row):
    name, reduced_n, original_n, k = row
    for draw in (0, 1):
        inst = _parse(name, inputs.preprocess_original(name, reduced_n, original_n, k, seed=7, draw=draw))
        assert (inst.n, inst.k) == (original_n, k)
        reduced, _ = preprocess.nn2c_reduce(inst)
        assert reduced.n == reduced_n


def test_inputs_depend_on_the_seed_only():
    one = inputs.subsample_shape("20gr96_nodes_16", 16, 7, seed=1)
    again = inputs.subsample_shape("20gr96_nodes_16", 16, 7, seed=1)
    other = inputs.subsample_shape("20gr96_nodes_16", 16, 7, seed=2)
    assert (one[0] == again[0]).all() and one[1] == again[1]
    assert not (one[0] == other[0]).all()
    assert one[0][~np.eye(16, dtype=bool)].min() >= 10  # no absent edges


def test_stub_answers_with_feasible_and_cluster_violating_reads():
    original = _parse("7ftv33", inputs.preprocess_original("7ftv33", 12, 34, 7, seed=3))
    inst, _ = preprocess.nn2c_reduce(original)  # five clusters keep two nodes
    model = qubo.build_qubo(inst)
    request = qubo.to_json_dict(model)
    assert sorted(map(sorted, stub.clusters_from_model(request))) == sorted(map(sorted, inst.clusters))
    response = stub.sample_response(request, 400, np.random.default_rng(0))
    verdicts = {}
    for entry in response["entries"]:
        v = qubo.decode(model, inst, entry["bits"])
        verdicts[v.violation] = verdicts.get(v.violation, 0) + entry["count"]
    assert set(verdicts) == {None, qubo.VIOLATION_CLUSTER}
    assert sum(verdicts.values()) == 400
    assert 150 < verdicts[None] < 250


def test_output_errors_flag_ar_and_energy_violations(tmp_path):
    run = _write_run(tmp_path, {
        "a": {"exhaustive": _cell(1.0, 0.9), "sa": _cell(0.5, 1.1)},
    }, reads={"exhaustive": 1, "sa": 10})
    raw = next((run / "raw").iterdir())
    (raw / "model.coo").write_text("# qubo coo v1\n# n_vars 2 offset 1.0 lambda 5.0 n 2 k 1\n0 0 2.0\n0 1 3.0\n")
    (raw / "samples_sa.json").write_text(json.dumps({"entries": [{"bits": "11", "count": 1, "energy": 6.0}]}))
    (raw / "samples_exhaustive.json").write_text(json.dumps({"entries": [{"bits": "10", "count": 1, "energy": 4.0}]}))
    assert outputs.output_errors(run) == [
        "a/exhaustive: best_shot_ar 0.9 != 1.0",
        "a/sa: best_shot_ar 1.1 > 1",
        "000_a/samples_exhaustive.json: best energy 4.0, dense model.coo evaluation 3.0",
    ]
