from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from gtspq.baseline import exact_solve, random_tours
from gtspq.bench import approximation_ratio, build_report, emit, violin_csv
from gtspq.instance import GtspInstance, tour_cost
from gtspq.qubo import build_qubo, decode, encode_rows, rows_to_strs
from gtspq.sampler import Backend, Failure, SampleSet, sa_sample

import gen


def test_approximation_ratio_values():
    assert approximation_ratio(100.0, 100.0) == 1.0
    assert approximation_ratio(100.0, 125.0) == 0.8
    assert approximation_ratio(10.0, 1e6) == pytest.approx(1e-5)
    assert approximation_ratio(10.0, 1e6) > 0
    with pytest.raises(ValueError):
        approximation_ratio(0.0, 5.0)


def _sample_set(entries, num_reads, backend=Backend.SIMULATED_ANNEALING, failure=None):
    """A sample set from (bits, count, energy) triples, read as a sample file."""
    data = {
        "backend": backend.value,
        "num_reads": num_reads,
        "failure": failure.value if failure else None,
        "entries": [{"bits": b, "count": c, "energy": e} for b, c, e in entries],
    }
    return SampleSet.from_json_dict(data, len(entries[0][0]) if entries else 0)


def _bits(n, order) -> str:
    return rows_to_strs(encode_rows(n, [order]))[0]


def _feasible_shot_rate(samples, model, inst):
    exact = exact_solve(inst)
    report = build_report(inst, model, {"sa": samples}, exact.cost, [exact.cost])
    return report["backends"]["sa"]["feasible_shot_rate"]


def test_feasibility_ratio_all_feasible(toy_instance):
    model = build_qubo(toy_instance)
    bits = _bits(2, (0, 1))
    samples = _sample_set([(bits, 30, 10.0)], 30)
    assert _feasible_shot_rate(samples, model, toy_instance) == 1.0


def test_feasibility_ratio_fraction(toy_instance):
    model = build_qubo(toy_instance)
    good = _bits(2, (0, 1))
    samples = _sample_set(
        [(good, 1023, 10.0), ("0" * 4, 477, 44.0)], 1500
    )
    assert _feasible_shot_rate(samples, model, toy_instance) == pytest.approx(0.682)


def test_feasibility_ratio_zero_on_failure(toy_instance):
    model = build_qubo(toy_instance)
    samples = _sample_set([], 0, failure=Failure.COULD_NOT_EMBED)
    assert _feasible_shot_rate(samples, model, toy_instance) == 0.0
    # a failed backend's shots never count, even when some were returned
    good = _bits(2, (0, 1))
    failed = _sample_set([(good, 5, 10.0)], 5, failure=Failure.TIMEOUT)
    assert _feasible_shot_rate(failed, model, toy_instance) == 0.0


def test_feasibility_ratio_exhaustive_census():
    inst = gen.make_random_instance(seed=13, n=4, k=3)
    model = build_qubo(inst)
    entries = []
    census = 0
    for m in range(1 << 12):
        bits = format(m, "012b")
        entries.append((bits, 1, 0.0))
        if decode(model, inst, bits).feasible:
            census += 1
    samples = _sample_set(entries, 1 << 12)
    assert census > 0
    assert _feasible_shot_rate(samples, model, inst) == census / (1 << 12)


def _toy_pipeline(toy_instance, entries, num_reads, failure=None):
    model = build_qubo(toy_instance)
    exact = exact_solve(toy_instance)
    random_costs = random_tours(toy_instance, 100, seed=0)[1].tolist()
    samples = _sample_set(entries, num_reads, failure=failure)
    report = build_report(
        toy_instance, model, {"sa": samples}, exact.cost, random_costs
    )
    return model, report


def test_build_report_every_shot_optimal(toy_instance):
    bits = _bits(2, (0, 1))
    _, report = _toy_pipeline(toy_instance, [(bits, 1500, 10.0)], 1500)
    backend = report["backends"]["sa"]
    assert backend["feasible_shot_rate"] == 1.0
    assert backend["best_shot_ar"] == 1.0
    assert backend["mean_solver_cost"] == report["optimal_cost"] == 10.0
    assert backend["failure"] is None
    assert backend["ar_values"] == [1.0]
    assert backend["ar_counts"] == [1500]


def test_build_report_zero_feasible_is_invalid_tour(toy_instance):
    _, report = _toy_pipeline(toy_instance, [("0000", 1500, 44.0)], 1500)
    backend = report["backends"]["sa"]
    assert backend["failure"] == "invalid_tour"
    assert backend["ar_values"] == backend["ar_counts"] == []
    assert backend["best_shot_ar"] is None
    assert backend["mean_solver_cost"] is None


def test_build_report_propagates_upstream_failure(toy_instance):
    _, report = _toy_pipeline(toy_instance, [], 0, failure=Failure.COULD_NOT_EMBED)
    assert report["backends"]["sa"]["failure"] == "could_not_embed"


def test_build_report_lists_backends_in_sorted_order(toy_instance):
    """Backends come out sorted by key whatever order their sets came in,
    so group.json and every CSV list them in one order."""
    model = build_qubo(toy_instance)
    bits = _bits(2, (0, 1))
    sets = {key: _sample_set([(bits, 3, 10.0)], 3) for key in ("sa", "qaoa", "exhaustive")}
    report = build_report(toy_instance, model, sets, 10.0, [10.0])
    assert list(report["backends"]) == ["exhaustive", "qaoa", "sa"]


def test_build_report_count_weighted_distribution():
    inst = gen.make_random_instance(seed=23, n=4, k=2)
    model = build_qubo(inst)
    exact = exact_solve(inst)
    tours = list(itertools.islice(_feasible_tours(inst), 2))
    entries = [
        (_bits(inst.n, tours[0]), 30, tour_cost(inst, tours[0])),
        (_bits(inst.n, tours[1]), 5, tour_cost(inst, tours[1])),
        ("0" * model.num_vars, 65, 4 * model.lam),
    ]
    random_costs = random_tours(inst, 50, seed=1)[1].tolist()
    report = build_report(inst, model, {"sa": _sample_set(entries, 100)}, exact.cost, random_costs)
    backend = report["backends"]["sa"]
    assert sum(backend["ar_counts"]) == 35  # one count per shot, not per bitstring
    assert backend["feasible_shot_rate"] == pytest.approx(0.35)
    assert backend["best_shot_ar"] == max(backend["ar_values"])
    expected_mean = (
        30 * tour_cost(inst, tours[0]) + 5 * tour_cost(inst, tours[1])
    ) / 35
    assert backend["mean_solver_cost"] == pytest.approx(expected_mean)


def _feasible_tours(inst):
    for choice in itertools.product(*inst.clusters):
        for perm in itertools.permutations(choice):
            yield perm


def test_report_recomputation_oracle(toy_instance):
    """All aggregate fields recomputed from the raw serialized shots agree."""
    model = build_qubo(toy_instance)
    samples = sa_sample(model, num_reads=400, seed=5)
    exact = exact_solve(toy_instance)
    random_costs = random_tours(toy_instance, 200, seed=2)[1].tolist()
    report = build_report(toy_instance, model, {"sa": samples}, exact.cost, random_costs)

    raw = json.loads(gen.sample_text(samples))
    feas = 0
    ars = []
    for item in raw["entries"]:
        verdict = decode(model, toy_instance, item["bits"])
        if verdict.feasible:
            feas += item["count"]
            cost = tour_cost(toy_instance, verdict.tour)
            ars.extend([exact.cost / cost] * item["count"])
    backend = report["backends"]["sa"]
    assert backend["feasible_shot_rate"] == feas / raw["num_reads"]
    assert backend["ar_values"] == sorted(set(ars))
    assert backend["ar_counts"] == [ars.count(v) for v in backend["ar_values"]]
    assert report["mean_random_cost"] == sum(random_costs) / len(random_costs)


def test_invariants_best_shot_and_random_mean(subsample_small_instances):
    for inst in subsample_small_instances[:4]:
        model = build_qubo(inst)
        exact = exact_solve(inst)
        random_costs = random_tours(inst, 300, seed=7)[1].tolist()
        samples = sa_sample(model, num_reads=200, seed=3)
        report = build_report(inst, model, {"sa": samples}, exact.cost, random_costs)
        backend = report["backends"]["sa"]
        if backend["ar_values"]:
            assert backend["best_shot_ar"] == max(backend["ar_values"])
            assert all(0 < ar <= 1 + 1e-12 for ar in backend["ar_values"])
            assert all(c > 0 for c in backend["ar_counts"])
        assert report["mean_random_cost"] >= report["optimal_cost"] - 1e-9


def test_rotations_of_the_optimum_read_ar_one_on_decimal_weights():
    """Every rotation of the exact tour (and, when symmetric, of its reversal)
    costs exact.cost to the last bit, and no feasible shot reads AR > 1."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n, k = 6, 3
        w = rng.integers(1, 100_000, size=(n, n)) / 1000.0
        symmetric = bool(seed % 2)
        if symmetric:
            w = np.triu(w, 1) + np.triu(w, 1).T
        np.fill_diagonal(w, 0.0)
        inst = GtspInstance("d", gen.random_partition(n, k, rng), w, symmetric=symmetric)
        model = build_qubo(inst)
        exact = exact_solve(inst)
        order = exact.tour
        tours = [order[r:] + order[:r] for r in range(k)]
        others = random_tours(inst, 50, seed=seed)[0]
        shots = tours + [order[::-1]] + list(map(tuple, others.tolist()))
        entries = {_bits(inst.n, t): 1 for t in shots}
        samples = _sample_set(
            [(bits, 1, 0.0) for bits in sorted(entries)], len(entries)
        )
        report = build_report(inst, model, {"x": samples}, exact.cost, [exact.cost])
        ars = report["backends"]["x"]["ar_values"]
        assert max(ars) == 1.0 and all(ar <= 1.0 for ar in ars)
        if symmetric:
            tours += [t[::-1] for t in tours]
        assert {tour_cost(inst, t) for t in tours} == {exact.cost}


# --- emission -------------------------------------------------------------------


def test_emit_empty_group(tmp_path):
    emit({"schema": "v4", "name": "empty", "instances": []}, tmp_path)
    assert (tmp_path / "instances.csv").read_text() == "name,n,k,qubits,original_n\n"
    assert (tmp_path / "feasibility.csv").read_text().startswith("instance,backend")
    assert (tmp_path / "violin.csv").read_text() == "index,instance,backend,ar,count\n"
    data = json.loads((tmp_path / "group.json").read_text())
    assert data == {"schema": "v4", "name": "empty", "instances": []}


def test_emit_row_order_and_headers(toy_instance, tmp_path):
    bits = _bits(2, (0, 1))
    _, report = _toy_pipeline(toy_instance, [(bits, 10, 10.0)], 10)
    emit({"schema": "v4", "name": "g", "instances": [report, report]}, tmp_path)
    lines = (tmp_path / "instances.csv").read_text().splitlines()
    assert lines[0] == "name,n,k,qubits,original_n"
    assert len(lines) == 3 and lines[1] == lines[2]
    ar_lines = (tmp_path / "ar.csv").read_text().splitlines()
    assert ar_lines[0] == "instance,backend,best_shot_ar,mean_ar,mean_random_ar"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ar.csv",
        "feasibility.csv",
        "group.json",
        "instances.csv",
        "violin.csv",
    ]
    assert (tmp_path / "violin.csv").read_text().splitlines() == [
        "index,instance,backend,ar,count",
        "0,toy,sa,1.0,10",
        "1,toy,sa,1.0,10",  # the same name at another index: rows of its own
    ]


def test_emit_removes_only_the_v3_violin_csv_files(tmp_path):
    """emit removes the *.csv files a "v3" report left in violin/, and the
    directory only once they were all it held; a file of another kind
    stays, and so does the directory that holds it."""
    group = {"schema": "v4", "name": "g", "instances": []}
    violin = tmp_path / "violin"
    violin.mkdir()
    (violin / "000_toy_sa.csv").write_text("ar,count\n")
    (violin / "notes.txt").write_text("kept\n")
    emit(group, tmp_path)
    assert [p.name for p in violin.iterdir()] == ["notes.txt"]
    (violin / "notes.txt").unlink()
    (violin / "001_toy_qaoa.csv").write_text("ar,count\n")
    emit(group, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ar.csv", "feasibility.csv", "group.json", "instances.csv", "violin.csv"
    ]


_BACKEND_KEYS = (
    "feasible_shot_rate", "ar_values", "ar_counts", "best_shot_ar", "mean_solver_cost", "failure"
)


def _backend(*values) -> dict:
    """A backend's report entry from its values in ``_BACKEND_KEYS`` order."""
    return dict(zip(_BACKEND_KEYS, values, strict=True))


def _group_of(*backends: dict[str, dict]) -> dict:
    """A group of one report per dict of backend entries, named a, b, c,
    each with its backends in sorted order, as ``build_report`` gives them."""
    reports = [
        {
            "schema": "v4",
            "instance": {"name": name, "n": 2, "k": 2, "qubits": 4, "original_n": None},
            "optimal_cost": 1.0,
            "mean_random_cost": 1.0,
            "backends": dict(sorted(b.items())),
        }
        for name, b in zip("abc", backends)
    ]
    return {"schema": "v4", "name": "g", "instances": reports}


def test_violin_csv_rows_are_values_with_counts():
    """One row per distinct AR, by instance, then backend, then AR; a failed
    backend, with no AR values, contributes no row."""
    ars = [2e-7, 0.123456789012345, 1 / 3, 0.8, 1.0]
    report = _backend(1.0, ars, [1, 2, 3, 40, 500], 1.0, 1.0, None)
    other = _backend(1.0, [0.5, 0.75], [7, 3], 0.75, 1.0, None)
    empty = _backend(0.0, [], [], None, None, "invalid_tour")
    group = _group_of({"sa": report, "qaoa": empty, "exhaustive": other}, {"sa": other})
    assert violin_csv(group) == (
        "index,instance,backend,ar,count\n"
        "0,a,exhaustive,0.5,7\n0,a,exhaustive,0.75,3\n"
        "0,a,sa,2e-07,1\n0,a,sa,0.123456789012345,2\n0,a,sa,0.3333333333333333,3\n"
        "0,a,sa,0.8,40\n0,a,sa,1.0,500\n"
        "1,b,sa,0.5,7\n1,b,sa,0.75,3\n"
    )
    assert violin_csv(_group_of({"qaoa": empty})) == "index,instance,backend,ar,count\n"


def test_report_size_does_not_grow_with_shot_count():
    """The same rows with every count scaled by 1000 give the same AR values
    and the same number of violin lines; only the counts scale."""
    inst = gen.make_random_instance(seed=23, n=4, k=2)
    model = build_qubo(inst)
    exact = exact_solve(inst)
    tours = list(itertools.islice(_feasible_tours(inst), 4))
    backends = {}
    for scale in (1, 1000):
        entries = [(_bits(inst.n, t), (i + 1) * scale, 0.0) for i, t in enumerate(tours)]
        entries.append(("0" * model.num_vars, 7 * scale, 0.0))
        samples = _sample_set(entries, 17 * scale)
        report = build_report(inst, model, {"x": samples}, exact.cost, [exact.cost])
        backends[scale] = report["backends"]["x"]
    small, large = backends[1], backends[1000]
    assert small["ar_values"] == large["ar_values"]
    assert large["ar_counts"] == [1000 * c for c in small["ar_counts"]]
    assert sum(small["ar_counts"]) == 10
    lines = [violin_csv(_group_of({"x": b})).count("\n") for b in (large, small)]
    assert lines[0] == lines[1] <= 1 + 5


def test_report_ar_counts_are_exact_past_2_53():
    """Counts 2**53 and 1 on a tour and its reverse (one cost, so one AR)
    merge into 2**53 + 1 shots, which a float64 sum rounds away."""
    inst = gen.make_random_instance(seed=23, n=4, k=2, symmetric=True)
    model = build_qubo(inst)
    exact = exact_solve(inst)
    tour = list(exact.tour)
    entries = [(_bits(inst.n, tour), 2**53, 0.0), (_bits(inst.n, tour[::-1]), 1, 0.0)]
    samples = _sample_set(entries, 2**53 + 1)
    backend = build_report(inst, model, {"x": samples}, exact.cost, [exact.cost])["backends"]["x"]
    assert backend["ar_values"] == [1.0]
    assert backend["ar_counts"] == [2**53 + 1]


def test_emit_json_reingestion_byte_identical(toy_instance, tmp_path):
    bits = _bits(2, (0, 1))
    _, report = _toy_pipeline(toy_instance, [(bits, 7, 10.0)], 7)
    emit({"schema": "v4", "name": "g", "instances": [report]}, tmp_path)
    first = (tmp_path / "group.json").read_bytes()
    reloaded = json.loads(first)
    assert (json.dumps(reloaded, indent=2, sort_keys=True) + "\n").encode() == first
