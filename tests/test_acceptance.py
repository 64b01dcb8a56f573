"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. The random-instance battery (criteria 2-4) is generated once per
session and shared; the benchmark-shaped fixtures replicate the standard
experiment groups by (name, N, K).
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from gtspq.baseline import exact_solve, random_tours
from gtspq.bench import build_report
from gtspq.cli import main
from gtspq.instance import tour_cost
from gtspq.preprocess import nn2c_reduce
from gtspq.qaoa import (
    GridConfig,
    PartitionLayout,
    QaoaParams,
    cost_diagonal,
    grid_search,
    run_qaoa,
    sample_shots,
)
from gtspq.qubo import build_qubo, decode, encode_rows, energy
from gtspq.sampler import exhaustive_ground_state, sa_sample

import gen
from test_qaoa import dense_simulate, subspace_index_in_dense


# --- shared battery of random instances (criteria 2, 3, 4) ---------------------


@pytest.fixture(scope="module")
def random_battery():
    """>= 100 random instances with N*K <= 20 and strictly positive weights."""
    rng = np.random.default_rng(20_240_817)
    battery = []
    for _ in range(100):
        n, k = gen.random_small_shape(rng)
        seed = int(rng.integers(1 << 31))
        battery.append(gen.make_random_instance(seed, n, k, symmetric=False, low=1))
    return battery


def _all_rows(width):
    """Every 0/1 row of the given width, in index order, as float64."""
    shifts = np.arange(width - 1, -1, -1)
    return ((np.arange(1 << width)[:, None] >> shifts) & 1).astype(np.float64)


def _scan_all_bitstrings(inst, model):
    """Split-half sweep over all 2^(N*K) bitstrings.

    Returns (max feasible energy, min infeasible energy). A state is a
    leading half h and a trailing half l of the variables, and its energy is
    offset + h^T Q_hh h + l^T Q_ll l + h^T Q_hl l. Feasibility here is an
    independent check (step one-hot + cluster one-hot): the two halves' bit
    counts per step and per cluster must add to exactly 1. The battery has no
    zero-weight edges, so no edge test is needed.
    """
    n, k, nv = model.n, model.k, model.num_vars
    q = model.q
    # slots 0..k-1 count the bits of each step, slots k..2k-1 those of each cluster
    slots = np.zeros((nv, 2 * k))
    for m, cluster in enumerate(inst.clusters):
        for c in range(k):
            for i in cluster:
                slots[c * n + i, [c, k + m]] = 1.0
    split = nv // 2
    halves = []
    for lo, hi in ((0, split), (split, nv)):
        rows = _all_rows(hi - lo)
        counts = rows @ slots[lo:hi]
        # a half with a count above 1 has no feasible partner; else its 0/1 counts as a bit mask
        mask = np.where((counts <= 1).all(axis=1), counts @ (1 << np.arange(2 * k)), -1)
        halves.append((rows, np.einsum("ij,ij->i", rows @ q[lo:hi, lo:hi], rows), mask))
    (h, e_h, mask_h), (l, e_l, mask_l) = halves
    energies = model.offset + e_h[:, None] + e_l[None, :] + (h @ q[:split, split:]) @ l.T
    want = np.where(mask_h >= 0, ((1 << 2 * k) - 1) - mask_h, -2)  # the complementary mask
    feasible = want[:, None] == mask_l[None, :]
    return float(energies[feasible].max()), float(energies[~feasible].min())


def _all_feasible_tours(inst):
    for choice in itertools.product(*inst.clusters):
        for perm in itertools.permutations(choice):
            yield perm


# --- criteria -------------------------------------------------------------------


def test_criterion_01_qubit_count_fixtures():
    """Benchmark-group fixtures build to exactly N*K variables."""
    for name, n, k in gen.SUBSAMPLE_SMALL + gen.SUBSAMPLE_MEDIUM:
        inst = gen.subsample_instance(name, n, k)
        model = build_qubo(inst)
        assert model.num_vars == n * k, name
    spot = {"6fri26_nodes_4": 12, "11ft53_nodes_13": 52, "20gr96_nodes_5": 20}
    for name, n, k in gen.SUBSAMPLE_SMALL + gen.SUBSAMPLE_MEDIUM:
        if name in spot:
            assert build_qubo(gen.subsample_instance(name, n, k)).num_vars == spot[name]
    for name, reduced_n, og_n, k in gen.PREPROCESS_SMALL + gen.PREPROCESS_MEDIUM:
        original = gen.preprocess_original(name, reduced_n, og_n, k)
        reduced, _ = nn2c_reduce(original)
        model = build_qubo(reduced)
        assert model.num_vars == reduced_n * k, name
    reduced, _ = nn2c_reduce(gen.preprocess_original("20kroA100", 20, 100, 20))
    assert build_qubo(reduced).num_vars == 400


def test_criterion_02_feasible_energy_identity(random_battery):
    """The energy of a feasible tour's row equals its cyclic tour cost."""
    checked = 0
    for inst in random_battery:
        model = build_qubo(inst)
        for tour in _all_feasible_tours(inst):
            row = encode_rows(inst.n, [tour])[0]
            assert abs(energy(model, row) - tour_cost(inst, tour)) <= 1e-9
            checked += 1
    assert checked > 1000


def test_criterion_03_penalty_separation(random_battery):
    """Exhaustively: the cheapest infeasible state beats no feasible state."""
    for inst in random_battery:
        model = build_qubo(inst)
        max_feasible, min_infeasible = _scan_all_bitstrings(inst, model)
        assert min_infeasible > max_feasible, inst.name


def test_criterion_04_ground_state_correctness(random_battery):
    """The exhaustive minimum decodes to a feasible tour at the exact optimum."""
    for inst in random_battery:
        model = build_qubo(inst)
        ground = exhaustive_ground_state(model)
        bits, gs_energy = ground.entries[0], float(ground.energies[0])
        verdict = decode(model, inst, bits)
        assert verdict.feasible, inst.name
        optimal = exact_solve(inst).cost
        assert abs(tour_cost(inst, verdict.tour) - optimal) <= 1e-9
        assert abs(gs_energy - optimal) <= 1e-9


def test_criterion_05_sa_matches_ground_state():
    """Best of 1500 annealing reads hits the exhaustive optimum, seeds 0..9."""
    for name, n, k in gen.SUBSAMPLE_SMALL:
        inst = gen.subsample_instance(name, n, k)
        model = build_qubo(inst)
        assert model.num_vars <= 20
        gs_energy = exhaustive_ground_state(model).energies[0]
        for seed in range(10):
            best = sa_sample(model, num_reads=1500, seed=seed).energies[0]
            assert abs(best - gs_energy) <= 1e-9, (name, seed)


def test_criterion_06_qaoa_subspace_invariants():
    """Norm drift < 1e-9, all shots step-one-hot, dense-simulator agreement."""
    rng = np.random.default_rng(99)
    shapes = [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)]
    models = {}
    for n, k in shapes:
        inst = gen.make_random_instance(int(rng.integers(1 << 31)), n, k)
        models[(n, k)] = (inst, build_qubo(inst), PartitionLayout(n, k))
    for draw in range(1000):
        n, k = shapes[draw % len(shapes)]
        inst, model, layout = models[(n, k)]
        params = QaoaParams(
            gamma=float(rng.uniform(0, math.pi)),
            beta=float(rng.uniform(0, math.pi / 2)),
        )
        seed = int(rng.integers(1 << 31))
        state = run_qaoa(model, layout, params, seed=seed)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9
        shots = sample_shots(state, cost_diagonal(model), shots=40, seed=seed)
        assert shots.counts.sum() == 40
        assert (shots.entries.reshape(-1, k, n).sum(axis=2) == 1).all()
    # dense full-space agreement for N*K <= 12
    for n, k in shapes:
        if n * k > 12:
            continue
        inst, model, layout = models[(n, k)]
        for trial in range(4):
            params = QaoaParams(
                gamma=float(rng.uniform(0.05, math.pi)),
                beta=float(rng.uniform(0.05, math.pi / 2)),
            )
            seed = int(rng.integers(1 << 31))
            state = run_qaoa(model, layout, params, seed=seed).reshape(-1)
            init = run_qaoa(model, layout, QaoaParams(0.0, 0.0), seed=seed)
            init_tuple = tuple(
                int(x)
                for x in np.unravel_index(int(np.argmax(np.abs(init))), layout.shape)
            )
            dense = dense_simulate(model, layout, params, init_tuple)
            for flat in range(layout.dim):
                assert state[flat] == pytest.approx(
                    dense[subspace_index_in_dense(layout, flat)], abs=1e-8
                )


def test_criterion_07_qaoa_end_to_end_small_instances():
    """Grid search samples the optimal tour (best_shot_ar = 1.0) in >= 9 of 10
    seeded runs on every small fixture."""
    for name, n, k in gen.SUBSAMPLE_SMALL:
        inst = gen.subsample_instance(name, n, k)
        model = build_qubo(inst)
        exact = exact_solve(inst)
        hits = 0
        for seed in range(10):
            result = grid_search(model, GridConfig(shots=1500), seed, inst)
            _, random_costs = random_tours(inst, 100, seed=seed)
            report = build_report(
                inst, model, {"qaoa": result.search_samples}, exact, random_costs.tolist()
            )
            if report.backends["qaoa"].best_shot_ar == 1.0:
                hits += 1
        assert hits >= 9, f"{name}: {hits}/10"


def test_criterion_08_nn2c_bound_on_every_fixture():
    """K' = K, N' <= 2K, and repeated runs agree, on every fixture shape."""
    fixtures = [
        gen.subsample_instance(name, n, k)
        for name, n, k in gen.SUBSAMPLE_SMALL + gen.SUBSAMPLE_MEDIUM
    ] + [
        gen.preprocess_original(name, rn, og, k)
        for name, rn, og, k in gen.PREPROCESS_SMALL + gen.PREPROCESS_MEDIUM
    ]
    for inst in fixtures:
        first, rec1 = nn2c_reduce(inst)
        second, rec2 = nn2c_reduce(inst)
        assert first == second and rec1 == rec2
        assert first.k == inst.k
        assert first.n <= 2 * inst.k


def test_criterion_09_metric_identities():
    """AR(x, x) = 1, best_shot_ar = max of the distribution, and random tours
    never beat the optimum (fixtures with K <= 7, where the exact optimum is
    computed directly)."""
    from gtspq.bench import approximation_ratio

    for x in (1.0, 3.5, 157.0, 1e6):
        assert approximation_ratio(x, x) == 1.0
    fixtures = [
        gen.subsample_instance(name, n, k)
        for name, n, k in gen.SUBSAMPLE_SMALL + gen.SUBSAMPLE_MEDIUM
        if k <= 7
    ]
    for name, rn, og, k in gen.PREPROCESS_SMALL + gen.PREPROCESS_MEDIUM:
        if k <= 7:
            reduced, _ = nn2c_reduce(gen.preprocess_original(name, rn, og, k))
            fixtures.append(reduced)
    for inst in fixtures:
        model = build_qubo(inst)
        exact = exact_solve(inst)
        random_costs = random_tours(inst, 500, seed=11)[1].tolist()
        samples = sa_sample(model, num_reads=100, seed=1)
        report = build_report(inst, model, {"sa": samples}, exact, random_costs)
        backend = report.backends["sa"]
        if backend.ar_distribution:
            assert backend.best_shot_ar == max(backend.ar_distribution)
        assert report.mean_random_cost >= report.optimal_cost - 1e-9
        assert min(random_costs) >= report.optimal_cost - 1e-9


def test_criterion_10_end_to_end_determinism(tmp_path, write_instance):
    """Two bench runs with one seed produce byte-identical report directories."""
    paths = [
        write_instance(gen.subsample_instance("6fri26_nodes_3", 3, 2)),
        write_instance(gen.subsample_instance("5ulysses22_nodes_4", 4, 3)),
        write_instance(gen.subsample_instance("9p43_nodes_5", 5, 3)),
    ]
    args = [
        "bench",
        *[str(p) for p in paths],
        "--backend",
        "exhaustive,sa,qaoa",
        "--reads",
        "300",
        "--shots",
        "200",
        "--grid",
        "4x4",
        "--seed",
        "7",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0

    def snapshot(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "config.json"  # embeds the out path
        }

    snap_a, snap_b = snapshot(out_a), snapshot(out_b)
    assert snap_a == snap_b
    assert any(name.startswith("report/") for name in snap_a)
    group = json.loads((out_a / "report" / "group.json").read_text())
    assert len(group["instances"]) == 3
