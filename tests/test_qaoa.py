from __future__ import annotations

import math

import numpy as np
import pytest

from gtspq.qubo import bits_to_str, build_qubo, encode, energy, from_terms
from gtspq.qaoa import (
    GridConfig,
    QaoaParams,
    StateTooLargeError,
    SubspaceState,
    apply_cost_phase,
    apply_xy_ring_mixer,
    build_layout,
    cost_diagonal,
    grid_search,
    initial_state,
    run_qaoa,
    sample_shots,
)
from gtspq.sampler import Backend, Failure
from gtspq.instance import GtspInstance, Tour

import gen


# --- dense full-space oracle ----------------------------------------------------


def dense_simulate(model, layout, params, init_tuple):
    """Independent 2^(N*K) statevector simulation of the same circuit.

    Cost phases act on every bitstring's full model energy; the mixer applies
    the identical ordered product of two-variable XX+YY rotations, each acting
    as the [[c,-is],[-is,c]] block on the {01, 10} pair of the touched qubits.
    """
    n, k = layout.n, layout.k
    nq = n * k
    dim = 1 << nq
    state = np.zeros(dim, dtype=np.complex128)

    def bits_to_index(bits):
        m = 0
        for b in bits:
            m = (m << 1) | int(b)
        return m

    init_bits = [0] * nq
    for c, node in enumerate(init_tuple):
        init_bits[c * n + node] = 1
    state[bits_to_index(init_bits)] = 1.0

    phases = np.empty(dim, dtype=np.complex128)
    for m in range(dim):
        bits = format(m, f"0{nq}b")
        phases[m] = np.exp(-1j * params.gamma * energy(model, bits))

    c2 = math.cos(2 * params.beta)
    s2 = math.sin(2 * params.beta)
    for _ in range(params.layers):
        state = state * phases
        for t, edges in enumerate(layout.ring_edges):
            for u, v in edges:
                bu = nq - 1 - u  # bit position within the integer index
                bv = nq - 1 - v
                for m in range(dim):
                    if (m >> bu) & 1 and not (m >> bv) & 1:
                        partner = m ^ (1 << bu) ^ (1 << bv)
                        a, b = state[m], state[partner]
                        state[m] = c2 * a - 1j * s2 * b
                        state[partner] = -1j * s2 * a + c2 * b
    return state


def subspace_index_in_dense(layout, flat_index):
    n, k = layout.n, layout.k
    tup = np.unravel_index(flat_index, layout.shape)
    m = 0
    for pos in range(n * k):
        c, i = pos // n, pos % n
        m = (m << 1) | (1 if tup[c] == i else 0)
    return m


# --- layout ----------------------------------------------------------------------


def test_layout_partitions_cover_all_variables():
    layout = build_layout(4, 3)
    flat = [q for p in layout.partitions for q in p]
    assert sorted(flat) == list(range(12))
    assert all(len(p) == 4 for p in layout.partitions)


@pytest.mark.parametrize("n,expected_edges", [(1, 0), (2, 1), (3, 3), (5, 5)])
def test_ring_edge_counts(n, expected_edges):
    layout = build_layout(n, 2)
    assert all(len(edges) == expected_edges for edges in layout.ring_edges)


def test_ring_edges_are_ascending_cycles():
    layout = build_layout(4, 2)
    assert layout.ring_edges[0] == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert layout.ring_edges[1] == ((4, 5), (5, 6), (6, 7), (7, 4))


# --- initial state ----------------------------------------------------------------


def test_initial_state_unique_when_single_node():
    layout = build_layout(1, 3)
    state = initial_state(layout, seed=5)
    assert state.amps.tolist() == [1.0 + 0.0j]


def test_initial_state_deterministic():
    layout = build_layout(3, 2)
    a = initial_state(layout, seed=9)
    b = initial_state(layout, seed=9)
    assert np.array_equal(a.amps, b.amps)


def test_initial_state_uniform_over_basis():
    layout = build_layout(3, 2)
    counts = np.zeros(9)
    trials = 10_000
    for seed in range(trials):
        counts[int(np.argmax(np.abs(initial_state(layout, seed).amps)))] += 1
    expected = trials / 9
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square with 8 degrees of freedom: mean 8, std 4
    assert chi2 <= 8 + 3 * 4


def test_state_too_large_guard():
    with pytest.raises(StateTooLargeError):
        initial_state(build_layout(20, 7), seed=0)


# --- cost diagonal -----------------------------------------------------------------


def test_cost_diagonal_toy_values(toy_instance):
    model = build_qubo(toy_instance)
    layout = build_layout(2, 2)
    diag = cost_diagonal(model, layout).reshape(2, 2)
    assert diag[0, 1] == pytest.approx(10.0)  # the feasible tour (0, 1)
    assert diag[1, 0] == pytest.approx(10.0)
    # same node twice: one cluster double-selected, the other unselected
    assert diag[0, 0] == pytest.approx(2 * model.lam)
    assert diag[1, 1] == pytest.approx(2 * model.lam)


def test_cost_diagonal_matches_energy_per_entry():
    for n, k in ((3, 2), (3, 3), (4, 4)):
        inst = gen.make_random_instance(seed=14, n=n, k=k)
        model = build_qubo(inst)
        layout = build_layout(n, k)
        diag = cost_diagonal(model, layout)
        for flat in range(layout.dim):
            tup = np.unravel_index(flat, layout.shape)
            bits = ["0"] * (n * k)
            for c, node in enumerate(tup):
                bits[c * n + node] = "1"
            assert diag[flat] == pytest.approx(energy(model, "".join(bits)), abs=1e-9)


# --- unitaries ----------------------------------------------------------------------


def _random_state(layout, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps /= np.linalg.norm(amps)
    return SubspaceState(n=layout.n, k=layout.k, amps=amps)


def test_cost_phase_gamma_zero_is_identity():
    layout = build_layout(3, 2)
    state = _random_state(layout, 0)
    diag = np.arange(layout.dim, dtype=float)
    out = apply_cost_phase(state, diag, 0.0)
    assert np.allclose(out.amps, state.amps)


def test_cost_phase_preserves_probabilities_and_expectation():
    layout = build_layout(3, 2)
    diag = np.linspace(0, 5, layout.dim)
    for seed in range(5):
        state = _random_state(layout, seed)
        out = apply_cost_phase(state, diag, 0.817)
        assert np.allclose(np.abs(out.amps) ** 2, np.abs(state.amps) ** 2, atol=1e-12)
        before = float(np.sum(state.probabilities() * diag))
        after = float(np.sum(out.probabilities() * diag))
        assert after == pytest.approx(before, abs=1e-9)


def test_mixer_beta_zero_is_identity():
    layout = build_layout(4, 2)
    state = _random_state(layout, 1)
    out = apply_xy_ring_mixer(state, layout, 0.0)
    assert np.allclose(out.amps, state.amps)


def test_mixer_two_node_partition_swaps_with_phase():
    layout = build_layout(2, 1)
    state = SubspaceState(n=2, k=1, amps=np.array([1.0 + 0j, 0.0 + 0j]))
    out = apply_xy_ring_mixer(state, layout, math.pi / 4)
    assert np.allclose(out.amps, [0.0, -1j])


def test_mixer_unitary_over_many_applications():
    layout = build_layout(4, 3)
    state = _random_state(layout, 2)
    for i in range(100):
        state = apply_xy_ring_mixer(state, layout, 0.05 + 0.01 * i)
    assert state.norm() == pytest.approx(1.0, abs=1e-9)


def test_mixer_preserves_subspace_support():
    # a basis state spreads only across tuples; any support pattern is valid,
    # but the vector length never changes and no mass leaks out
    layout = build_layout(3, 3)
    state = initial_state(layout, seed=3)
    out = apply_xy_ring_mixer(state, layout, 0.3)
    assert out.amps.shape == (27,)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


# --- full circuit --------------------------------------------------------------------


def test_run_qaoa_zero_params_returns_initial_state():
    inst = gen.make_random_instance(seed=15, n=3, k=2)
    model = build_qubo(inst)
    layout = build_layout(3, 2)
    out = run_qaoa(model, layout, QaoaParams(0.0, 0.0), seed=7)
    init = initial_state(layout, seed=7)
    assert np.allclose(out.amps, init.amps)


@pytest.mark.parametrize("n,k,seed", [(2, 2, 0), (3, 2, 1), (4, 3, 2)])
def test_subspace_matches_dense_full_space(n, k, seed):
    inst = gen.make_random_instance(seed=40 + seed, n=n, k=k)
    model = build_qubo(inst)
    layout = build_layout(n, k)
    rng = np.random.default_rng(seed)
    params = QaoaParams(
        gamma=float(rng.uniform(0.05, math.pi)),
        beta=float(rng.uniform(0.05, math.pi / 2)),
        layers=int(rng.integers(1, 3)),
    )
    init = initial_state(layout, seed=seed)
    init_tuple = tuple(int(x) for x in np.unravel_index(int(np.argmax(np.abs(init.amps))), layout.shape))
    sub = run_qaoa(model, layout, params, seed=seed)
    dense = dense_simulate(model, layout, params, init_tuple)
    for flat in range(layout.dim):
        dense_idx = subspace_index_in_dense(layout, flat)
        assert sub.amps[flat] == pytest.approx(dense[dense_idx], abs=1e-8)
    # all mass stays on the subspace images
    sub_mass = sum(abs(dense[subspace_index_in_dense(layout, f)]) ** 2 for f in range(layout.dim))
    assert sub_mass == pytest.approx(1.0, abs=1e-9)


# --- sampling -------------------------------------------------------------------------


def test_sample_shots_basis_state():
    layout = build_layout(3, 2)
    model = from_terms(3, 2, [], [], offset=0.0, lam=1.0)
    amps = np.zeros(9, dtype=complex)
    amps[4] = 1.0  # tuple (1, 1)
    state = SubspaceState(n=3, k=2, amps=amps)
    result = sample_shots(state, cost_diagonal(model, layout), shots=50, seed=0)
    assert result.entries.tolist() == [[0, 1, 0, 0, 1, 0]]
    assert result.counts.tolist() == [50]
    assert result.backend is Backend.QAOA


def test_sample_shots_binomial_split():
    layout = build_layout(2, 1)
    model = from_terms(2, 1, [], [], offset=0.0, lam=1.0)
    amps = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    state = SubspaceState(n=2, k=1, amps=amps)
    result = sample_shots(state, cost_diagonal(model, layout), shots=1500, seed=3)
    assert result.counts.sum() == 1500
    counts = dict(zip(map(tuple, result.entries.tolist()), result.counts.tolist()))
    sigma = math.sqrt(1500 * 0.25)
    assert abs(counts[(1, 0)] - 750) <= 4 * sigma


def test_sample_shots_step_one_hot_always():
    inst = gen.make_random_instance(seed=16, n=4, k=3)
    model = build_qubo(inst)
    layout = build_layout(4, 3)
    state = run_qaoa(model, layout, QaoaParams(0.7, 0.4), seed=11)
    result = sample_shots(state, cost_diagonal(model, layout), shots=2000, seed=12)
    assert (result.entries.reshape(-1, 3, 4).sum(axis=2) == 1).all()


def test_sample_shots_energies_equal_qubo_energy():
    for seed, integer in ((17, True), (18, False)):
        inst = gen.make_random_instance(seed=seed, n=4, k=3)
        if not integer:
            w = inst.weights * np.random.default_rng(seed).uniform(0.1, 3.7, size=(4, 4))
            inst = GtspInstance(inst.name, inst.clusters, w, symmetric=False)
        model = build_qubo(inst)
        layout = build_layout(4, 3)
        state = run_qaoa(model, layout, QaoaParams(0.9, 0.3), seed=seed)
        result = sample_shots(state, cost_diagonal(model, layout), shots=3000, seed=seed)
        assert len(result.entries) > 20
        for row, e in zip(result.entries, result.energies):
            if integer:
                assert e == energy(model, row)
            else:
                assert abs(e - energy(model, row)) <= 1e-9


# --- grid search ------------------------------------------------------------------------


def test_grid_endpoints_inclusive():
    grid = GridConfig()
    gammas = grid.gammas()
    betas = grid.betas()
    assert gammas[0] == pytest.approx(0.05) and gammas[-1] == pytest.approx(math.pi)
    assert betas[0] == pytest.approx(0.05) and betas[-1] == pytest.approx(math.pi / 2)
    assert len(gammas) == len(betas) == 10


def test_grid_1x1_degenerates_to_single_run(toy_instance):
    model = build_qubo(toy_instance)
    layout = build_layout(2, 2)
    grid = GridConfig(gamma_points=1, beta_points=1, shots=200)
    result = grid_search(model, layout, grid, seed=5)
    assert len(result.cells) == 1
    params = QaoaParams(gamma=0.05, beta=0.05, layers=1)
    state = run_qaoa(model, layout, params, seed=5)
    direct = sample_shots(state, cost_diagonal(model, layout), shots=200, seed=5)
    assert result.best_samples.to_json_dict() == direct.to_json_dict()
    assert result.best_params == params


def test_grid_toy_best_cell_contains_optimal_tour(toy_instance):
    model = build_qubo(toy_instance)
    layout = build_layout(2, 2)
    result = grid_search(model, layout, GridConfig(shots=1500), seed=1, inst=toy_instance)
    optimal_bits = {encode(model, Tour((0, 1)), toy_instance), encode(model, Tour((1, 0)), toy_instance)}
    sampled = {bits_to_str(row) for row in result.best_samples.entries}
    assert sampled & optimal_bits
    assert len(result.cells) == 100
    assert all(c.feasible_shot_fraction is not None for c in result.cells)


def test_grid_deterministic(toy_instance):
    model = build_qubo(toy_instance)
    layout = build_layout(2, 2)
    grid = GridConfig(gamma_points=3, beta_points=3, shots=100)
    a = grid_search(model, layout, grid, seed=2)
    b = grid_search(model, layout, grid, seed=2)
    assert (a.best_params, a.cells) == (b.best_params, b.cells)
    assert a.best_samples.to_json_dict() == b.best_samples.to_json_dict()
    assert a.search_samples.to_json_dict() == b.search_samples.to_json_dict()


def test_grid_search_samples_pool_every_cell(toy_instance):
    model = build_qubo(toy_instance)
    layout = build_layout(2, 2)
    grid = GridConfig(gamma_points=4, beta_points=4, shots=100)
    result = grid_search(model, layout, grid, seed=9)
    assert result.search_samples.num_reads == 16 * 100
    pool = result.search_samples
    assert pool.counts.sum() == 16 * 100
    # the pooled multiset dominates the best cell entry-wise
    pooled = dict(zip(map(tuple, pool.entries.tolist()), pool.counts.tolist()))
    for row, count in zip(result.best_samples.entries.tolist(), result.best_samples.counts):
        assert pooled[tuple(row)] >= count
    assert len(pooled) == len(pool.counts)  # one entry per distinct row
    keys = list(zip(pool.energies.tolist(), pool.entries.tolist()))
    assert keys == sorted(keys)


def test_grid_timeout_zero_cells(toy_instance):
    model = build_qubo(toy_instance)
    layout = build_layout(2, 2)
    grid = GridConfig(shots=10, timeout_s=-1.0)
    result = grid_search(model, layout, grid, seed=0)
    assert result.best_params is None
    assert result.best_samples.failure is Failure.TIMEOUT
    assert result.cells == ()


# --- invariants over random draws ----------------------------------------------------


def test_norm_drift_and_one_hot_over_random_draws():
    rng = np.random.default_rng(77)
    inst = gen.make_random_instance(seed=50, n=4, k=3)
    model = build_qubo(inst)
    layout = build_layout(4, 3)
    for _ in range(50):
        params = QaoaParams(
            gamma=float(rng.uniform(0, math.pi)),
            beta=float(rng.uniform(0, math.pi / 2)),
        )
        seed = int(rng.integers(1 << 31))
        state = run_qaoa(model, layout, params, seed=seed)
        assert abs(state.norm() - 1.0) < 1e-9
        shots = sample_shots(state, cost_diagonal(model, layout), shots=64, seed=seed)
        assert (shots.entries.reshape(-1, 3, 4).sum(axis=2) == 1).all()
