from __future__ import annotations

import math

import numpy as np
import pytest

from gtspq.qubo import build_qubo, encode_rows, energy, from_terms
from gtspq.qaoa import (
    GridConfig,
    QaoaParams,
    PartitionLayout,
    StateTooLargeError,
    apply_cost_phase,
    apply_xy_ring_mixer,
    cost_diagonal,
    grid_search,
    initial_state,
    run_qaoa,
    sample_shots,
    xy_ring_matrix,
)
from gtspq.sampler import Backend, Failure
from gtspq.instance import GtspInstance

import gen


# --- dense full-space oracle ----------------------------------------------------


def ring_edges(n):
    """One step's mixer edges (node pairs) in application order: the ring
    0-1-...-(n-1)-0, a single edge for two nodes, none for one."""
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


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
        for t in range(k):
            for a, b in ring_edges(n):
                bu = nq - 1 - (t * n + a)  # bit position within the integer index
                bv = nq - 1 - (t * n + b)
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


# --- layout and ring matrix ------------------------------------------------------


def test_layout_shape_covers_all_tuples(toy_instance):
    layout = PartitionLayout(4, 3)
    assert layout.shape == (4, 4, 4) and layout.dim == 64
    model = build_qubo(toy_instance)
    assert cost_diagonal(model).shape == PartitionLayout(model.n, model.k).shape


def _edge_rotation(n, a, b, beta):
    """The 2x2 XX+YY block on nodes (a, b), embedded in the n x n identity."""
    r = np.eye(n, dtype=np.complex128)
    r[a, a] = r[b, b] = math.cos(2 * beta)
    r[a, b] = r[b, a] = -1j * math.sin(2 * beta)
    return r


def _edge_product(n, edges, beta):
    m = np.eye(n, dtype=np.complex128)
    for a, b in edges:
        m = _edge_rotation(n, a, b, beta) @ m
    return m


@pytest.mark.parametrize("n,expected_edges", [(1, 0), (2, 1), (3, 3), (5, 5)])
def test_ring_matrix_matches_edge_product(n, expected_edges):
    assert len(ring_edges(n)) == expected_edges
    for beta in (0.05, 0.4, 1.3):
        expected = _edge_product(n, ring_edges(n), beta)
        assert np.allclose(xy_ring_matrix(n, beta), expected, rtol=0, atol=1e-14)


def test_ring_matrix_is_ordered_ascending_product():
    """Edge rotations sharing a node do not commute: the ascending order
    is the one applied."""
    edges = ring_edges(4)
    assert edges == [(0, 1), (1, 2), (2, 3), (3, 0)]
    descending = _edge_product(4, edges[::-1], 0.4)
    assert not np.allclose(xy_ring_matrix(4, 0.4), descending, atol=1e-3)


def test_ring_matrix_is_unitary():
    for n in range(1, 8):
        for beta in (0.0, 0.05, 0.7, math.pi / 2, 2.9):
            m = xy_ring_matrix(n, beta)
            assert np.allclose(m @ m.conj().T, np.eye(n), rtol=0, atol=1e-13)


def test_ring_matrix_single_node_is_identity():
    for beta in (0.05, 0.7, 1.3):
        assert xy_ring_matrix(1, beta).tolist() == [[1.0 + 0.0j]]


def test_ring_matrix_two_nodes_is_one_rotation():
    for beta in (0.05, 0.7, 1.3):
        c, s = math.cos(2 * beta), math.sin(2 * beta)
        assert np.array_equal(xy_ring_matrix(2, beta), [[c, -1j * s], [-1j * s, c]])


# --- initial state ----------------------------------------------------------------


def test_initial_state_unique_when_single_node():
    state = initial_state(PartitionLayout(1, 3), seed=5)
    assert state.reshape(-1).tolist() == [1.0 + 0.0j]


def test_initial_state_deterministic():
    layout = PartitionLayout(3, 2)
    a = initial_state(layout, seed=9)
    b = initial_state(layout, seed=9)
    assert np.array_equal(a, b)


def test_initial_state_uniform_over_basis():
    layout = PartitionLayout(3, 2)
    counts = np.zeros(9)
    trials = 10_000
    for seed in range(trials):
        counts[int(np.argmax(np.abs(initial_state(layout, seed))))] += 1
    expected = trials / 9
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square with 8 degrees of freedom: mean 8, std 4
    assert chi2 <= 8 + 3 * 4


def test_state_too_large_guard():
    with pytest.raises(StateTooLargeError):
        PartitionLayout(20, 7)


# --- cost diagonal -----------------------------------------------------------------


def test_cost_diagonal_toy_values(toy_instance):
    model = build_qubo(toy_instance)
    diag = cost_diagonal(model)
    assert diag[0, 1] == pytest.approx(10.0)  # the feasible tour (0, 1)
    assert diag[1, 0] == pytest.approx(10.0)
    # same node twice: one cluster double-selected, the other unselected
    assert diag[0, 0] == pytest.approx(2 * model.lam)
    assert diag[1, 1] == pytest.approx(2 * model.lam)


def test_cost_diagonal_matches_energy_per_entry():
    for n, k in ((3, 2), (3, 3), (4, 4)):
        inst = gen.make_random_instance(seed=14, n=n, k=k)
        model = build_qubo(inst)
        diag = cost_diagonal(model)
        for tup in np.ndindex(diag.shape):
            bits = ["0"] * (n * k)
            for c, node in enumerate(tup):
                bits[c * n + node] = "1"
            assert diag[tup] == pytest.approx(energy(model, "".join(bits)), abs=1e-9)


# --- unitaries ----------------------------------------------------------------------


def _random_state(layout, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=layout.shape) + 1j * rng.normal(size=layout.shape)
    return state / np.linalg.norm(state)


def test_cost_phase_gamma_zero_is_identity():
    layout = PartitionLayout(3, 2)
    state = _random_state(layout, 0)
    diag = np.arange(layout.dim, dtype=float).reshape(layout.shape)
    out = apply_cost_phase(state, diag, 0.0)
    assert np.allclose(out, state)


def test_cost_phase_preserves_probabilities_and_expectation():
    layout = PartitionLayout(3, 2)
    diag = np.linspace(0, 5, layout.dim).reshape(layout.shape)
    for seed in range(5):
        state = _random_state(layout, seed)
        out = apply_cost_phase(state, diag, 0.817)
        assert np.allclose(np.abs(out) ** 2, np.abs(state) ** 2, atol=1e-12)
        before = float(np.sum(np.abs(state) ** 2 * diag))
        after = float(np.sum(np.abs(out) ** 2 * diag))
        assert after == pytest.approx(before, abs=1e-9)


def test_mixer_beta_zero_is_identity():
    state = _random_state(PartitionLayout(4, 2), 1)
    out = apply_xy_ring_mixer(state, 0.0)
    assert np.allclose(out, state)


def test_mixer_two_node_partition_swaps_with_phase():
    state = np.array([1.0 + 0j, 0.0 + 0j])
    out = apply_xy_ring_mixer(state, math.pi / 4)
    assert np.allclose(out, [0.0, -1j])


def test_mixer_unitary_over_many_applications():
    state = _random_state(PartitionLayout(4, 3), 2)
    for i in range(100):
        state = apply_xy_ring_mixer(state, 0.05 + 0.01 * i)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)


def test_mixer_preserves_subspace_support():
    # a basis state spreads only across tuples; any support pattern is valid,
    # but the vector length never changes and no mass leaks out
    state = initial_state(PartitionLayout(3, 3), seed=3)
    out = apply_xy_ring_mixer(state, 0.3)
    assert out.shape == (3, 3, 3)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


# --- full circuit --------------------------------------------------------------------


def test_run_qaoa_zero_params_returns_initial_state():
    inst = gen.make_random_instance(seed=15, n=3, k=2)
    model = build_qubo(inst)
    layout = PartitionLayout(3, 2)
    out = run_qaoa(model, layout, QaoaParams(0.0, 0.0), seed=7)
    init = initial_state(layout, seed=7)
    assert np.allclose(out, init)


@pytest.mark.parametrize("n,k,seed", [(2, 2, 0), (3, 2, 1), (4, 3, 2)])
def test_subspace_matches_dense_full_space(n, k, seed):
    inst = gen.make_random_instance(seed=40 + seed, n=n, k=k)
    model = build_qubo(inst)
    layout = PartitionLayout(n, k)
    rng = np.random.default_rng(seed)
    params = QaoaParams(
        gamma=float(rng.uniform(0.05, math.pi)),
        beta=float(rng.uniform(0.05, math.pi / 2)),
        layers=int(rng.integers(1, 3)),
    )
    init = initial_state(layout, seed=seed)
    init_tuple = tuple(int(x) for x in np.unravel_index(int(np.argmax(np.abs(init))), layout.shape))
    sub = run_qaoa(model, layout, params, seed=seed).reshape(-1)
    dense = dense_simulate(model, layout, params, init_tuple)
    for flat in range(layout.dim):
        dense_idx = subspace_index_in_dense(layout, flat)
        assert sub[flat] == pytest.approx(dense[dense_idx], abs=1e-8)
    # all mass stays on the subspace images
    sub_mass = sum(abs(dense[subspace_index_in_dense(layout, f)]) ** 2 for f in range(layout.dim))
    assert sub_mass == pytest.approx(1.0, abs=1e-9)


# --- sampling -------------------------------------------------------------------------


def test_sample_shots_basis_state():
    model = from_terms(3, 2, [], [], offset=0.0, lam=1.0)
    state = np.zeros((3, 3), dtype=complex)
    state[1, 1] = 1.0
    result = sample_shots(state, cost_diagonal(model), shots=50, seed=0)
    assert result.entries.tolist() == [[0, 1, 0, 0, 1, 0]]
    assert result.counts.tolist() == [50]
    assert result.backend is Backend.QAOA


def test_sample_shots_binomial_split():
    model = from_terms(2, 1, [], [], offset=0.0, lam=1.0)
    state = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    result = sample_shots(state, cost_diagonal(model), shots=1500, seed=3)
    assert result.counts.sum() == 1500
    counts = dict(zip(map(tuple, result.entries.tolist()), result.counts.tolist()))
    sigma = math.sqrt(1500 * 0.25)
    assert abs(counts[(1, 0)] - 750) <= 4 * sigma


def test_sample_shots_step_one_hot_always():
    inst = gen.make_random_instance(seed=16, n=4, k=3)
    model = build_qubo(inst)
    state = run_qaoa(model, PartitionLayout(4, 3), QaoaParams(0.7, 0.4), seed=11)
    result = sample_shots(state, cost_diagonal(model), shots=2000, seed=12)
    assert (result.entries.reshape(-1, 3, 4).sum(axis=2) == 1).all()


def test_sample_shots_rows_encode_the_drawn_tuples():
    """Each distinct draw's row is ``encode_rows`` of its unravelled tuple."""
    model = build_qubo(gen.make_random_instance(seed=19, n=4, k=3))
    state = run_qaoa(model, PartitionLayout(4, 3), QaoaParams(0.6, 0.5), seed=19)
    result = sample_shots(state, cost_diagonal(model), shots=500, seed=20)
    probs = np.abs(state.reshape(-1)) ** 2
    draws = np.random.default_rng(20).choice(len(probs), size=500, p=probs / probs.sum())
    flat, counts = np.unique(draws, return_counts=True)
    rows = encode_rows(4, np.stack(np.unravel_index(flat, state.shape), axis=1))
    want = dict(zip(map(tuple, rows.tolist()), counts.tolist()))
    assert dict(zip(map(tuple, result.entries.tolist()), result.counts.tolist())) == want
    assert len(want) > 20


def test_sample_shots_energies_equal_qubo_energy():
    for seed, integer in ((17, True), (18, False)):
        inst = gen.make_random_instance(seed=seed, n=4, k=3)
        if not integer:
            w = inst.weights * np.random.default_rng(seed).uniform(0.1, 3.7, size=(4, 4))
            inst = GtspInstance(inst.name, inst.clusters, w, symmetric=False)
        model = build_qubo(inst)
        state = run_qaoa(model, PartitionLayout(4, 3), QaoaParams(0.9, 0.3), seed=seed)
        result = sample_shots(state, cost_diagonal(model), shots=3000, seed=seed)
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
    grid = GridConfig(gamma_points=1, beta_points=1, shots=200)
    result = grid_search(model, grid, 5, toy_instance)
    assert len(result.cells) == 1
    params = QaoaParams(gamma=0.05, beta=0.05, layers=1)
    state = run_qaoa(model, PartitionLayout(2, 2), params, seed=5)
    direct = sample_shots(state, cost_diagonal(model), shots=200, seed=5)
    assert result.search_samples.to_json_dict() == direct.to_json_dict()
    assert (result.cells[0].gamma, result.cells[0].beta) == (params.gamma, params.beta)


def test_grid_toy_best_cell_contains_optimal_tour(toy_instance):
    model = build_qubo(toy_instance)
    result = grid_search(model, GridConfig(shots=1500), 1, toy_instance)
    optimal_rows = encode_rows(2, [(0, 1), (1, 0)])
    # the first cell of least mean energy; only the optimal tours reach its energy
    best = min(result.cells, key=lambda c: c.mean_energy)
    assert best.best_shot_energy == pytest.approx(min(energy(model, row) for row in optimal_rows))
    assert len(result.cells) == 100
    assert all(0.0 <= c.feasible_shot_fraction <= 1.0 for c in result.cells)


def test_grid_deterministic(toy_instance):
    model = build_qubo(toy_instance)
    grid = GridConfig(gamma_points=3, beta_points=3, shots=100)
    a = grid_search(model, grid, 2, toy_instance)
    b = grid_search(model, grid, 2, toy_instance)
    assert a.cells == b.cells
    assert a.search_samples.to_json_dict() == b.search_samples.to_json_dict()


def test_grid_search_samples_pool_every_cell(toy_instance):
    model = build_qubo(toy_instance)
    grid = GridConfig(gamma_points=4, beta_points=4, shots=100)
    result = grid_search(model, grid, 9, toy_instance)
    assert result.search_samples.num_reads == 16 * 100
    pool = result.search_samples
    assert pool.counts.sum() == 16 * 100
    # the pooled multiset dominates every cell's shots entry-wise
    pooled = dict(zip(map(tuple, pool.entries.tolist()), pool.counts.tolist()))
    diagonal = cost_diagonal(model)
    for c, cell in enumerate(result.cells):
        params = QaoaParams(cell.gamma, cell.beta)
        state = run_qaoa(model, PartitionLayout(2, 2), params, 9 + c, diagonal=diagonal)
        shots = sample_shots(state, diagonal, 100, 9 + c)
        for row, count in zip(shots.entries.tolist(), shots.counts.tolist()):
            assert pooled[tuple(row)] >= count
    assert len(pooled) == len(pool.counts)  # one entry per distinct row
    keys = list(zip(pool.energies.tolist(), pool.entries.tolist()))
    assert keys == sorted(keys)


def test_grid_timeout_zero_cells(toy_instance):
    model = build_qubo(toy_instance)
    grid = GridConfig(shots=10, timeout_s=-1.0)
    result = grid_search(model, grid, 0, toy_instance)
    assert result.search_samples.failure is Failure.TIMEOUT
    assert result.search_samples.num_reads == 0
    assert result.cells == ()


def test_grid_over_state_cap_not_applicable():
    """8^7 > MAX_SUBSPACE_DIM amplitudes: no cell runs, and the search
    fails as not_applicable with no reads."""
    inst = gen.make_random_instance(seed=3, n=8, k=7)
    result = grid_search(build_qubo(inst), GridConfig(1, 1, shots=10), 0, inst)
    assert result.cells == ()
    assert result.search_samples.backend is Backend.QAOA
    assert result.search_samples.failure is Failure.NOT_APPLICABLE
    assert result.search_samples.num_reads == 0


# --- invariants over random draws ----------------------------------------------------


def test_norm_drift_and_one_hot_over_random_draws():
    rng = np.random.default_rng(77)
    inst = gen.make_random_instance(seed=50, n=4, k=3)
    model = build_qubo(inst)
    layout = PartitionLayout(4, 3)
    for _ in range(50):
        params = QaoaParams(
            gamma=float(rng.uniform(0, math.pi)),
            beta=float(rng.uniform(0, math.pi / 2)),
        )
        seed = int(rng.integers(1 << 31))
        state = run_qaoa(model, layout, params, seed=seed)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9
        shots = sample_shots(state, cost_diagonal(model), shots=64, seed=seed)
        assert (shots.entries.reshape(-1, 3, 4).sum(axis=2) == 1).all()
