from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from gtspq import qaoa, qubo
from gtspq.cli import RunConfig
from gtspq.qubo import build_qubo, encode_rows, energy
from gtspq.qaoa import (
    BETA_RANGE,
    GAMMA_RANGE,
    CellSummary,
    GridResult,
    QaoaParams,
    PartitionLayout,
    StateTooLargeError,
    apply_ring,
    cost_diagonal,
    cost_phase,
    grid_search,
    initial_state,
    run_qaoa,
    sample_shots,
    xy_ring_matrix,
)
from gtspq.sampler import Backend, Failure, SampleSet
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


def dense_simulate(model, layout, params):
    """Independent 2^(N*K) statevector simulation of the same circuit.

    The start puts amplitude dim^-1/2 on every bitstring with one set bit
    per step, the N^K one-hot tuples, and 0 elsewhere. Cost phases act on every bitstring's full model energy; the mixer applies
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

    for tup in itertools.product(range(n), repeat=k):
        bits = [0] * nq
        for c, node in enumerate(tup):
            bits[c * n + node] = 1
        state[bits_to_index(bits)] = layout.dim**-0.5

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
    state = initial_state(PartitionLayout(1, 3))
    assert state.reshape(-1).tolist() == [1.0 + 0.0j]


def test_initial_state_deterministic():
    layout = PartitionLayout(3, 2)
    a = initial_state(layout)
    b = initial_state(layout)
    assert np.array_equal(a, b)


def test_initial_state_uniform_over_basis():
    """Every one of the N^K tuples holds amplitude dim^-1/2, and the norm is 1."""
    for n, k in ((2, 2), (3, 2), (4, 3), (5, 1)):
        layout = PartitionLayout(n, k)
        state = initial_state(layout)
        assert state.shape == layout.shape and state.dtype == np.complex128
        assert (state == layout.dim**-0.5).all()
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


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
    out = state * cost_phase(diag, 0.0)
    assert np.allclose(out, state)


def test_cost_phase_preserves_probabilities_and_expectation():
    layout = PartitionLayout(3, 2)
    diag = np.linspace(0, 5, layout.dim).reshape(layout.shape)
    for seed in range(5):
        state = _random_state(layout, seed)
        out = state * cost_phase(diag, 0.817)
        assert np.allclose(np.abs(out) ** 2, np.abs(state) ** 2, atol=1e-12)
        before = float(np.sum(np.abs(state) ** 2 * diag))
        after = float(np.sum(np.abs(out) ** 2 * diag))
        assert after == pytest.approx(before, abs=1e-9)


def test_mixer_beta_zero_is_identity():
    state = _random_state(PartitionLayout(4, 2), 1)
    out = apply_ring(state, xy_ring_matrix(4, 0.0))
    assert np.allclose(out, state)


def test_mixer_two_node_partition_swaps_with_phase():
    state = np.array([1.0 + 0j, 0.0 + 0j])
    out = apply_ring(state, xy_ring_matrix(2, math.pi / 4))
    assert np.allclose(out, [0.0, -1j])


def test_mixer_unitary_over_many_applications():
    state = _random_state(PartitionLayout(4, 3), 2)
    for i in range(100):
        state = apply_ring(state, xy_ring_matrix(4, 0.05 + 0.01 * i))
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)


def test_mixer_preserves_subspace_support():
    # the mixer moves mass only between tuples: the vector length never
    # changes and no mass leaks out
    state = initial_state(PartitionLayout(3, 3))
    out = apply_ring(state, xy_ring_matrix(3, 0.3))
    assert out.shape == (3, 3, 3)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


# --- full circuit --------------------------------------------------------------------


def test_run_qaoa_zero_params_returns_initial_state():
    inst = gen.make_random_instance(seed=15, n=3, k=2)
    model = build_qubo(inst)
    layout = PartitionLayout(3, 2)
    out = run_qaoa(model, layout, QaoaParams(0.0, 0.0))
    assert np.allclose(out, initial_state(layout))


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
    sub = run_qaoa(model, layout, params).reshape(-1)
    dense = dense_simulate(model, layout, params)
    for flat in range(layout.dim):
        dense_idx = subspace_index_in_dense(layout, flat)
        assert sub[flat] == pytest.approx(dense[dense_idx], abs=1e-8)
    # all mass stays on the subspace images
    sub_mass = sum(abs(dense[subspace_index_in_dense(layout, f)]) ** 2 for f in range(layout.dim))
    assert sub_mass == pytest.approx(1.0, abs=1e-9)


def test_run_qaoa_given_phase_and_ring_is_the_same_state():
    """The shared phase vector and ring matrix a grid passes in give the
    bit-identical state of the call that computes its own."""
    inst = gen.make_random_instance(seed=21, n=4, k=3)
    model = build_qubo(inst)
    layout = PartitionLayout(4, 3)
    diagonal = cost_diagonal(model)
    for layers in (1, 2, 3):
        params = QaoaParams(0.83, 0.41, layers)
        own = run_qaoa(model, layout, params)
        shared = run_qaoa(
            model, layout, params,
            phase=cost_phase(diagonal, params.gamma), ring=xy_ring_matrix(4, params.beta),
        )
        assert np.array_equal(own, shared)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 3), (5, 2)])
def test_run_qaoa_equals_the_uniform_array_times_the_phase(n, k):
    """The phased start ``phase * dim^-1/2`` gives, bit for bit, the state
    of the uniform array multiplied by the phase, then (phase, ring) layers."""
    model = build_qubo(gen.make_random_instance(seed=23 + n, n=n, k=k))
    layout = PartitionLayout(n, k)
    diagonal = cost_diagonal(model)
    for gamma, beta in ((0.0, 0.41), (0.83, 0.0), (2.9, 1.3)):
        phase, ring = cost_phase(diagonal, gamma), xy_ring_matrix(n, beta)
        want = initial_state(layout)
        for layers in (1, 2, 3):
            want = apply_ring(want * phase, ring)
            got = run_qaoa(model, layout, QaoaParams(gamma, beta, layers), phase=phase, ring=ring)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.view(np.float64).tobytes() == want.view(np.float64).tobytes()


@pytest.mark.parametrize("layers", [0, -1, 1.0, True, "1", None])
def test_qaoa_params_rejects_layers_that_are_not_an_int_of_at_least_one(layers):
    with pytest.raises(ValueError, match="layers must be an int >= 1"):
        QaoaParams(0.5, 0.3, layers)


def test_run_qaoa_phase_and_ring_are_keyword_only():
    """A fourth positional argument, such as a seed left over from a call
    written for a seeded start, is a TypeError, not a phase."""
    model = build_qubo(gen.make_random_instance(seed=22, n=3, k=2))
    with pytest.raises(TypeError):
        run_qaoa(model, PartitionLayout(3, 2), QaoaParams(0.5, 0.3), 7)


def test_shots_depend_on_gamma_at_one_layer():
    """From the uniform start the phase layer is not a global phase: at one
    layer, two gammas with the same beta and shot seed draw different shots.
    (From a single basis state both would draw the same shots.)"""
    model = build_qubo(gen.make_random_instance(seed=24, n=4, k=3))
    layout = PartitionLayout(4, 3)
    diagonal = cost_diagonal(model)
    texts = {
        gen.sample_text(sample_shots(run_qaoa(model, layout, QaoaParams(g, 0.4)), diagonal, 500, 6))
        for g in (0.3, 1.1)
    }
    assert len(texts) == 2


@pytest.mark.parametrize("zero_is_edge", [False, True])
@pytest.mark.parametrize("weights", ["int", "fraction", "int-absent", "fraction-absent"])
def test_energy_below_lambda_is_the_tour_verdict(weights, zero_is_edge):
    """On every one-hot tuple, energy < lambda is ``order_checks``' tour
    verdict: a tour's energy is its cost, at most lambda - 1, and every
    other tuple pays at least one lambda on top of non-negative weights."""
    rng = np.random.default_rng(105)
    seen = set()
    for n, k in ((2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 3), (4, 4)):
        for _ in range(6):
            inst = gen.make_random_instance(
                int(rng.integers(1 << 31)), n, k, low=0 if "absent" in weights else 1, high=4
            )
            if weights.startswith("fraction"):
                w = np.round(inst.weights * rng.uniform(0.1, 9.9, size=(n, n)), 3)
                inst = GtspInstance(inst.name, inst.clusters, w, symmetric=False)
            model = build_qubo(inst, zero_is_edge=zero_is_edge)
            orders = np.indices(PartitionLayout(n, k).shape).reshape(k, -1).T
            _, tour_ok = qubo.order_checks(model, inst, orders)
            below = cost_diagonal(model).reshape(-1) < model.lam
            assert np.array_equal(below, tour_ok)
            seen.update(tour_ok.tolist())
    assert seen == {False, True}


# --- sampling -------------------------------------------------------------------------


def test_sample_shots_basis_state():
    model = gen.from_terms(3, 2, [], [], offset=0.0, lam=1.0)
    state = np.zeros((3, 3), dtype=complex)
    state[1, 1] = 1.0
    result = sample_shots(state, cost_diagonal(model), shots=50, seed=0)
    assert result.entries.tolist() == [[0, 1, 0, 0, 1, 0]]
    assert result.counts.tolist() == [50]
    assert result.backend is Backend.QAOA


def test_sample_shots_binomial_split():
    model = gen.from_terms(2, 1, [], [], offset=0.0, lam=1.0)
    state = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    result = sample_shots(state, cost_diagonal(model), shots=1500, seed=3)
    assert result.counts.sum() == 1500
    counts = dict(zip(map(tuple, result.entries.tolist()), result.counts.tolist()))
    sigma = math.sqrt(1500 * 0.25)
    assert abs(counts[(1, 0)] - 750) <= 4 * sigma


def test_sample_shots_step_one_hot_always():
    inst = gen.make_random_instance(seed=16, n=4, k=3)
    model = build_qubo(inst)
    state = run_qaoa(model, PartitionLayout(4, 3), QaoaParams(0.7, 0.4))
    result = sample_shots(state, cost_diagonal(model), shots=2000, seed=12)
    assert (result.entries.reshape(-1, 3, 4).sum(axis=2) == 1).all()


def test_sample_shots_rows_encode_the_drawn_tuples():
    """Each distinct draw's row is ``encode_rows`` of its unravelled tuple."""
    model = build_qubo(gen.make_random_instance(seed=19, n=4, k=3))
    state = run_qaoa(model, PartitionLayout(4, 3), QaoaParams(0.6, 0.5))
    result = sample_shots(state, cost_diagonal(model), shots=500, seed=20)
    probs = np.abs(state.reshape(-1)) ** 2
    draws = np.random.default_rng(20).choice(len(probs), size=500, p=probs / probs.sum())
    flat, counts = np.unique(draws, return_counts=True)
    rows = encode_rows(4, np.stack(np.unravel_index(flat, state.shape), axis=1))
    want = dict(zip(map(tuple, rows.tolist()), counts.tolist()))
    assert dict(zip(map(tuple, result.entries.tolist()), result.counts.tolist())) == want
    assert len(want) > 20


@pytest.mark.parametrize("fill", [0.0, complex(math.nan, 0.0), complex(math.inf, 0.0)])
def test_sample_shots_rejects_a_state_without_a_finite_norm(fill):
    model = gen.from_terms(3, 2, [], [], offset=0.0, lam=1.0)
    state = np.zeros((3, 3), dtype=complex)
    state[1] = fill
    with pytest.raises(ValueError, match="norm"):
        sample_shots(state, cost_diagonal(model), shots=10, seed=0)


def test_sample_shots_energies_equal_qubo_energy():
    for seed, integer in ((17, True), (18, False)):
        inst = gen.make_random_instance(seed=seed, n=4, k=3)
        if not integer:
            w = inst.weights * np.random.default_rng(seed).uniform(0.1, 3.7, size=(4, 4))
            inst = GtspInstance(inst.name, inst.clusters, w, symmetric=False)
        model = build_qubo(inst)
        state = run_qaoa(model, PartitionLayout(4, 3), QaoaParams(0.9, 0.3))
        result = sample_shots(state, cost_diagonal(model), shots=3000, seed=seed)
        assert len(result.entries) > 20
        for row, e in zip(result.entries, result.energies):
            if integer:
                assert e == energy(model, row)
            else:
                assert abs(e - energy(model, row)) <= 1e-9


def _reference_sample_shots(state, diagonal, shots, seed):
    """The set ``sample_shots`` built before it sorted its draws: the
    unsorted draws counted by ``np.unique``, rows encoded, then sorted by
    the reference lexsort of ``gen.from_rows``."""
    probs = np.abs(state.reshape(-1)) ** 2
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    draws = cdf.searchsorted(np.random.default_rng(seed).random(shots), side="right")
    uniq, counts = np.unique(draws, return_counts=True)
    rows = encode_rows(state.shape[0], np.stack(np.unravel_index(uniq, state.shape), axis=1))
    return gen.from_rows(Backend.QAOA, shots, rows, counts, diagonal.reshape(-1)[uniq])


def _assert_same_set(got, want):
    assert got.backend is want.backend and got.num_reads == want.num_reads
    assert got.failure is want.failure
    for name in ("entries", "counts", "energies"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable
    assert gen.sample_text(got) == gen.sample_text(want)


@pytest.mark.parametrize("trial", range(12))
def test_sample_shots_equals_the_unsorted_construction_under_ties(trial):
    """Random states over random shapes, energies drawn from three integers
    so that many distinct tuples tie: the set is the reference's bit for bit."""
    rng = np.random.default_rng(900 + trial)
    n, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    shape = (n,) * k
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    state[rng.random(shape) < 0.3] = 0.0
    state.flat[0] += 0.1  # never all zero
    diagonal = rng.integers(0, 3, size=shape).astype(np.float64)
    for shots in (1, 7, 500):
        seed = int(rng.integers(1 << 31))
        _assert_same_set(
            sample_shots(state, diagonal, shots, seed),
            _reference_sample_shots(state, diagonal, shots, seed),
        )


def test_sample_shots_equals_the_unsorted_construction_on_wide_rows():
    """N=40, K=3: 120-bit rows, wider than one 64-bit word, and energies of
    a model whose weights take two values."""
    model = build_qubo(gen.make_random_instance(seed=31, n=40, k=3, low=1, high=2))
    diagonal = cost_diagonal(model)
    state = run_qaoa(model, PartitionLayout(40, 3), QaoaParams(0.4, 0.7))
    for shots, seed in ((1, 3), (500, 4), (5000, 5)):
        got = sample_shots(state, diagonal, shots, seed)
        _assert_same_set(got, _reference_sample_shots(state, diagonal, shots, seed))
    assert got.entries.shape[1] == 120 and len(np.unique(got.energies)) < len(got.energies)


@pytest.mark.parametrize("k", [1, 3])
def test_sample_shots_equals_the_unsorted_construction_at_one_node(k):
    """N=1: one tuple, so every shot is the same row."""
    state = np.full((1,) * k, 1.0 + 0.0j)
    diagonal = np.full((1,) * k, 2.5)
    for shots in (1, 500):
        got = sample_shots(state, diagonal, shots, 8)
        _assert_same_set(got, _reference_sample_shots(state, diagonal, shots, 8))
        assert got.counts.tolist() == [shots]


def test_sample_shots_equals_the_unsorted_construction_on_a_basis_state():
    diagonal = np.arange(27, dtype=np.float64).reshape(3, 3, 3) % 4
    state = np.zeros((3, 3, 3), dtype=complex)
    state[2, 0, 1] = 1j
    for shots in (1, 500):
        got = sample_shots(state, diagonal, shots, 9)
        _assert_same_set(got, _reference_sample_shots(state, diagonal, shots, 9))
        assert got.entries.tolist() == [[0, 0, 1, 1, 0, 0, 0, 1, 0]]


# --- grid search ------------------------------------------------------------------------


def _grid(model, seed, **overrides):
    """``grid_search`` at ``RunConfig``'s default settings, ``overrides`` on top."""
    settings = {key: getattr(RunConfig, key) for key in ("grid", "shots", "timeout_s", "layers")}
    return grid_search(model, seed, **{**settings, **overrides})


def test_grid_endpoints_inclusive(toy_instance):
    cells = _grid(build_qubo(toy_instance), 0, shots=10).cells
    gammas = sorted({c.gamma for c in cells})
    betas = sorted({c.beta for c in cells})
    assert gammas[0] == pytest.approx(0.05) and gammas[-1] == pytest.approx(math.pi)
    assert betas[0] == pytest.approx(0.05) and betas[-1] == pytest.approx(math.pi / 2)
    assert len(gammas) == len(betas) == 10
    assert [(c.gamma, c.beta) for c in cells] == [(g, b) for g in gammas for b in betas]


def test_grid_1x1_degenerates_to_single_run(toy_instance):
    model = build_qubo(toy_instance)
    result = _grid(model, 5, grid=(1, 1), shots=200)
    assert len(result.cells) == 1
    params = QaoaParams(gamma=0.05, beta=0.05, layers=1)
    state = run_qaoa(model, PartitionLayout(2, 2), params)
    direct = sample_shots(state, cost_diagonal(model), shots=200, seed=5)
    assert gen.sample_text(result.samples) == gen.sample_text(direct)
    assert (result.cells[0].gamma, result.cells[0].beta) == (params.gamma, params.beta)


def test_grid_toy_best_cell_contains_optimal_tour(toy_instance):
    model = build_qubo(toy_instance)
    result = _grid(model, 1)
    optimal_rows = encode_rows(2, [(0, 1), (1, 0)])
    # the first cell of least mean energy; only the optimal tours reach its energy
    best = min(result.cells, key=lambda c: c.mean_energy)
    assert best.best_shot_energy == pytest.approx(min(energy(model, row) for row in optimal_rows))
    assert len(result.cells) == 100
    assert all(0.0 <= c.feasible_shot_fraction <= 1.0 for c in result.cells)


def test_grid_deterministic(toy_instance):
    model = build_qubo(toy_instance)
    a = _grid(model, 2, grid=(3, 3), shots=100)
    b = _grid(model, 2, grid=(3, 3), shots=100)
    assert a.cells == b.cells
    assert gen.sample_text(a.samples) == gen.sample_text(b.samples)


def test_grid_search_samples_are_the_chosen_cells_shots():
    """The search reports the ``shots`` shots of its first cell of least
    mean energy, redrawn here from that cell's seed, and nothing pooled."""
    inst = gen.make_random_instance(seed=25, n=4, k=3)
    model = build_qubo(inst)
    result = _grid(model, 9, grid=(4, 4), shots=100)
    scores = [c.mean_energy for c in result.cells]
    chosen = scores.index(min(scores))
    assert chosen != 0  # the choice is exercised, not the first cell by default
    cell = result.cells[chosen]
    state = run_qaoa(model, PartitionLayout(4, 3), QaoaParams(cell.gamma, cell.beta))
    redrawn = sample_shots(state, cost_diagonal(model), 100, 9 + chosen)
    assert result.samples.num_reads == 100 and result.samples.counts.sum() == 100
    assert gen.sample_text(result.samples) == gen.sample_text(redrawn)
    assert float(result.samples.energies[0]) == cell.best_shot_energy


def test_grid_timeout_zero_cells(toy_instance):
    model = build_qubo(toy_instance)
    result = _grid(model, 0, shots=10, timeout_s=-1.0)
    assert result.samples.failure is Failure.TIMEOUT
    assert result.samples.num_reads == 0
    assert result.cells == ()


@pytest.mark.parametrize("grid", [(0, 3), (3, 0), (0, 0)])
def test_grid_search_rejects_an_empty_grid(toy_instance, grid):
    """An empty grid is a caller's error, not a timeout: no time expired."""
    with pytest.raises(ValueError, match="grid dimensions must be >= 1"):
        _grid(build_qubo(toy_instance), 0, grid=grid, shots=10)


@pytest.mark.parametrize("timeout_s", [-1.0, 300.0])
@pytest.mark.parametrize(
    "setting,match",
    [({"shots": 0}, "shots must be >= 1"), ({"layers": 0}, "layers must be an int >= 1"),
     ({"layers": -2}, "layers must be an int >= 1")],
    ids=["shots-0", "layers-0", "layers-negative"],
)
def test_grid_search_rejects_shots_and_layers_below_one(toy_instance, timeout_s, setting, match):
    """A shot or layer count below 1 is a caller's error, raised before the
    first timeout check: not a timeout, and no cell of the unphased state."""
    settings = {"grid": (1, 1), "shots": 10, "layers": 1, "timeout_s": timeout_s, **setting}
    with pytest.raises(ValueError, match=match):
        _grid(build_qubo(toy_instance), 0, **settings)


def test_grid_over_state_cap_not_applicable():
    """8^7 > MAX_SUBSPACE_DIM amplitudes: no cell runs, and the search
    fails as not_applicable with no reads."""
    inst = gen.make_random_instance(seed=3, n=8, k=7)
    result = _grid(build_qubo(inst), 0, grid=(1, 1), shots=10)
    assert result.cells == ()
    assert result.samples.backend is Backend.QAOA
    assert result.samples.failure is Failure.NOT_APPLICABLE
    assert result.samples.num_reads == 0


def _reference_grid_search(model, inst, seed, *, grid, shots, timeout_s, layers):
    """The grid search without shared work: every cell computes its own
    phase and ring and keeps its ``SampleSet``; one ``decode_rows`` over
    every cell's rows gives the feasible fractions, and the reported set is
    the one of the first cell of least mean energy."""
    try:
        layout = PartitionLayout(model.n, model.k)
    except StateTooLargeError:
        return GridResult((), SampleSet.failed(Backend.QAOA, Failure.NOT_APPLICABLE, 0))
    diagonal = cost_diagonal(model)
    started = qaoa.time.monotonic()
    runs = []
    for gamma, beta in itertools.product(
        np.linspace(*GAMMA_RANGE, grid[0]).tolist(), np.linspace(*BETA_RANGE, grid[1]).tolist()
    ):
        if qaoa.time.monotonic() - started > timeout_s:
            break
        params = QaoaParams(gamma=gamma, beta=beta, layers=layers)
        state = run_qaoa(model, layout, params, phase=cost_phase(diagonal, gamma))
        samples = sample_shots(state, diagonal, shots, seed + len(runs))
        score = sum((samples.energies * samples.counts).tolist()) / shots
        runs.append((gamma, beta, score, samples))

    if not runs:
        return GridResult((), SampleSet.failed(Backend.QAOA, Failure.TIMEOUT, 0))
    cell_sets = [samples for *_, samples in runs]
    violations, _ = qubo.decode_rows(model, inst, np.concatenate([s.entries for s in cell_sets]))
    feasible = np.array([v is None for v in violations], dtype=bool)
    counts = np.concatenate([s.counts for s in cell_sets])
    starts = np.cumsum([0] + [len(s.counts) for s in cell_sets[:-1]])
    fractions = (np.add.reduceat(counts * feasible, starts) / shots).tolist()
    cells = tuple(
        CellSummary(gamma, beta, score, fraction, float(samples.energies[0]))
        for (gamma, beta, score, samples), fraction in zip(runs, fractions)
    )
    chosen = min(range(len(runs)), key=lambda c: runs[c][2])  # the first of least score
    return GridResult(cells, cell_sets[chosen])


def _assert_same_search(got, want):
    assert got.cells == want.cells
    a, b = got.samples, want.samples
    assert (a.backend, a.num_reads, a.failure) == (b.backend, b.num_reads, b.failure)
    assert a.entries.dtype == b.entries.dtype
    assert np.array_equal(a.entries, b.entries)
    assert np.array_equal(a.counts, b.counts) and a.counts.dtype == b.counts.dtype
    assert np.array_equal(a.energies, b.energies)
    assert gen.sample_text(a) == gen.sample_text(b)


def _oracle_instances():
    """The toy two-node tour, one subsample-small and one subsample-medium
    fixture, and a small instance with absent (zero) edges."""
    small = next(s for s in gen.SUBSAMPLE_SMALL if s[0] == "20gr96_nodes_5")
    medium = next(s for s in gen.SUBSAMPLE_MEDIUM if s[0] == "10hk48_nodes_10")
    return {
        "small": gen.subsample_instance(*small),
        "medium": gen.subsample_instance(*medium),
        "absent-edges": gen.make_random_instance(seed=23, n=4, k=3, low=0, high=3),
    }


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("which", ["toy", "small", "medium", "absent-edges"])
def test_grid_search_equals_reference(which, layers, toy_instance):
    inst = toy_instance if which == "toy" else _oracle_instances()[which]
    settings = dict(grid=(10, 10), shots=500, timeout_s=300.0, layers=layers)
    for zero_is_edge in (False, True) if which == "absent-edges" else (False,):
        model = build_qubo(inst, zero_is_edge=zero_is_edge)
        got = grid_search(model, 3, **settings)
        want = _reference_grid_search(model, inst, 3, **settings)
        assert len(got.cells) == 100
        _assert_same_search(got, want)
    if which == "absent-edges":  # the edge check is exercised, not vacuous
        assert any(c.feasible_shot_fraction < 1.0 for c in got.cells)


def _clock_cut_after(monkeypatch, cells):
    """``time.monotonic`` as seen by the grid: 0 for the start and the
    first ``cells`` timeout checks, then far past any timeout."""
    calls = itertools.count()
    monkeypatch.setattr(
        qaoa.time, "monotonic", lambda: 0.0 if next(calls) <= cells else 1e9
    )


@pytest.mark.parametrize("cut", [1, 15, 20])  # the first cell, mid-gamma, a gamma boundary
@pytest.mark.parametrize("layers", [1, 2])
def test_grid_search_equals_reference_under_a_timeout_cut(cut, layers, monkeypatch):
    inst = _oracle_instances()["small"]
    model = build_qubo(inst)
    settings = dict(grid=(10, 10), shots=500, timeout_s=1.0, layers=layers)
    _clock_cut_after(monkeypatch, cut)
    got = grid_search(model, 8, **settings)
    _clock_cut_after(monkeypatch, cut)
    want = _reference_grid_search(model, inst, 8, **settings)
    assert len(got.cells) == cut
    _assert_same_search(got, want)


@pytest.mark.parametrize("cut,gammas_run", [(None, 3), (6, 2), (4, 1), (0, 0)])
def test_grid_builds_each_ring_once_and_each_phase_once_per_gamma(
    cut, gammas_run, monkeypatch, toy_instance
):
    """Four betas give four ring matrices for the whole search, and the
    phase exponential runs once per gamma that runs: a gamma cut at its
    first cell costs none."""
    built = {"ring": 0, "phase": 0}

    def counting(key, original):
        def wrapped(*args):
            built[key] += 1
            return original(*args)

        return wrapped

    monkeypatch.setattr(qaoa, "xy_ring_matrix", counting("ring", qaoa.xy_ring_matrix))
    monkeypatch.setattr(qaoa, "cost_phase", counting("phase", qaoa.cost_phase))
    if cut is not None:
        _clock_cut_after(monkeypatch, cut)
    model = build_qubo(toy_instance)
    result = grid_search(model, 0, grid=(3, 4), shots=20, timeout_s=1.0, layers=2)
    assert len(result.cells) == (12 if cut is None else cut)
    assert built == {"ring": 4, "phase": gammas_run}


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
        state = run_qaoa(model, layout, params)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9
        shots = sample_shots(state, cost_diagonal(model), shots=64, seed=seed)
        assert (shots.entries.reshape(-1, 3, 4).sum(axis=2) == 1).all()
