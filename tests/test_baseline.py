from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from gtspq import baseline
from gtspq.baseline import (
    EXACT_STATE_CAP,
    _read_off,
    _suffix_costs,
    exact_solve,
    exact_state_count,
    random_tours,
)
from gtspq.instance import GtspInstance, tour_cost
from gtspq.preprocess import nn2c_reduce

import gen


def _one_node_per_cluster(inst, order) -> bool:
    """``order`` is K node ids, one from each cluster."""
    return sorted(inst.cluster_index[list(order)].tolist()) == list(range(inst.k))


def brute_force_optimum(inst):
    """Naive oracle: minimum over every node choice x every cluster order."""
    best = None
    for perm in itertools.permutations(range(inst.k)):
        for choice in itertools.product(*(inst.clusters[m] for m in perm)):
            cost = tour_cost(inst, choice)
            if best is None or cost < best:
                best = cost
    return best


def _best_tour_for_ordering(w, seq, s) -> tuple[float, tuple[int, ...]]:
    """Min-cost tour through the cluster sequence starting (and closing) at s.

    g[p][v] = cheapest cost from node v at position p through the rest of the
    sequence back to s; the forward reconstruction picks the smallest node
    achieving the optimum at each position, so the returned tour is the
    lexicographically smallest optimal one for this (ordering, s).
    """
    k = len(seq)
    g: list[dict[int, float]] = [dict() for _ in range(k)]
    for v in seq[k - 1]:
        g[k - 1][v] = float(w[v, s])
    for p in range(k - 2, 0, -1):
        nxt = g[p + 1]
        for u in seq[p]:
            g[p][u] = min(float(w[u, v]) + nxt[v] for v in seq[p + 1])
    total = min(float(w[s, v]) + g[1][v] for v in seq[1])

    tour = [s]
    cur = s
    remaining = total
    for p in range(1, k):
        for v in seq[p]:
            step = float(w[cur, v]) + g[p][v]
            if step == remaining:
                tour.append(v)
                remaining = g[p][v]
                cur = v
                break
        else:  # float asymmetry should be impossible; guard anyway
            raise AssertionError("tour reconstruction failed")
    return total, tuple(tour)


def enumerate_exact(inst, w=None):
    """Reference solver: cluster 0 first, every (K-1)! ordering of the rest,
    a min-cost pass per (ordering, start node) over the weights ``w`` (the
    instance's by default); ties go to the smallest (cost, ordering, tour).
    Returns (tour, cost, explored orderings)."""
    w = inst.weights if w is None else w
    best = None
    explored = 0
    for perm in itertools.permutations(range(1, inst.k)):
        explored += 1
        ordering = (0,) + perm
        seq = [inst.clusters[m] for m in ordering]
        for s in seq[0]:
            cost, tour = _best_tour_for_ordering(w, seq, s)
            cand = (cost, ordering, tour)
            if best is None or cand < best:
                best = cand
    cost, _, tour = best
    return tour, cost, explored


def _battery_instance(rng, k, weights, symmetric):
    n = int(rng.integers(k, 2 * k + 2))
    if weights == "integer":
        w = rng.integers(1, 100, size=(n, n)).astype(float)
    elif weights == "ties":
        w = rng.integers(1, 3, size=(n, n)).astype(float)
    else:  # 3-decimal weights: sums round in the last bit
        w = rng.integers(1, 100_000, size=(n, n)) / 1000.0
    if symmetric:
        w = np.triu(w, 1) + np.triu(w, 1).T
    np.fill_diagonal(w, 0.0)
    return GtspInstance("b", gen.random_partition(n, k, rng), w, symmetric=symmetric)


# instances per K in each battery case; 6 cases x 90 = 540 instances
_BATTERY_SIZES = {2: 12, 3: 16, 4: 16, 5: 16, 6: 12, 7: 12, 8: 6}


@pytest.mark.parametrize("symmetric", [False, True], ids=["asym", "sym"])
@pytest.mark.parametrize("weights", ["integer", "ties", "decimal"])
def test_matches_enumeration_oracle(weights, symmetric):
    """Same tour, cost and ordering count as the enumerator, bit for bit."""
    rng = np.random.default_rng([gen.name_seed(weights), int(symmetric)])
    for k, count in _BATTERY_SIZES.items():
        for _ in range(count):
            inst = _battery_instance(rng, k, weights, symmetric)
            result = exact_solve(inst)
            got = (result.tour, result.cost, result.explored_orderings)
            assert got == enumerate_exact(inst), (k, inst.clusters, inst.weights.tolist())
            assert tour_cost(inst, result.tour) == result.cost


@pytest.mark.parametrize("weights", ["integer", "ties", "decimal"])
def test_fixed_order_step_matches_per_start_reference(weights):
    """The solver's fixed-order step, closed by the leg back to each start,
    gives the per-start reference's best cost and tour for every ordering,
    bit for bit."""
    rng = np.random.default_rng([gen.name_seed(weights), 2])
    for k in range(2, 7):
        for _ in range(4):
            inst = _battery_instance(rng, k, weights, symmetric=bool(rng.integers(2)))
            w = inst.weights
            for perm in itertools.permutations(range(1, k)):
                seq = [inst.clusters[m] for m in (0,) + perm]
                closing = w[np.ix_(seq[-1], seq[0])].T
                got = _read_off(w, seq, _suffix_costs(w, seq, closing))
                assert got == min(_best_tour_for_ordering(w, seq, s) for s in seq[0])
                assert type(got[0]) is float and all(type(v) is int for v in got[1])


def test_tie_hidden_by_rounding_goes_to_smallest_ordering():
    """Orderings (0,1,2,3) and (0,1,3,2) tie only after the w[0,1] leg: their
    suffixes from node 1 are 0.3 + (0.2 + 0.1) = 0.6000000000000001 and
    0.1 + (0.2 + 0.3) = 0.6, and both read 100.6 once 100 is added. The
    enumerator keeps the smaller ordering, so must the solver, although its
    suffix is not the table's minimum."""
    w = np.full((4, 4), 200.0)
    np.fill_diagonal(w, 0.0)
    w[0, 1] = 100.0
    w[1, 2], w[2, 3], w[3, 0] = 0.3, 0.2, 0.1
    w[1, 3], w[3, 2], w[2, 0] = 0.1, 0.2, 0.3
    inst = GtspInstance("hidden", [[0], [1], [2], [3]], w, symmetric=False)
    result = exact_solve(inst)
    assert (result.tour, result.cost, result.explored_orderings) == enumerate_exact(inst)
    assert result.tour == (0, 1, 2, 3)
    assert result.cost == tour_cost(inst, (0, 1, 3, 2)) == 100.6


def test_two_singleton_clusters():
    inst = GtspInstance("t", [[0], [1]], [[0, 3], [7, 0]], symmetric=False)
    result = exact_solve(inst)
    assert result.tour == (0, 1)
    assert all(type(v) is int for v in result.tour)  # exact.json writes it as is
    assert result.cost == 10.0
    assert result.explored_orderings == 1


def test_dominant_zero_cost_selection():
    """Zero-weight legs 1-2 are free edges under ``zero_is_edge`` and absent
    edges by default, as in the model."""
    w = np.full((4, 4), 9.0)
    np.fill_diagonal(w, 0.0)
    w[1, 2] = w[2, 1] = 0.0
    inst = GtspInstance("dom", [[0, 1], [2, 3]], w, symmetric=True)
    result = exact_solve(inst, zero_is_edge=True)
    assert result.cost == 0.0
    assert set(result.tour) == {1, 2}
    result = exact_solve(inst)
    assert result.cost == 18.0
    assert result.tour == (0, 2)


def test_exact_avoids_an_absent_edge():
    inst = gen.one_absent_edge()
    result = exact_solve(inst)
    assert result.cost == 21.0 == tour_cost(inst, result.tour)
    assert result.tour == (0, 3, 4)
    free = exact_solve(inst, zero_is_edge=True)
    assert (free.tour, free.cost) == ((0, 2, 4), 2.0)


def test_exact_without_a_tour_of_edges_raises():
    inst = GtspInstance("t", [[0], [1]], [[0, 0], [7, 0]], symmetric=False)
    with pytest.raises(ValueError, match="absent"):
        exact_solve(inst)
    assert exact_solve(inst, zero_is_edge=True).cost == 7.0


@pytest.mark.parametrize("symmetric", [False, True], ids=["asym", "sym"])
@pytest.mark.parametrize("weights", ["integer", "ties", "decimal"])
def test_absent_edges_match_the_oracle_without_them(weights, symmetric):
    """With about a third of the weights set to 0, the solver gives the
    enumerator's tour and cost over the weights with each zero leg made
    infinite, and a ValueError where every tour needs one; with
    ``zero_is_edge`` it gives the enumerator's on the weights as they are."""
    rng = np.random.default_rng([gen.name_seed(weights), int(symmetric), 3])
    raised = 0
    for k in range(2, 7):
        for _ in range(10):
            inst = _battery_instance(rng, k, weights, symmetric)
            zero = rng.random(inst.weights.shape) < 0.35
            if symmetric:
                zero = np.triu(zero, 1) | np.triu(zero, 1).T
            w = np.where(zero, 0.0, inst.weights)
            inst = GtspInstance("z", inst.clusters, w, symmetric=symmetric)
            free = exact_solve(inst, zero_is_edge=True)
            assert (free.tour, free.cost, free.explored_orderings) == enumerate_exact(inst)
            absent = zero & ~np.eye(inst.n, dtype=bool)
            tour, cost, explored = enumerate_exact(inst, np.where(absent, np.inf, w))
            if cost == np.inf:
                raised += 1
                with pytest.raises(ValueError, match="absent"):
                    exact_solve(inst)
                continue
            result = exact_solve(inst)
            assert (result.tour, result.cost, result.explored_orderings) == (tour, cost, explored)
            assert tour_cost(inst, result.tour) == result.cost
            legs = w[list(result.tour), list(result.tour[1:] + result.tour[:1])]
            assert (legs != 0.0).all()
    assert 0 < raised < 50


def test_matches_brute_force_cross_product():
    for seed in range(10):
        inst = gen.make_random_instance(seed=seed, n=7, k=3, symmetric=bool(seed % 2))
        result = exact_solve(inst)
        assert _one_node_per_cluster(inst, result.tour)
        assert tour_cost(inst, result.tour) == pytest.approx(result.cost, abs=1e-9)
        assert result.cost == pytest.approx(brute_force_optimum(inst), abs=1e-9)


def test_explored_orderings_counts_factorial():
    inst = gen.make_random_instance(seed=1, n=8, k=4)
    assert exact_solve(inst).explored_orderings == 6  # (K-1)!


def test_state_guard_boundary(monkeypatch):
    inst = gen.make_random_instance(seed=1, n=12, k=4)
    states = exact_state_count(inst)
    c0 = len(inst.clusters[0])
    assert states == c0 * 2**3 * (12 - c0)
    monkeypatch.setattr(baseline, "EXACT_STATE_CAP", states)
    assert exact_solve(inst).cost == enumerate_exact(inst)[1]
    monkeypatch.setattr(baseline, "EXACT_STATE_CAP", states - 1)
    with pytest.raises(ValueError, match="cap"):
        exact_solve(inst)


def test_state_guard_real_cap():
    """K=20 with singleton clusters fits under the cap; K=21 does not."""
    def ring(k):
        w = np.ones((k, k))
        np.fill_diagonal(w, 0.0)
        return GtspInstance(f"ring{k}", [[v] for v in range(k)], w, symmetric=True)

    assert exact_state_count(ring(20)) == 2**19 * 19 <= EXACT_STATE_CAP
    assert exact_state_count(ring(21)) == 2**20 * 20 > EXACT_STATE_CAP
    with pytest.raises(ValueError, match="cap"):
        exact_solve(ring(21))


def _preprocess_reduced(name):
    for fixture, reduced_n, original_n, k in gen.PREPROCESS_MEDIUM:
        if fixture == name:
            return nn2c_reduce(gen.preprocess_original(fixture, reduced_n, original_n, k))[0]
    raise KeyError(name)


@pytest.mark.parametrize("name", ["14st70", "16pr76", "20kroA100"])
def test_preprocess_medium_beyond_enumeration(name):
    inst = _preprocess_reduced(name)
    result = exact_solve(inst)
    assert _one_node_per_cluster(inst, result.tour)
    assert result.cost == tour_cost(inst, result.tour)
    assert result.explored_orderings == math.factorial(inst.k - 1)
    rotated = GtspInstance(
        inst.name, inst.clusters[1:] + inst.clusters[:1], inst.weights, symmetric=inst.symmetric
    )
    assert exact_solve(rotated).cost == result.cost
    _, costs = random_tours(inst, 2000, seed=4)
    assert (costs >= result.cost).all()


def test_rotation_consistency():
    inst = gen.make_random_instance(seed=5, n=9, k=3)
    rotated = GtspInstance(
        inst.name,
        inst.clusters[1:] + inst.clusters[:1],
        inst.weights,
        symmetric=inst.symmetric,
    )
    assert exact_solve(inst).cost == pytest.approx(exact_solve(rotated).cost)


def test_exact_is_lower_bound_for_random_tours():
    inst = gen.make_random_instance(seed=8, n=10, k=4)
    optimal = exact_solve(inst).cost
    _, costs = random_tours(inst, 500, seed=3)
    assert (costs >= optimal - 1e-12).all()


def test_random_tours_singleton_clusters():
    inst = GtspInstance("t", [[0], [1]], [[0, 3], [7, 0]], symmetric=False)
    orders, costs = random_tours(inst, 50, seed=0)
    assert orders.shape == (50, 2) and costs.shape == (50,)
    assert all(set(order) == {0, 1} for order in orders.tolist())
    assert (costs == 10.0).all()


def test_random_tours_deterministic():
    inst = gen.make_random_instance(seed=4, n=8, k=3)
    a = random_tours(inst, 100, seed=11)
    b = random_tours(inst, 100, seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = random_tours(inst, 100, seed=12)
    assert not np.array_equal(a[0], c[0])


def test_random_tours_feasible():
    inst = gen.make_random_instance(seed=6, n=9, k=4)
    orders, costs = random_tours(inst, 200, seed=1)
    for order, cost in zip(orders.tolist(), costs.tolist()):
        assert _one_node_per_cluster(inst, order)
        assert cost == pytest.approx(tour_cost(inst, order))


def test_random_tours_uniform_over_every_tour():
    """Every (cluster order, node per cluster) outcome is equally likely, on
    clusters of unequal sizes whose nodes are not contiguous."""
    clusters = [[3], [0, 5], [1, 2, 4]]
    w = np.arange(1.0, 37.0).reshape(6, 6)
    np.fill_diagonal(w, 0.0)
    inst = GtspInstance("u", clusters, w, symmetric=False)
    outcomes = {
        choice
        for perm in itertools.permutations(range(3))
        for choice in itertools.product(*(clusters[m] for m in perm))
    }
    draws = 72_000
    seen = Counter(map(tuple, random_tours(inst, draws, seed=3)[0].tolist()))
    assert set(seen) == outcomes
    expected = draws / len(outcomes)
    chi2 = sum((seen[o] - expected) ** 2 / expected for o in outcomes)
    assert chi2 < 66.6  # the 0.999 quantile of chi-square with 35 degrees of freedom


def test_random_tours_mean_matches_enumeration():
    inst = gen.make_random_instance(seed=2, n=5, k=3)
    costs = []
    for perm in itertools.permutations(range(3)):
        for choice in itertools.product(*(inst.clusters[m] for m in perm)):
            costs.append(tour_cost(inst, choice))
    exact_mean = float(np.mean(costs))
    exact_var = float(np.var(costs))
    _, samples = random_tours(inst, 100_000, seed=9)
    empirical = float(np.mean(samples))
    sigma = (exact_var / len(samples)) ** 0.5
    assert abs(empirical - exact_mean) <= 3 * sigma
