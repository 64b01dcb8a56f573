from __future__ import annotations

import json

import numpy as np
import pytest

from gtspq.instance import GtspInstance
from gtspq.preprocess import cluster_subsample, nn2c_reduce, parse_spec, reduce

import gen


def nn2c_oracle_kept(inst):
    """Straightforward re-implementation of the min / tie rules, per cluster."""
    kept = []
    for cluster in inst.clusters:
        outside = [u for u in range(inst.n) if u not in cluster]

        def best_in(v):
            return min(inst.weights[u, v] for u in outside)

        def best_out(v):
            return min(inst.weights[v, u] for u in outside)

        def avg_out(v):
            return sum(inst.weights[v, u] for u in outside) / len(outside)

        def avg_in(v):
            return sum(inst.weights[u, v] for u in outside) / len(outside)

        entry = min(cluster, key=lambda v: (best_in(v), avg_out(v), v))
        exit_ = min(cluster, key=lambda v: (best_out(v), avg_in(v), v))
        kept.append(sorted({entry, exit_}))
    return kept


def _reference_nn2c_kept(inst):
    """nn2c's selection as it was written before its sort keys: one key
    tuple (best weight, opposite-direction mean, id) per node, from 1-D
    reductions, and the smallest wins."""
    w = inst.weights
    all_nodes = np.arange(inst.n)
    kept = []
    for cluster in inst.clusters:
        inside = np.zeros(inst.n, dtype=bool)
        inside[list(cluster)] = True
        outside = all_nodes[~inside]
        entry = min(
            (float(w[outside, v].min()), float(w[v, outside].mean()), v) for v in cluster
        )[2]
        exit_ = min(
            (float(w[v, outside].min()), float(w[outside, v].mean()), v) for v in cluster
        )[2]
        kept.append(sorted({entry, exit_}))
    return kept


def _random_weights(rng, n, kind, symmetric):
    if kind == "int":
        w = rng.integers(0, 1000, size=(n, n)).astype(float)
    elif kind == "float":
        w = rng.random((n, n)) * 10.0 ** rng.integers(-3, 6)
    elif kind == "int-ties":
        w = rng.integers(0, 3, size=(n, n)).astype(float)
    else:  # float ties: the minima tie often, the means differ in the last bits
        w = rng.choice([0.1, 0.2, 0.3, 1 / 3, 0.7], size=(n, n))
    if symmetric:
        w = np.triu(w, 1) + np.triu(w, 1).T
    np.fill_diagonal(w, 0.0)
    return w


def _same_incoming_weights(rng, k, size):
    """Every node's incoming weights from outside its cluster are one list in
    a random order, which holds its minimum many times: the minima tie both
    ways, and the incoming means are equal up to the rounding of each sum."""
    n = k * size
    values = np.concatenate([np.full(n // 3, 0.1), rng.random(n - size - n // 3)])
    clusters = [list(range(m * size, (m + 1) * size)) for m in range(k)]
    w = np.zeros((n, n))
    for m, cluster in enumerate(clusters):
        outside = [u for u in range(n) if u // size != m]
        for v in cluster:
            w[outside, v] = rng.permutation(values)
    return GtspInstance("same", clusters, w, symmetric=False)


def test_nn2c_incoming_means_round_as_the_1d_means():
    """The exit tie-break compares incoming means whose exact values are
    equal, so it follows how each sum rounds; a mean down the strided
    columns rounds otherwise and picks other nodes in most of these."""
    rng = np.random.default_rng(0)
    for k, size in [(2, 5), (3, 4), (4, 6), (5, 8), (3, 40), (2, 100), (10, 10)]:
        for _ in range(10):
            inst = _same_incoming_weights(rng, k, size)
            _, record = nn2c_reduce(inst)
            kept = _reference_nn2c_kept(inst)
            assert sorted(record["kept_nodes"].values()) == sorted(v for c in kept for v in c)


@pytest.mark.parametrize("kind", ["int", "float", "int-ties", "float-ties"])
def test_nn2c_matches_the_per_node_key_tuples(kind):
    """Bit for bit the nodes the per-node key tuples keep, on random
    instances up to 300 nodes, so that a mean runs over more than one
    block of numpy's pairwise summation."""
    rng = np.random.default_rng(list(kind.encode()))
    shapes = [(int(rng.integers(2, 16)), None) for _ in range(150)] + [(300, 3), (260, 40)]
    for n, k in shapes:
        k = k or int(rng.integers(2, n + 1))
        symmetric = bool(rng.integers(2))
        w = _random_weights(rng, n, kind, symmetric)
        inst = GtspInstance("r", gen.random_partition(n, k, rng), w, symmetric=symmetric)
        reduced, record = nn2c_reduce(inst)
        kept = _reference_nn2c_kept(inst)
        assert sorted(record["kept_nodes"].values()) == sorted(v for c in kept for v in c)
        assert [[record["kept_nodes"][str(v)] for v in c] for c in reduced.clusters] == kept


def test_nn2c_singleton_clusters_fixed_point():
    inst = gen.make_random_instance(seed=1, n=4, k=4)
    reduced, record = nn2c_reduce(inst)
    assert reduced == inst
    assert record["kept_nodes"] == {str(i): i for i in range(4)}
    assert record["method"] == "nn2c"
    assert record["seed"] is None


def test_nn2c_known_entry_exit_scenario():
    # cluster B = {2, 3, 4}: node 2 is the cheapest to enter, node 4 the
    # cheapest to leave, node 3 is strictly dominated and must be dropped
    w = np.full((6, 6), 50.0)
    np.fill_diagonal(w, 0.0)
    w[0, 2] = 1.0   # best entry edge into B
    w[4, 5] = 2.0   # best exit edge out of B
    inst = GtspInstance("fig", [[0, 1], [2, 3, 4], [5]], w, symmetric=False)
    reduced, record = nn2c_reduce(inst)
    original_kept = set(record["kept_nodes"].values())
    assert 2 in original_kept and 4 in original_kept
    assert 3 not in original_kept
    assert reduced.k == 3


def test_nn2c_matches_independent_oracle():
    for seed in range(20):
        inst = gen.make_random_instance(seed=seed, n=9, k=3, symmetric=False)
        reduced, record = nn2c_reduce(inst)
        expected = [v for cluster in nn2c_oracle_kept(inst) for v in cluster]
        assert sorted(record["kept_nodes"].values()) == sorted(expected)


def test_nn2c_bound_and_determinism():
    for seed in range(10):
        inst = gen.make_random_instance(seed=100 + seed, n=12, k=4)
        r1, rec1 = nn2c_reduce(inst)
        r2, rec2 = nn2c_reduce(inst)
        assert r1 == r2 and rec1 == rec2
        assert r1.k == inst.k
        assert r1.n <= 2 * inst.k


def test_nn2c_symmetric_collapses_to_one_node_per_cluster():
    inst = gen.make_random_instance(seed=3, n=12, k=4, symmetric=True)
    reduced, _ = nn2c_reduce(inst)
    assert reduced.n == reduced.k == 4


def test_nn2c_tie_breaks_by_opposite_average_then_id():
    # cluster 0 nodes tie on best incoming and best outgoing weight; node 1
    # wins the entry slot on smaller average outgoing cost and the exit slot
    # on smaller average incoming cost, so node 0 is dropped entirely
    w = np.array(
        [
            [0.0, 0.0, 9.0, 30.0],
            [0.0, 0.0, 9.0, 10.0],
            [5.0, 5.0, 0.0, 7.0],
            [7.0, 6.0, 7.0, 0.0],
        ]
    )
    inst = GtspInstance("tie", [[0, 1], [2], [3]], w, symmetric=False)
    _, record = nn2c_reduce(inst)
    kept = set(record["kept_nodes"].values())
    assert 1 in kept and 0 not in kept


def test_nn2c_full_tie_falls_back_to_smaller_id():
    w = np.full((4, 4), 3.0)
    np.fill_diagonal(w, 0.0)
    inst = GtspInstance("flat", [[0, 1], [2, 3]], w, symmetric=True)
    _, record = nn2c_reduce(inst)
    assert sorted(record["kept_nodes"].values()) == [0, 2]


def test_reduced_weights_are_pure_submatrix():
    inst = gen.make_random_instance(seed=4, n=10, k=3)
    reduced, record = nn2c_reduce(inst)
    for new_a, old_a in record["kept_nodes"].items():
        for new_b, old_b in record["kept_nodes"].items():
            assert reduced.weights[int(new_a), int(new_b)] == inst.weights[old_a, old_b]


def test_preprocess_table_fixtures_reduce_exactly():
    for name, reduced_n, og_n, k in gen.PREPROCESS_SMALL + gen.PREPROCESS_MEDIUM:
        inst = gen.preprocess_original(name, reduced_n, og_n, k)
        reduced, _ = nn2c_reduce(inst)
        assert (reduced.n, reduced.k) == (reduced_n, k), name


# --- cluster subsampling --------------------------------------------------------


def test_subsample_budget_never_binds():
    inst = gen.make_random_instance(seed=5, n=8, k=3)
    reduced, record = cluster_subsample(inst, target_nodes=8, seed=7)
    name = f"{inst.name}_nodes_8"
    assert reduced == GtspInstance(name, inst.clusters, inst.weights, inst.symmetric)
    assert record["seed"] == 7
    assert record["method"] == "subsample"


def test_subsample_deterministic():
    inst = gen.make_random_instance(seed=6, n=20, k=6)
    a, ra = cluster_subsample(inst, target_nodes=9, seed=42)
    b, rb = cluster_subsample(inst, target_nodes=9, seed=42)
    assert a == b and ra == rb


def test_subsample_keeps_whole_clusters_in_original_order():
    inst = gen.make_random_instance(seed=7, n=20, k=6)
    reduced, record = cluster_subsample(inst, target_nodes=10, seed=1)
    kept_original = set(record["kept_nodes"].values())
    kept_cluster_ids = []
    for m, cluster in enumerate(inst.clusters):
        members_in = [v for v in cluster if v in kept_original]
        assert members_in == [] or len(members_in) == len(cluster)
        if members_in:
            kept_cluster_ids.append(m)
    assert kept_cluster_ids == sorted(kept_cluster_ids)
    assert reduced.k == len(kept_cluster_ids) >= 2
    assert sum(len(c) for c in reduced.clusters) == reduced.n


def test_subsample_respects_budget_with_min_two_clusters():
    inst = gen.make_random_instance(seed=8, n=24, k=8)
    for seed in range(20):
        reduced, _ = cluster_subsample(inst, target_nodes=7, seed=seed)
        assert reduced.k >= 2
        if reduced.k > 2:
            assert reduced.n <= 7


def test_subsample_target_too_small():
    inst = gen.make_random_instance(seed=9, n=12, k=3)
    sizes = sorted(len(c) for c in inst.clusters)
    with pytest.raises(ValueError):
        cluster_subsample(inst, target_nodes=sizes[0] + sizes[1] - 1, seed=0)


def test_subsample_published_shape_reachable():
    # original with cluster sizes [1, 1, 2, 9, 9]: some seed keeps 3 clusters
    # totalling 4 nodes, the benchmark sub-instance shape
    inst = gen.preprocess_original("5ulysses22", 5, 22, 5)
    shapes = set()
    hit_seed = None
    for seed in range(200):
        reduced, _ = cluster_subsample(inst, target_nodes=4, seed=seed)
        shapes.add((reduced.n, reduced.k))
        if (reduced.n, reduced.k) == (4, 3) and hit_seed is None:
            hit_seed = seed
    assert hit_seed is not None, f"shapes seen: {shapes}"
    reduced, record = cluster_subsample(inst, target_nodes=4, seed=hit_seed)
    assert (reduced.n, reduced.k) == (4, 3)
    assert record["seed"] == hit_seed


def test_partition_preserved_by_both_reductions():
    inst = gen.make_random_instance(seed=10, n=15, k=5)
    for reduced, _ in (nn2c_reduce(inst), cluster_subsample(inst, 9, seed=2)):
        seen = sorted(v for cluster in reduced.clusters for v in cluster)
        assert seen == list(range(reduced.n))


def test_reduction_record_validation():
    """Each reduction's record is the JSON object a run stores: the source's
    name and size, an injective map from new ids "0".."n'-1" (in order) to
    ascending original ids, the method, and the seed a subsample drew with
    (None for nn2c)."""
    inst = gen.make_random_instance(seed=13, n=20, k=6)
    for (reduced, record), method, seed in (
        (nn2c_reduce(inst), "nn2c", None),
        (cluster_subsample(inst, 9, seed=5), "subsample", 5),
    ):
        assert list(record) == [
            "original_instance_name", "original_n", "kept_nodes", "method", "seed"
        ]
        assert record["original_instance_name"] == inst.name
        assert record["original_n"] == inst.n == 20
        assert (record["method"], record["seed"]) == (method, seed)
        kept = record["kept_nodes"]
        assert list(kept) == [str(new) for new in range(reduced.n)]
        assert list(kept.values()) == sorted(set(kept.values()))
        assert all(type(old) is int and 0 <= old < inst.n for old in kept.values())
        assert json.loads(json.dumps(record)) == record


# --- the --reduce entry point ---------------------------------------------------


@pytest.mark.parametrize(
    "spec, parsed",
    [
        ("none", ("none", None)),
        ("nn2c", ("nn2c", None)),
        ("subsample:1", ("subsample", 1)),
        ("subsample:12", ("subsample", 12)),
        ("subsample:+7", ("subsample", 7)),
    ],
)
def test_parse_spec_accepts(spec, parsed):
    assert parse_spec(spec) == parsed


@pytest.mark.parametrize(
    "spec",
    ["", "bogus", "NN2C", "nn2c:3", "subsample", "subsample:", "subsample:0",
     "subsample:-2", "subsample:2.5", "subsample:x", " none"],
)
def test_parse_spec_rejects(spec):
    with pytest.raises(ValueError, match="bad --reduce value .*TARGET >= 1"):
        parse_spec(spec)


def test_reduce_none_returns_the_instance():
    inst = gen.make_random_instance(seed=11, n=9, k=3)
    reduced, record = reduce(inst, "none", 5)
    assert reduced is inst and record is None


def test_reduce_nn2c_is_nn2c_reduce():
    inst = gen.preprocess_original("5ulysses22", 5, 22, 5)
    expected = nn2c_reduce(inst)
    assert reduce(inst, "nn2c", 0) == expected
    assert reduce(inst, "nn2c", 99) == expected  # nn2c reads no seed


def test_subsample_is_named_by_size_and_reduce_returns_it():
    inst = gen.make_random_instance(seed=12, n=20, k=6)
    sub, sub_record = cluster_subsample(inst, 9, seed=4)
    assert sub.name == f"{inst.name}_nodes_{sub.n}"
    reduced, record = reduce(inst, "subsample:9", 4)
    assert reduced == sub and record == sub_record
    with pytest.raises(ValueError):
        reduce(inst, "subsample:0", 4)
