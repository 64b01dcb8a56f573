from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from gtspq.instance import GtspInstance, tour_cost
from gtspq.qubo import (
    as_rows,
    build_qubo,
    VIOLATION_CLUSTER,
    VIOLATION_EDGE,
    VIOLATION_STEP,
    decode,
    decode_rows,
    encode_rows,
    energies,
    energy,
    order_checks,
    penalty_weight,
    rows_to_strs,
    to_coo_text,
    to_json_dict,
)

import gen


def all_feasible_tours(inst):
    """Independent enumeration: one node per cluster, every step assignment."""
    for choice in itertools.product(*inst.clusters):
        for perm in itertools.permutations(choice):
            yield perm


def all_bitstrings(num_vars):
    for m in range(1 << num_vars):
        yield format(m, f"0{num_vars}b")


def bits_of(n, order) -> str:
    """The bitstring of one node order, checked only for range."""
    return rows_to_strs(encode_rows(n, [order]))[0]


def test_encode_rows_bit_positions():
    assert np.flatnonzero(encode_rows(3, [[0, 2]])).tolist() == [0, 5]
    row = encode_rows(5, [[1, 0, 3, 4]])  # 20 variables for a 5-node / 4-step layout
    assert row.shape == (1, 20) and row.dtype == np.uint8
    assert np.flatnonzero(row).tolist() == [1, 5, 13, 19]
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            encode_rows(3, [[0, bad]])
    for shape_fault in ([0, 1], [[[0, 1]]], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            encode_rows(3, shape_fault)


def test_encode_rows_inverts_decode_rows_order():
    rng = np.random.default_rng(104)
    for n, k in ((2, 2), (3, 2), (4, 4), (5, 3), (7, 4)):
        inst = gen.make_random_instance(int(rng.integers(1 << 31)), n, k)
        model = build_qubo(inst, zero_is_edge=True)
        orders = rng.integers(0, n, size=(50, k))
        rows = encode_rows(n, orders)
        assert (rows.reshape(50, k, n).sum(axis=2) == 1).all()
        _, decoded = decode_rows(model, inst, rows)
        assert decoded.tolist() == orders.tolist()


def test_penalty_weight_top_k_sum():
    inst = GtspInstance(
        "pw",
        [[0, 1], [2]],
        [[0, 8, 3], [5, 0, 2], [1, 1, 0]],
        symmetric=False,
    )
    assert penalty_weight(inst) == 8 + 5 + 1  # two largest of {8,3,5,2,1,1}


def test_penalty_weight_equal_weights():
    w = np.full((3, 3), 7.0)
    np.fill_diagonal(w, 0.0)
    inst = GtspInstance("eq", [[0, 1], [2]], w, symmetric=True)
    assert penalty_weight(inst) == 2 * 7 + 1


def test_penalty_weight_upper_bounds_tour_cost(toy_instance):
    lam = penalty_weight(toy_instance)
    assert lam == 11.0
    assert lam > tour_cost(toy_instance, (0, 1))


def test_penalty_weight_few_positive_edges():
    w = np.zeros((3, 3))
    w[0, 1] = 4.0
    inst = GtspInstance("sparse", [[0], [1], [2]], w, symmetric=False)
    # fewer than K positive weights: lambda = sum of the available ones + 1
    assert penalty_weight(inst) == 5.0


def test_build_qubo_feasible_state_energy_is_tour_cost(toy_instance):
    model = build_qubo(toy_instance)
    assert energy(model, bits_of(2, (0, 1))) == pytest.approx(10.0, abs=1e-12)


def test_build_qubo_all_zero_bitstring(toy_instance):
    model = build_qubo(toy_instance)
    zeros = "0" * model.num_vars
    assert energy(model, zeros) == pytest.approx(model.lam * 2 * toy_instance.k)


def test_no_self_pairs_and_positive_lambda():
    inst = gen.make_random_instance(seed=2, n=5, k=3)
    model = build_qubo(inst)
    assert model.lam > 0
    assert all(u != v for (u, v) in model.quadratic)
    assert all(u < v for (u, v) in model.quadratic)


def test_energy_zero_bits_is_offset():
    model = gen.from_terms(2, 1, [], [], offset=3.5, lam=1.0)
    assert energy(model, "00") == 3.5


def test_energy_single_quadratic_term():
    model = gen.from_terms(2, 1, [], [(0, 1, 3.0)], offset=1.0, lam=1.0)
    assert energy(model, "11") == 4.0
    assert energy(model, "10") == 1.0


def test_energy_matches_dense_oracle():
    inst = gen.make_random_instance(seed=9, n=4, k=3)
    model = build_qubo(inst)
    assert model.num_vars == 12
    rng = np.random.default_rng(0)
    dense = np.zeros((12, 12))
    for v, c in model.linear.items():
        dense[v, v] = c
    for (u, v), c in model.quadratic.items():
        dense[u, v] = c
    for _ in range(200):
        x = rng.integers(0, 2, size=12).astype(float)
        expected = model.offset + float(x @ dense @ x)
        assert energy(model, x.astype(np.uint8)) == pytest.approx(expected, abs=1e-9)


def _battery(rng, count, integer=True):
    """Random small instances as in the acceptance battery; with
    ``integer=False`` the weights are non-integer floats."""
    out = []
    for _ in range(count):
        n, k = gen.random_small_shape(rng)
        inst = gen.make_random_instance(int(rng.integers(1 << 31)), n, k)
        if not integer:
            w = inst.weights * rng.uniform(0.1, 3.7, size=inst.weights.shape)
            inst = GtspInstance(inst.name, inst.clusters, w, symmetric=False)
        out.append(inst)
    return out


def _per_term_energy(model, row) -> float:
    """Reference: the energy summed term by term over the model's dicts."""
    e = model.offset
    for v, c in model.linear.items():
        if row[v]:
            e += c
    for (u, v), c in model.quadratic.items():
        if row[u] and row[v]:
            e += c
    return e


def test_energies_match_per_term_loop_integer_weights():
    rng = np.random.default_rng(101)
    for inst in _battery(rng, 30):
        model = build_qubo(inst)
        rows = rng.integers(0, 2, size=(40, model.num_vars), dtype=np.uint8)
        got = energies(model, rows)
        assert got.tolist() == [_per_term_energy(model, row) for row in rows]
        assert [energy(model, row) for row in rows] == got.tolist()


def test_energies_match_per_term_loop_non_integer_weights():
    rng = np.random.default_rng(102)
    for inst in _battery(rng, 30, integer=False):
        model = build_qubo(inst)
        rows = rng.integers(0, 2, size=(40, model.num_vars), dtype=np.uint8)
        expected = [_per_term_energy(model, row) for row in rows]
        assert np.max(np.abs(energies(model, rows) - expected)) <= 1e-9


def test_energies_accepts_bitstrings_and_validates():
    model = gen.from_terms(2, 1, [(1, 2.0)], [(0, 1, 3.0)], offset=1.0, lam=1.0)
    assert energies(model, ["00", "01", "11"]).tolist() == [1.0, 3.0, 6.0]
    assert energies(model, np.zeros((0, 2), dtype=np.uint8)).shape == (0,)
    with pytest.raises(ValueError):
        energies(model, np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        energies(model, [[0, 2]])
    with pytest.raises(ValueError):
        energies(model, ["011"])


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0, 2]], dtype=np.uint8),
        np.array([[255, 1]], dtype=np.uint8),
        np.array([[1, 2]], dtype=np.uint16),
        np.array([[-1, 0]], dtype=np.int64),
        np.array([[0, 2]], dtype=np.int8),
        np.array([[0.5, 1.0]]),
        np.array([[1.0, -1.0]]),
    ],
    ids=["uint8-2", "uint8-255", "uint16-2", "int-minus-1", "int8-2", "float-half", "float-minus-1"],
)
def test_as_rows_rejects_entries_other_than_0_and_1(bad):
    with pytest.raises(ValueError, match="0/1"):
        as_rows(bad, 2)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.int64, np.float64, bool])
def test_as_rows_accepts_0_and_1_of_any_dtype(dtype):
    rows = as_rows(np.array([[0, 1], [1, 1]], dtype=dtype), 2)
    assert rows.dtype == np.uint8 and rows.tolist() == [[0, 1], [1, 1]]


def test_order_checks_are_decode_rows_on_one_hot_rows():
    """On step-one-hot rows, ``decode_rows``' verdicts are exactly the
    order-level checks of the rows' node orders."""
    rng = np.random.default_rng(104)
    seen = set()
    for _ in range(30):
        n, k = gen.random_small_shape(rng)
        inst = gen.make_random_instance(int(rng.integers(1 << 31)), n, k, low=0, high=2)
        orders = rng.integers(0, n, size=(50, k))
        for zero_is_edge in (False, True):
            model = build_qubo(inst, zero_is_edge=zero_is_edge)
            cluster_ok, tour_ok = order_checks(model, inst, orders)
            violations, _ = decode_rows(model, inst, encode_rows(n, orders))
            expected = [
                None if t else VIOLATION_EDGE if c else VIOLATION_CLUSTER
                for c, t in zip(cluster_ok.tolist(), tour_ok.tolist())
            ]
            assert violations == expected
            seen.update(violations)
    assert seen == {None, VIOLATION_CLUSTER, VIOLATION_EDGE}


def _reference_decode(model, inst, row):
    """Per-row reference: (first violated class or None, node order or None)."""
    n, k = model.n, model.k
    order = []
    for c in range(k):
        step = [int(b) for b in row[c * n : (c + 1) * n]]
        if sum(step) != 1:
            return VIOLATION_STEP, None
        order.append(step.index(1))
    clusters = [next(m for m, cl in enumerate(inst.clusters) if v in cl) for v in order]
    if sorted(clusters) != list(range(k)):
        return VIOLATION_CLUSTER, order
    if not model.zero_is_edge:
        for i in range(k):
            if inst.weights[order[i], order[(i + 1) % k]] == 0.0:
                return VIOLATION_EDGE, order
    return None, order


def test_decode_rows_matches_per_row_reference():
    rng = np.random.default_rng(103)
    census = {None: 0, VIOLATION_STEP: 0, VIOLATION_CLUSTER: 0, VIOLATION_EDGE: 0}
    for trial in range(40):
        n, k = gen.random_small_shape(rng)
        # about a third of the directed edges absent (zero weight)
        inst = gen.make_random_instance(int(rng.integers(1 << 31)), n, k, low=0, high=2)
        for zero_is_edge in (False, True):
            model = build_qubo(inst, zero_is_edge=zero_is_edge)
            rows = np.concatenate(
                [
                    rng.integers(0, 2, size=(20, model.num_vars), dtype=np.uint8),
                    # one set bit per step, so cluster and edge checks are reached
                    encode_rows(n, rng.integers(0, n, size=(60, k))),
                ]
            )
            violations, order = decode_rows(model, inst, rows)
            assert order.shape == (len(rows), k)
            for row, violation, got_order in zip(rows, violations, order):
                expected, expected_order = _reference_decode(model, inst, row)
                assert violation == expected
                census[violation] += 1
                if expected_order is None:
                    assert got_order.tolist() == [-1] * k
                else:
                    assert got_order.tolist() == expected_order
                verdict = decode(model, inst, row)
                assert verdict.violation == expected
                assert verdict.feasible == (expected is None)
                if expected is None:
                    assert verdict.tour == tuple(expected_order)
    assert all(count > 0 for count in census.values()), census


def test_decode_rows_violation_precedence():
    # node 1 -> node 0 is absent; clusters {0}, {1}, {2}
    w = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    inst = GtspInstance("prec", [[0], [1], [2]], w, symmetric=False)
    model = build_qubo(inst)

    rows = encode_rows(
        3,
        [
            [0, 0, 1],
            [1, 0, 1],  # cluster 1 twice, and the absent leg 1 -> 0
            [2, 1, 0],  # legs 2->1, 1->0 (absent), 0->2
            [0, 1, 2],
        ],
    )
    rows[0, 0 * 3 + 2] = 1  # step 0 holds two nodes
    violations, order = decode_rows(model, inst, rows)
    assert violations == [VIOLATION_STEP, VIOLATION_CLUSTER, VIOLATION_EDGE, None]
    assert order.tolist() == [[-1, -1, -1], [1, 0, 1], [2, 1, 0], [0, 1, 2]]
    relaxed = build_qubo(inst, zero_is_edge=True)
    violations, _ = decode_rows(relaxed, inst, rows)
    assert violations == [VIOLATION_STEP, VIOLATION_CLUSTER, None, None]


def test_energy_length_mismatch():
    model = gen.from_terms(2, 1, [], [], offset=0.0, lam=1.0)
    with pytest.raises(ValueError):
        energy(model, "101")


def test_encode_examples(toy_instance):
    model = build_qubo(toy_instance)
    assert bits_of(model.n, (0, 1)) == "1001"
    inst = gen.make_random_instance(seed=7, n=3, k=2)
    model3 = build_qubo(inst)
    tour = None
    for cand in all_feasible_tours(inst):
        if cand[0] == 2:
            tour = cand
            break
    bits = bits_of(model3.n, tour)
    assert bits[0 * 3 + tour[0]] == "1"
    assert sum(b == "1" for b in bits) == 2


def test_infeasible_tour_row_decodes_as_cluster_violation(toy_instance):
    """Encoding checks only the node range; the cluster check is the decoder's."""
    model = build_qubo(toy_instance)
    assert decode(model, toy_instance, bits_of(model.n, (0, 0))).violation == VIOLATION_CLUSTER


def test_encode_decode_roundtrip_all_tours():
    inst = gen.make_random_instance(seed=21, n=5, k=3)
    model = build_qubo(inst)
    seen = 0
    for tour in all_feasible_tours(inst):
        verdict = decode(model, inst, bits_of(model.n, tour))
        assert verdict.feasible and verdict.tour == tour
        seen += 1
    assert seen > 0


def test_decode_violation_classes():
    inst = gen.make_random_instance(seed=3, n=3, k=2)  # no zero-weight edges
    model = build_qubo(inst)
    two_in_step0 = encode_rows(3, [[0, 2]])[0]
    two_in_step0[0 * 3 + 1] = 1
    assert decode(model, inst, two_in_step0).violation == "StepOneHot"
    same_node_twice = bits_of(3, (0, 0))
    assert decode(model, inst, same_node_twice).violation == "ClusterOneHot"


def test_decode_missing_edge_and_zero_is_edge_flag():
    w = np.array([[0.0, 0.0, 2.0], [4.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    inst = GtspInstance("z", [[0, 1], [2]], w, symmetric=False)
    model = build_qubo(inst)
    # leg 0 -> 2 exists, leg 2 -> 0 exists
    assert decode(model, inst, bits_of(3, (0, 2))).feasible
    # leg 2 -> 1 has weight 3, leg 1 -> 2 has weight 3; feasible
    assert decode(model, inst, bits_of(3, (1, 2))).feasible

    w2 = np.array([[0.0, 0.0], [0.0, 0.0]])
    inst2 = GtspInstance("z2", [[0], [1]], w2, symmetric=True)
    model2 = build_qubo(inst2)
    bits2 = bits_of(2, (0, 1))
    assert decode(model2, inst2, bits2).violation == "MissingEdge"
    model2b = build_qubo(inst2, zero_is_edge=True)
    assert decode(model2b, inst2, bits2).feasible


def test_decode_census_matches_independent_checker():
    inst = gen.make_random_instance(seed=13, n=4, k=3)
    model = build_qubo(inst)

    def independent_feasible(bits: str) -> bool:
        n, k = 4, 3
        order = []
        for c in range(k):
            block = bits[c * n : (c + 1) * n]
            if block.count("1") != 1:
                return False
            order.append(block.index("1"))
        used = set()
        for v in order:
            m = next(i for i, cl in enumerate(inst.clusters) if v in cl)
            if m in used:
                return False
            used.add(m)
        if len(used) != k:
            return False
        return all(
            inst.weights[order[i], order[(i + 1) % k]] > 0 for i in range(k)
        )

    count_decode = 0
    count_oracle = 0
    for bits in all_bitstrings(12):
        if decode(model, inst, bits).feasible:
            count_decode += 1
        if independent_feasible(bits):
            count_oracle += 1
    assert count_decode == count_oracle > 0


def test_k2_double_transition_accumulates(toy_instance):
    model = build_qubo(toy_instance)
    # both cyclic transitions land on the same pair: w01 + w10 (no penalty part,
    # the two variables sit in different steps and different clusters)
    cost_pair = model.quadratic[(0 * 2 + 0, 1 * 2 + 1)]  # (step 0, node 0), (step 1, node 1)
    assert cost_pair == pytest.approx(10.0)


def test_feasible_energy_identity_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n, k = gen.random_small_shape(rng)
        inst = gen.make_random_instance(int(rng.integers(1 << 31)), n, k)
        model = build_qubo(inst)
        for tour in all_feasible_tours(inst):
            assert energy(model, bits_of(n, tour)) == pytest.approx(
                tour_cost(inst, tour), abs=1e-9
            )


def test_penalty_separation_small_exhaustive():
    rng = np.random.default_rng(7)
    for _ in range(5):
        inst = gen.make_random_instance(int(rng.integers(1 << 31)), 4, 3)
        model = build_qubo(inst)
        feasible_max = -np.inf
        infeasible_min = np.inf
        for bits in all_bitstrings(model.num_vars):
            e = energy(model, bits)
            if decode(model, inst, bits).feasible:
                feasible_max = max(feasible_max, e)
            else:
                infeasible_min = min(infeasible_min, e)
        assert infeasible_min > feasible_max


def test_export_json_roundtrip():
    """The JSON text of the export, read back by a dense evaluation of its
    own term lists (offset + x^T Q x, linear terms on the diagonal), gives
    every bitstring the model's energy."""
    inst = gen.make_random_instance(seed=17, n=4, k=2)
    model = build_qubo(inst)
    data = json.loads(json.dumps(to_json_dict(model)))
    assert data["n_vars"] == 8
    assert data["layout"] == {"n": 4, "k": 2}
    assert data["lambda"] == model.lam
    q = np.zeros((data["n_vars"], data["n_vars"]))
    for v, c in data["linear"]:
        q[v, v] += c
    for u, v, c in data["quadratic"]:
        q[u, v] += c
    bits = list(all_bitstrings(8))
    x = np.array([[int(b) for b in s] for s in bits], dtype=np.float64)
    dense = data["offset"] + np.einsum("ij,jk,ik->i", x, q, x)
    np.testing.assert_allclose(energies(model, bits), dense, rtol=0, atol=1e-9)


def test_export_coo_contains_all_terms():
    inst = gen.make_random_instance(seed=18, n=3, k=2)
    model = build_qubo(inst)
    text = to_coo_text(model)
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == len(model.linear) + len(model.quadratic)
    u, v, c = lines[0].split()
    assert u == v  # linear terms first, encoded on the diagonal


# --- the block build against the term-by-term build ----------------------------


def _reference_build(inst, zero_is_edge=False):
    """Term-by-term build: every term is added to a dict entry in stage order
    (cost, step cliques, cluster cliques, absent edges). Returns the linear
    and pair dicts, the offset and lambda."""
    n, k = inst.n, inst.k
    w = inst.weights
    lam = penalty_weight(inst)
    linear, quad = {}, {}
    offset = 0.0

    def var(c, i):  # flat id of (step c, node i)
        return c * n + i

    def add(u, v, c):
        key = (u, v) if u < v else (v, u)
        quad[key] = quad.get(key, 0.0) + c

    for c in range(k):
        for i in range(n):
            for j in range(n):
                if i != j and w[i, j] != 0.0:
                    add(var(c, i), var((c + 1) % k, j), float(w[i, j]))
    groups = [[var(c, i) for i in range(n)] for c in range(k)]
    groups += [[var(c, i) for c in range(k) for i in cl] for cl in inst.clusters]
    for group in groups:
        for pos, u in enumerate(group):
            linear[u] = linear.get(u, 0.0) - lam
            for v in group[pos + 1 :]:
                add(u, v, 2.0 * lam)
        offset += lam
    if not zero_is_edge:
        for c in range(k):
            for i in range(n):
                for j in range(n):
                    if i != j and w[i, j] == 0.0:
                        add(var(c, i), var((c + 1) % k, j), lam)
    return linear, quad, offset, lam


def _oracle_battery():
    """(instance, zero_is_edge) pairs with N in 2..10 and K = 2 every fourth
    case: integer weights, 3-decimal weights, and zero weights (absent
    edges) with and without zero_is_edge, symmetric every third case."""
    rng = np.random.default_rng(2024)
    cases = []
    for trial in range(160):
        n = int(rng.integers(2, 11))
        k = 2 if trial % 4 == 0 else int(rng.integers(2, min(n, 6) + 1))
        kind = trial % 5
        if kind == 0:
            w = rng.integers(1, 100, size=(n, n)).astype(float)
        elif kind == 1:
            w = rng.integers(1, 100_000, size=(n, n)) / 1000.0
        elif kind in (2, 3):
            w = rng.integers(0, 3, size=(n, n)).astype(float)
        else:
            w = rng.integers(0, 3000, size=(n, n)) / 1000.0 * (rng.random((n, n)) < 0.7)
        symmetric = trial % 3 == 0
        if symmetric:
            w = np.triu(w, 1) + np.triu(w, 1).T
        np.fill_diagonal(w, 0.0)
        clusters = gen.random_partition(n, k, rng)
        cases.append((GtspInstance(f"o{trial}", clusters, w, symmetric), kind == 3))
    return cases


def test_block_build_matches_term_build_bitwise():
    zero_cases = 0
    for inst, zero_is_edge in _oracle_battery():
        model = build_qubo(inst, zero_is_edge=zero_is_edge)
        linear, quad, offset, lam = _reference_build(inst, zero_is_edge)
        ref_q = np.zeros((model.num_vars, model.num_vars))
        for v, c in linear.items():
            ref_q[v, v] = c
        for (u, v), c in quad.items():
            ref_q[u, v] = c
        assert model.q.dtype == np.float64 and not model.q.flags.writeable
        assert model.q.tobytes() == ref_q.tobytes()
        assert type(model.offset) is float and model.offset == offset
        assert type(model.lam) is float and model.lam == lam
        assert model.linear == linear and model.quadratic == quad
        ref_json = {
            "n_vars": model.num_vars,
            "offset": offset,
            "lambda": lam,
            "linear": [[v, c] for v, c in sorted(linear.items())],
            "quadratic": [[u, v, c] for (u, v), c in sorted(quad.items())],
            "layout": {"n": inst.n, "k": inst.k},
        }
        assert repr(to_json_dict(model)) == repr(ref_json)
        ref_coo = [
            "# qubo coo v1",
            f"# n_vars {model.num_vars} offset {offset!r} lambda {lam!r} "
            f"n {inst.n} k {inst.k}",
        ]
        ref_coo += [f"{v} {v} {c!r}" for v, c in sorted(linear.items())]
        ref_coo += [f"{u} {v} {c!r}" for (u, v), c in sorted(quad.items())]
        assert to_coo_text(model) == "\n".join(ref_coo) + "\n"
        zero_cases += zero_is_edge
    assert zero_cases > 0


def test_from_terms_folds_pairs_and_adds_repeats():
    model = gen.from_terms(3, 1, [(2, 1.5), (2, 0.25)], [(2, 0, 3.0), (0, 2, 1.0)], 0.5, 1.0)
    assert model.linear == {2: 1.75}
    assert model.quadratic == {(0, 2): 4.0}
    assert energies(model, ["101", "001"]).tolist() == [0.5 + 1.75 + 4.0, 0.5 + 1.75]
    with pytest.raises(ValueError):
        model.q[0, 0] = 1.0
    for bad in ([(3, 1.0)], [(-1, 1.0)]):
        with pytest.raises(ValueError):
            gen.from_terms(3, 1, bad, [], 0.0, 1.0)
    with pytest.raises(ValueError):
        gen.from_terms(3, 1, [], [(0, 3, 1.0)], 0.0, 1.0)
