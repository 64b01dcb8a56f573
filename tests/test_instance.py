from __future__ import annotations

import math

import numpy as np
import pytest

from gtspq.instance import (
    GtsplibError,
    GtspInstance,
    is_feasible_tour,
    parse_gtsplib,
    serialize_gtsplib,
    tour_cost,
    tour_costs,
)

import gen


def test_parse_toy_explicit_matrix(toy_instance):
    inst = toy_instance
    assert inst.n == 2 and inst.k == 2
    assert inst.symmetric is True
    assert inst.weights.tolist() == [[0.0, 5.0], [5.0, 0.0]]
    assert inst.clusters == ((0,), (1,))


def test_tour_cost_symmetric_cycle(toy_instance):
    assert tour_cost(toy_instance, (0, 1)) == 10.0


def test_tour_cost_asymmetric_two_leg_cycle():
    inst = GtspInstance(
        "two", [[0], [1]], [[0.0, 3.0], [7.0, 0.0]], symmetric=False
    )
    assert tour_cost(inst, (0, 1)) == 10.0
    assert tour_cost(inst, (1, 0)) == 10.0


def test_tour_cost_rejects_wrong_length(toy_instance):
    with pytest.raises(ValueError):
        tour_cost(toy_instance, (0,))


def test_tour_cost_matches_independent_resummation():
    inst = gen.make_random_instance(seed=11, n=4, k=4)
    import itertools

    for perm in itertools.permutations(range(4)):
        expected = 0.0
        for pos in range(4):
            a = perm[pos]
            b = perm[(pos + 1) % 4]
            expected += float(inst.weights[a][b])
        assert tour_cost(inst, perm) == pytest.approx(expected, abs=1e-12)


def test_is_feasible_tour_cases():
    inst = GtspInstance(
        "f",
        [[0, 1], [2]],
        np.ones((3, 3)) - np.eye(3),
        symmetric=True,
    )
    assert is_feasible_tour(inst, (0, 2)) is True
    assert is_feasible_tour(inst, (0, 1)) is False
    assert is_feasible_tour(inst, (2, 0)) is True
    assert is_feasible_tour(inst, (0,)) is False
    assert is_feasible_tour(inst, (0, 9)) is False
    assert is_feasible_tour(inst, (-1, 2)) is False
    assert is_feasible_tour(inst, np.array([2, 1])) is True
    assert is_feasible_tour(inst, [[0, 2]]) is False  # a batch of one is not a tour
    assert is_feasible_tour(inst, (0.5, 2.7)) is False  # ids are not truncated to (0, 2)


def test_cyclic_invariance_rotation_and_reversal():
    sym = gen.make_random_instance(seed=3, n=6, k=3, symmetric=True)
    asym = gen.make_random_instance(seed=4, n=6, k=3, symmetric=False)
    for inst in (sym, asym):
        order = tuple(c[0] for c in inst.clusters)
        base = tour_cost(inst, order)
        for r in range(1, 3):
            rotated = order[r:] + order[:r]
            assert tour_cost(inst, rotated) == pytest.approx(base)
    sym_order = tuple(c[0] for c in sym.clusters)
    assert tour_cost(sym, sym_order[::-1]) == pytest.approx(tour_cost(sym, sym_order))


def _right_to_left(w, order):
    total = float(w[order[-1], order[0]])
    for pos in range(len(order) - 2, -1, -1):
        total = float(w[order[pos], order[pos + 1]]) + total
    return total


@pytest.mark.parametrize("symmetric", [False, True])
def test_tour_cost_one_value_per_rotation_on_decimal_weights(symmetric):
    """Rotations (and, when symmetric, reversals) agree bit for bit: each is
    summed right to left from its cluster-0 node, a symmetric tour taking the
    smaller direction; the batch form matches the scalar one."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, k = 9, 5
        w = rng.integers(1, 100_000, size=(n, n)) / 1000.0
        if symmetric:
            w = np.triu(w, 1) + np.triu(w, 1).T
        np.fill_diagonal(w, 0.0)
        inst = GtspInstance("d", gen.random_partition(n, k, rng), w, symmetric=symmetric)
        order = tuple(int(rng.choice(c)) for c in inst.clusters)  # cluster-0 node first
        expected = _right_to_left(w, order)
        tours = [order[r:] + order[:r] for r in range(k)]
        if symmetric:
            expected = min(expected, _right_to_left(w, (order[0],) + order[:0:-1]))
            tours += [t[::-1] for t in tours]
        assert [tour_cost(inst, t) for t in tours] == [expected] * len(tours)
        assert tour_costs(inst, tours).tolist() == [expected] * len(tours)


def test_roundtrip_random_instances():
    for seed in range(8):
        inst = gen.make_random_instance(seed=seed, n=7, k=3, symmetric=bool(seed % 2))
        again = parse_gtsplib(serialize_gtsplib(inst))
        assert again == inst


def test_roundtrip_float_weights():
    w = np.array([[0.0, 1.5], [2.25, 0.0]])
    inst = GtspInstance("floaty", [[0], [1]], w, symmetric=False)
    again = parse_gtsplib(serialize_gtsplib(inst))
    assert again == inst
    assert "1.5" in serialize_gtsplib(inst)


def test_roundtrip_integer_weights_bit_exact():
    inst = gen.make_random_instance(seed=5, n=5, k=2)
    text = serialize_gtsplib(inst)
    assert parse_gtsplib(text).weights.tolist() == inst.weights.tolist()
    # integer weights are rendered without a decimal point
    section = text.split("EDGE_WEIGHT_SECTION\n")[1].split("GTSP_SET_SECTION")[0]
    assert "." not in section


# --- explicit formats ---------------------------------------------------------


def _explicit_file(n, k, rows, fmt, sets):
    lines = [
        "NAME: x",
        "TYPE: GTSP",
        f"DIMENSION: {n}",
        f"GTSP_SETS: {k}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        f"EDGE_WEIGHT_FORMAT: {fmt}",
        "EDGE_WEIGHT_SECTION",
        *rows,
        "GTSP_SET_SECTION",
        *sets,
        "EOF",
    ]
    return "\n".join(lines) + "\n"


_SYM = np.array(
    [
        [0, 2, 3, 4],
        [2, 0, 5, 6],
        [3, 5, 0, 7],
        [4, 6, 7, 0],
    ],
    dtype=float,
)
_SETS4 = ["1 1 2 -1", "2 3 4 -1"]


@pytest.mark.parametrize(
    "fmt,rows",
    [
        ("FULL_MATRIX", ["0 2 3 4", "2 0 5 6", "3 5 0 7", "4 6 7 0"]),
        ("UPPER_ROW", ["2 3 4", "5 6", "7"]),
        ("UPPER_DIAG_ROW", ["0 2 3 4", "0 5 6", "0 7", "0"]),
        ("LOWER_DIAG_ROW", ["0", "2 0", "3 5 0", "4 6 7 0"]),
    ],
)
def test_explicit_formats_agree(fmt, rows):
    inst = parse_gtsplib(_explicit_file(4, 2, rows, fmt, _SETS4))
    assert inst.weights.tolist() == _SYM.tolist()


def test_matrix_tokens_may_span_lines():
    rows = ["0 2 3", "4 2 0 5 6 3 5", "0 7 4 6 7 0"]
    inst = parse_gtsplib(_explicit_file(4, 2, rows, "FULL_MATRIX", _SETS4))
    assert inst.weights.tolist() == _SYM.tolist()


# --- coordinate weight types --------------------------------------------------


def _coord_file(ew_type, coords, sets, n, k, type_key="GTSP"):
    lines = [
        "NAME: c",
        f"TYPE: {type_key}",
        f"DIMENSION: {n}",
        f"GTSP_SETS: {k}",
        f"EDGE_WEIGHT_TYPE: {ew_type}",
        "NODE_COORD_SECTION",
        *(f"{i + 1} {x} {y}" for i, (x, y) in enumerate(coords)),
        "GTSP_SET_SECTION",
        *sets,
        "EOF",
    ]
    return "\n".join(lines) + "\n"


def test_euc_2d_rounds_to_nearest():
    coords = [(0.0, 0.0), (3.0, 4.0), (1.0, 1.0)]
    inst = parse_gtsplib(_coord_file("EUC_2D", coords, ["1 1 2 -1", "2 3 -1"], 3, 2))
    # independent: distances 5.0, sqrt(2)=1.414.. -> 1, sqrt(13)=3.605.. -> 4
    assert inst.weights[0, 1] == 5.0
    assert inst.weights[0, 2] == 1.0
    assert inst.weights[1, 2] == 4.0


def test_ceil_2d_rounds_up():
    coords = [(0.0, 0.0), (1.0, 1.0)]
    inst = parse_gtsplib(_coord_file("CEIL_2D", coords, ["1 1 -1", "2 2 -1"], 2, 2))
    assert inst.weights[0, 1] == 2.0  # ceil(sqrt(2))


def test_att_pseudo_euclidean():
    coords = [(0.0, 0.0), (10.0, 10.0)]
    inst = parse_gtsplib(_coord_file("ATT", coords, ["1 1 -1", "2 2 -1"], 2, 2))
    # independent: r = sqrt(200/10) = sqrt(20) = 4.4721; nint -> 4 < r -> 5
    assert inst.weights[0, 1] == 5.0


def test_geo_formula():
    coords = [(36.26, 59.6), (35.68, 51.42)]  # degrees.minutes pairs
    inst = parse_gtsplib(_coord_file("GEO", coords, ["1 1 -1", "2 2 -1"], 2, 2))

    def to_rad(v):
        deg = int(v)
        return 3.141592 * (deg + 5.0 * (v - deg) / 3.0) / 180.0

    lat1, lon1 = to_rad(36.26), to_rad(59.6)
    lat2, lon2 = to_rad(35.68), to_rad(51.42)
    q1 = math.cos(lon1 - lon2)
    q2 = math.cos(lat1 - lat2)
    q3 = math.cos(lat1 + lat2)
    expected = int(6378.388 * math.acos(0.5 * ((1 + q1) * q2 - (1 - q1) * q3)) + 1.0)
    assert inst.weights[0, 1] == float(expected)
    assert expected > 0


# --- errors -------------------------------------------------------------------


def test_error_malformed_header_key(toy_text):
    with pytest.raises(GtsplibError, match="header key"):
        parse_gtsplib(toy_text.replace("NAME:", "NOPE:"))


def test_error_unsupported_weight_type(toy_text):
    with pytest.raises(GtsplibError, match="EDGE_WEIGHT_TYPE"):
        parse_gtsplib(toy_text.replace("EXPLICIT", "XRAY"))


def test_error_negative_weight(toy_text):
    with pytest.raises(GtsplibError, match="negative"):
        parse_gtsplib(toy_text.replace("0 5", "0 -5"))


def test_error_node_in_two_clusters(toy_text):
    with pytest.raises(GtsplibError, match="two clusters"):
        parse_gtsplib(toy_text.replace("2 2 -1", "2 1 2 -1"))


def test_error_node_in_no_cluster():
    text = _explicit_file(3, 2, ["0 1 1", "1 0 1", "1 1 0"], "FULL_MATRIX", ["1 1 -1", "2 3 -1"])
    with pytest.raises(GtsplibError, match="missing"):
        parse_gtsplib(text)


def test_error_dimension_inconsistent_with_matrix(toy_text):
    with pytest.raises(GtsplibError):
        parse_gtsplib(toy_text.replace("DIMENSION: 2", "DIMENSION: 3"))


def test_error_asymmetric_matrix_with_gtsp_type():
    text = _explicit_file(2, 2, ["0 5", "6 0"], "FULL_MATRIX", ["1 1 -1", "2 2 -1"])
    with pytest.raises(GtsplibError, match="symmetric"):
        parse_gtsplib(text)


def test_agtsp_type_allows_asymmetric():
    text = _explicit_file(2, 2, ["0 5", "6 0"], "FULL_MATRIX", ["1 1 -1", "2 2 -1"]).replace(
        "TYPE: GTSP", "TYPE: AGTSP"
    )
    inst = parse_gtsplib(text)
    assert inst.symmetric is False
    assert inst.weights[1, 0] == 6.0


def test_table_fixture_shapes_match():
    for name, n, k in gen.SUBSAMPLE_SMALL + gen.SUBSAMPLE_MEDIUM:
        inst = gen.subsample_instance(name, n, k)
        reparsed = parse_gtsplib(serialize_gtsplib(inst))
        assert (reparsed.n, reparsed.k) == (n, k)
    for name, _, og_n, k in gen.PREPROCESS_SMALL + gen.PREPROCESS_MEDIUM:
        inst = gen.preprocess_original(name, _, og_n, k)
        reparsed = parse_gtsplib(serialize_gtsplib(inst))
        assert (reparsed.n, reparsed.k) == (og_n, k)


def test_nodecoord_finite_required():
    text = _coord_file("EUC_2D", [(0.0, 0.0), ("nan", 1.0)], ["1 1 -1", "2 2 -1"], 2, 2)
    with pytest.raises(GtsplibError, match="finite"):
        parse_gtsplib(text)
