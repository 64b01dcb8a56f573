from __future__ import annotations

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from gtspq import instance
from gtspq.instance import (
    GtsplibError,
    GtspInstance,
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


@pytest.mark.parametrize(
    "orders, message",
    [
        ([[-1, 0]], "outside 0..2"),  # would wrap to node 2
        ([[1, 5]], "outside 0..2"),
        ([[0, 3]], "outside 0..2"),
        ([[0.5, 2.7]], "integer"),  # would truncate to (0, 2)
        (np.array([[0.0, 2.0]]), "integer"),
    ],
    ids=["minus-1", "5", "n", "fractional", "float-array"],
)
def test_tour_costs_rejects_bad_node_ids(orders, message):
    inst = GtspInstance("f", [[0, 1], [2]], [[0, 1, 4], [1, 0, 6], [4, 6, 0]], symmetric=True)
    assert tour_costs(inst, [[0, 2], [2, 1]]).tolist() == [8.0, 12.0]
    with pytest.raises(ValueError, match=message):
        tour_costs(inst, orders)
    with pytest.raises(ValueError, match=message):
        tour_cost(inst, orders[0])


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


def test_instance_name_with_slash_or_nul_is_rejected(toy_text):
    """The name is a file name part in the CLI, so it may not leave its
    directory; '..' and an empty name stay inside it and are allowed."""
    w = [[0.0, 1.0], [1.0, 0.0]]
    for name in ("../../escaped", "a/b", "/", "nul\0byte"):
        with pytest.raises(GtsplibError, match="holds '/' or NUL"):
            GtspInstance(name, [[0], [1]], w, symmetric=True)
        with pytest.raises(GtsplibError, match="holds '/' or NUL"):
            parse_gtsplib(toy_text.replace("NAME: toy", f"NAME: {name}"))
    for name in ("..", "", "a.b c"):
        assert GtspInstance(name, [[0], [1]], w, symmetric=True).name == name


# --- every parser error ---------------------------------------------------------

_SETS3 = ["1 1 2 -1", "2 3 -1"]
_EXPLICIT3 = _explicit_file(3, 2, ["0 1 2", "1 0 3", "2 3 0"], "FULL_MATRIX", _SETS3)
_COORDS3 = _coord_file("EUC_2D", [(0, 0), (3, 4), (6, 8)], _SETS3, 3, 2)


def _swap(old, new, text=_EXPLICIT3):
    assert old in text
    return text.replace(old, new)


_PARSER_ERRORS = {
    "end-of-file": (_EXPLICIT3.split("1 0 3")[0], "unexpected end of file inside a section"),
    "matrix-short": (
        _swap("2 3 0\n", "2 3\n"),
        "expected a number inside a section, got 'GTSP_SET_SECTION'",
    ),
    "extra-data": (_swap("2 3 0\n", "2 3 0 9\n"), "extra data at end of section"),
    "coord-id-0": (_swap("1 0 0", "0 0 0", _COORDS3), "bad node id 0 in NODE_COORD_SECTION"),
    "coord-id-above-n": (_swap("3 6 8", "4 6 8", _COORDS3), "bad node id 4"),
    "coord-id-twice": (_swap("3 6 8", "2 6 8", _COORDS3), "bad node id 2"),
    "coord-id-float": (
        _swap("3 6 8", "3.0 6 8", _COORDS3),
        "expected an integer inside a section, got '3.0'",
    ),
    "coord-nan": (_swap("3 6 8", "3 nan 8", _COORDS3), "non-finite coordinate"),
    "coord-word": (_swap("3 6 8", "3 six 8", _COORDS3), "expected a number inside a section, got 'six'"),
    "weight-word": (_swap("1 0 3", "1 zero 3"), "expected a number inside a section, got 'zero'"),
    "set-id-word": (_swap("2 3 -1", "two 3 -1"), "expected an integer inside a section, got 'two'"),
    "member-word": (_swap("2 3 -1", "2 three -1"), "expected a node id in GTSP_SET_SECTION, got 'three'"),
    "member-0": (_swap("2 3 -1", "2 3 0 -1"), "node id 0 out of range in GTSP_SET_SECTION"),
    "member-above-n": (_swap("2 3 -1", "2 3 4 -1"), "node id 4 out of range in GTSP_SET_SECTION"),
    "no-dimension": (_swap("DIMENSION: 3\n", ""), "DIMENSION must precede EDGE_WEIGHT_SECTION"),
    "late-dimension": (
        _swap("DIMENSION: 3\n", "").replace("EOF", "DIMENSION: 3\nEOF"),
        "DIMENSION must precede EDGE_WEIGHT_SECTION",
    ),
    "header-only": ("NAME: x\nTYPE: GTSP\nEOF\n", "missing header key DIMENSION"),
    "dimension-word": (_swap("DIMENSION: 3", "DIMENSION: three"), "DIMENSION must be an integer"),
    "no-sets-count": (_swap("GTSP_SETS: 2\n", ""), "GTSP_SETS must precede GTSP_SET_SECTION"),
    "late-sets-count": (
        _swap("GTSP_SETS: 2\n", "").replace("EOF", "GTSP_SETS: 2\nEOF"),
        "GTSP_SETS must precede GTSP_SET_SECTION",
    ),
    "one-set": (
        _swap("GTSP_SETS: 2", "GTSP_SETS: 1").replace("1 1 2 -1\n2 3 -1", "1 1 2 3 -1"),
        "inconsistent DIMENSION=3 / GTSP_SETS=1",
    ),
    "set-ids-0-1": (_swap("1 1 2 -1\n2 3 -1", "0 1 2 -1\n1 3 -1"), "set ids are not exactly 1..GTSP_SETS"),
    "set-id-twice": (_swap("1 1 2 -1\n2 3 -1", "1 1 2 -1\n1 3 -1"), "set ids are not exactly 1..GTSP_SETS"),
    "set-id-3": (_swap("1 1 2 -1\n2 3 -1", "1 1 2 -1\n3 3 -1"), "set ids are not exactly 1..GTSP_SETS"),
    "empty-cluster": (_swap("1 1 2 -1\n2 3 -1", "1 1 2 3 -1\n2 -1"), "cluster 2 is empty"),
    "format": (_swap("FULL_MATRIX", "LOWER_ROW"), "unsupported EDGE_WEIGHT_FORMAT 'LOWER_ROW'"),
    "type": (_swap("TYPE: GTSP", "TYPE: TSP"), "unsupported TYPE 'TSP'"),
    "duplicate-key": (_swap("NAME: x", "NAME: x\nNAME: y"), "duplicate header key NAME"),
    "section-keyword": (
        _swap("GTSP_SET_SECTION", "GTSP_SET_SECTIONS"),
        "malformed header key 'GTSP_SET_SECTIONS'",
    ),
    "no-weight-type": (_swap("EDGE_WEIGHT_TYPE: EXPLICIT\n", ""), "missing header key EDGE_WEIGHT_TYPE"),
    "no-matrix": (
        _swap("EDGE_WEIGHT_SECTION\n0 1 2\n1 0 3\n2 3 0\n", ""),
        "EXPLICIT weights but no EDGE_WEIGHT_SECTION",
    ),
    "no-coords": (
        _swap("NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 6 8\n", "", _COORDS3),
        "EUC_2D weights but no NODE_COORD_SECTION",
    ),
    "no-sets": (_swap("GTSP_SET_SECTION\n1 1 2 -1\n2 3 -1\n", ""), "missing GTSP_SET_SECTION"),
    "negative-diagonal": (
        _explicit_file(3, 2, ["-1 1 2", "0 3", "0"], "UPPER_DIAG_ROW", _SETS3),
        "negative weight",
    ),
    "inf-weight": (_swap("1 0 3", "1 0 inf").replace("TYPE: GTSP", "TYPE: AGTSP"), "non-finite weight"),
    "nan-weight": (_explicit_file(3, 2, ["1 nan", "3"], "UPPER_ROW", _SETS3), "non-finite weight"),
    "node-in-no-cluster": (_swap("1 1 2 -1\n2 3 -1", "1 1 -1\n2 2 -1"), "nodes missing from every cluster: [2]"),
}


@pytest.mark.parametrize("text, message", _PARSER_ERRORS.values(), ids=_PARSER_ERRORS.keys())
def test_parser_errors(text, message):
    """Each fault the parser knows is a GtsplibError that says what it is."""
    assert parse_gtsplib(_EXPLICIT3).n == 3 and parse_gtsplib(_COORDS3).n == 3
    with pytest.raises(GtsplibError, match=re.escape(message)):
        parse_gtsplib(text)


# --- the layout table against the per-format loops ----------------------------------


def _reference_read_matrix(tokens, n, fmt):
    """The parser's matrix reader as it was written before its layout table:
    one loop per EDGE_WEIGHT_FORMAT, each value checked as it is read."""
    feed = iter(tokens)

    def val():
        v = float(next(feed))
        if v < 0:
            raise GtsplibError("negative weight")
        return v

    w = np.zeros((n, n), dtype=np.float64)
    if fmt == "FULL_MATRIX":
        for r in range(n):
            for c in range(n):
                w[r, c] = val()
    elif fmt == "UPPER_ROW":
        for r in range(n):
            for c in range(r + 1, n):
                w[r, c] = w[c, r] = val()
    elif fmt == "UPPER_DIAG_ROW":
        for r in range(n):
            for c in range(r, n):
                x = val()
                if r != c:
                    w[r, c] = w[c, r] = x
    else:  # LOWER_DIAG_ROW
        for r in range(n):
            for c in range(r + 1):
                x = val()
                if r != c:
                    w[r, c] = w[c, r] = x
    np.fill_diagonal(w, 0.0)
    return w


_VALUE_COUNT = {
    "FULL_MATRIX": lambda n: n * n,
    "UPPER_ROW": lambda n: n * (n - 1) // 2,
    "UPPER_DIAG_ROW": lambda n: n * (n + 1) // 2,
    "LOWER_DIAG_ROW": lambda n: n * (n + 1) // 2,
}


def _random_tokens(rng, count, kind):
    if kind == "int":
        return [str(v) for v in rng.integers(0, 1000, size=count)]
    if kind == "ties":
        return [str(v) for v in rng.choice([0, 1, 2], size=count)]
    values = rng.random(count) * 10.0 ** rng.integers(-4, 7, size=count)
    tokens = [repr(float(v)) for v in values]
    for i in rng.integers(0, count, size=min(count, 3)):  # signed zero, tiny, inexact
        tokens[i] = str(rng.choice(["-0.0", "0", "1e-300", "0.1"]))
    return tokens


@pytest.mark.parametrize("fmt", _VALUE_COUNT)
@pytest.mark.parametrize("kind", ["int", "float", "ties"])
def test_read_matrix_matches_the_per_format_loops(fmt, kind):
    """Bit for bit (a -0.0 included) on random values, diagonal values of
    the diagonal formats included, with the tokens split across lines at
    random; a negative value is the same error."""
    rng = np.random.default_rng(list((fmt + kind).encode()))
    for _ in range(40):
        n = int(rng.integers(1, 14))
        tokens = _random_tokens(rng, _VALUE_COUNT[fmt](n), kind)
        cuts = sorted(rng.integers(0, len(tokens) + 1, size=3))
        lines = [" ".join(part) for part in np.split(np.array(tokens, dtype=object), cuts)]
        got = instance._read_matrix(instance._TokenFeed(lines, 0), n, fmt)
        expected = _reference_read_matrix(tokens, n, fmt)
        assert got.tobytes() == expected.tobytes()
        if tokens:
            tokens[int(rng.integers(0, len(tokens)))] = "-3"
            with pytest.raises(GtsplibError, match="negative weight"):
                instance._read_matrix(instance._TokenFeed([" ".join(tokens)], 0), n, fmt)
            with pytest.raises(GtsplibError, match="negative weight"):
                _reference_read_matrix(tokens, n, fmt)


@pytest.mark.parametrize("kind", ["int", "float", "ties"])
def test_asymmetric_full_matrix_files_parse_as_the_loops_read_them(kind):
    rng = np.random.default_rng(["int", "float", "ties"].index(kind))
    for _ in range(20):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(2, n + 1))
        tokens = _random_tokens(rng, n * n, kind)
        rows = [" ".join(tokens[r * n : (r + 1) * n]) for r in range(n)]
        clusters = gen.random_partition(n, k, rng)
        sets = [f"{m + 1} {' '.join(str(v + 1) for v in c)} -1" for m, c in enumerate(clusters)]
        text = _explicit_file(n, k, rows, "FULL_MATRIX", sets).replace("TYPE: GTSP", "TYPE: AGTSP")
        weights = parse_gtsplib(text).weights
        assert weights.tobytes() == _reference_read_matrix(tokens, n, "FULL_MATRIX").tobytes()


# --- the parser's cost follows its data -------------------------------------------


@pytest.mark.parametrize("section", [*_VALUE_COUNT, "NODE_COORD_SECTION"])
def test_a_large_dimension_allocates_nothing_ahead_of_the_data(section):
    """A three-row section under a large DIMENSION fails at its missing data
    having allocated nothing sized by DIMENSION: not 2000^2 float64 weights
    (32 MB) and their index tables, nor a list of 200000 coordinates."""
    if section == "NODE_COORD_SECTION":
        text = _swap("DIMENSION: 3", "DIMENSION: 200000", _COORDS3)
    else:
        text = _explicit_file(2000, 2, ["0 1 2", "1 0 3", "2 3 0"], section, _SETS3)
    tracemalloc.start()
    try:
        with pytest.raises(GtsplibError, match="inside a section, got 'GTSP_SET_SECTION'"):
            parse_gtsplib(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_a_section_on_one_line_parses_in_linear_time():
    """TSPLIB lets a whole section sit on one line. A 300-node matrix on one
    line parses about as fast as the same matrix one row per line; a token
    read that shifts the rest of its line made it about 20 times slower."""
    n = 300
    tokens = [str(v) for v in np.random.default_rng(8).integers(1, 100, size=n * n)]
    sets = [f"1 {' '.join(map(str, range(1, 151)))} -1", f"2 {' '.join(map(str, range(151, 301)))} -1"]

    def best_time(rows):
        text = _explicit_file(n, 2, rows, "FULL_MATRIX", sets).replace("TYPE: GTSP", "TYPE: AGTSP")
        times = []
        for _ in range(3):
            started = time.perf_counter()
            parse_gtsplib(text)
            times.append(time.perf_counter() - started)
        return min(times)

    per_row = best_time([" ".join(tokens[r * n : (r + 1) * n]) for r in range(n)])
    assert best_time([" ".join(tokens)]) < 3 * per_row
