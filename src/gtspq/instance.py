"""GTSP instances: cluster partitions, weight matrices, and GTSPLIB-dialect I/O.

The file dialect is the TSPLIB line format (``KEY: VALUE`` header, then
sections) extended with ``GTSP_SETS`` / ``GTSP_SET_SECTION``. Coordinate-based
weight types (EUC_2D, CEIL_2D, GEO, ATT) are materialized into a full N x N
matrix at parse time using the TSPLIB rounding conventions, so downstream code
only ever sees an explicit matrix. Node ids are 1-based in files and 0-based
internally.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


class GtsplibError(ValueError):
    """Malformed or internally inconsistent GTSPLIB input."""


_WEIGHT_TYPES = ("EXPLICIT", "EUC_2D", "CEIL_2D", "GEO", "ATT")
_HEADER_KEYS = (
    "NAME",
    "TYPE",
    "COMMENT",
    "DIMENSION",
    "GTSP_SETS",
    "EDGE_WEIGHT_TYPE",
    "EDGE_WEIGHT_FORMAT",
)
_SECTION_KEYS = ("NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION", "GTSP_SET_SECTION")

# Maximum integer exactly representable in a float64 weight.
_EXACT_INT_LIMIT = 2**53


class GtspInstance:
    """A clustered routing instance: nodes, a cluster partition, and weights.

    ``name`` holds no '/' and no NUL: the CLI writes files named after it.
    ``clusters`` is a tuple of K disjoint, non-empty, sorted node-id tuples
    covering 0..N-1. ``weights`` is an N x N non-negative float64 matrix with a
    zero diagonal; it is frozen (non-writeable) after construction so instances
    can be shared across workers.
    """

    def __init__(
        self,
        name: str,
        clusters: Iterable[Iterable[int]],
        weights,
        symmetric: bool,
    ):
        self.name = str(name)
        if "/" in self.name or "\0" in self.name:  # the name is a file name part
            raise GtsplibError(f"instance name {self.name!r} holds '/' or NUL")
        self.clusters = tuple(tuple(sorted(int(v) for v in c)) for c in clusters)
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise GtsplibError("weight matrix must be square")
        self.weights = w
        self.weights.setflags(write=False)
        self.symmetric = bool(symmetric)
        self._validate()
        self.cluster_index = np.empty(self.n, dtype=np.intp)  # node -> cluster
        for m, cluster in enumerate(self.clusters):
            self.cluster_index[list(cluster)] = m
        self.cluster_index.setflags(write=False)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def k(self) -> int:
        return len(self.clusters)

    def _validate(self) -> None:
        n = self.weights.shape[0]
        if len(self.clusters) < 2:
            raise GtsplibError("instance needs at least 2 clusters")
        seen: set[int] = set()
        for cluster in self.clusters:
            if not cluster:
                raise GtsplibError("empty cluster")
            for v in cluster:
                if not 0 <= v < n:
                    raise GtsplibError(f"node id {v} out of range 0..{n - 1}")
                if v in seen:
                    raise GtsplibError(f"node {v} appears in two clusters")
                seen.add(v)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise GtsplibError(f"nodes missing from every cluster: {missing}")
        if not np.all(np.isfinite(self.weights)):
            raise GtsplibError("non-finite weight")
        if np.any(self.weights < 0):
            raise GtsplibError("negative weight")
        if np.any(np.diagonal(self.weights) != 0):
            raise GtsplibError("nonzero diagonal weight")
        if self.symmetric and not np.array_equal(self.weights, self.weights.T):
            raise GtsplibError("TYPE GTSP but weight matrix is not symmetric")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GtspInstance):
            return NotImplemented
        return (
            self.name == other.name
            and self.clusters == other.clusters
            and self.symmetric == other.symmetric
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"GtspInstance(name={self.name!r}, n={self.n}, k={self.k}, symmetric={self.symmetric})"


def tour_cost(inst: GtspInstance, order) -> float:
    """Total weight of the cyclic tour given as its K node ids in visiting
    order, closing leg included (see ``tour_costs``)."""
    if len(order) != inst.k:
        raise ValueError(f"tour length {len(order)} != cluster count {inst.k}")
    return float(tour_costs(inst, [order])[0])


def tour_costs(inst: GtspInstance, orders) -> np.ndarray:
    """Cyclic cost of every row of an (m, K) node-order array.

    Each row is rotated to start at its cluster-0 node (the first one, if the
    row holds several) and summed right to left,
    w[t0, t1] + (w[t1, t2] + (... + w[t_{K-1}, t0])), the association of the
    exact solver. On a symmetric instance the cost is the smaller of the two
    directions' sums. Every rotation of a tour (and, if symmetric, of its
    reversal) thus gets one cost, and no tour costs less than
    ``exact_solve``'s optimum, not even in the last bit. ValueError if the
    ids are not integers in 0..N-1.
    """
    orders = np.asarray(orders)
    if orders.dtype.kind not in "iu":
        raise ValueError("expected integer node ids")
    if not ((orders >= 0) & (orders < inst.n)).all():
        raise ValueError(f"node id outside 0..{inst.n - 1}")
    orders = orders.astype(np.intp, copy=False)
    k = inst.k
    first = np.argmax(inst.cluster_index[orders] == 0, axis=1)
    rot = np.take_along_axis(orders, (first[:, None] + np.arange(k)) % k, axis=1)
    total = _right_to_left_cost(inst.weights, rot)
    if inst.symmetric:
        reverse = rot[:, -np.arange(k)]  # t0, t_{K-1}, ..., t1
        total = np.minimum(total, _right_to_left_cost(inst.weights, reverse))
    return total


def _right_to_left_cost(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    legs = w[rows, np.roll(rows, -1, axis=1)]
    total = legs[:, -1]
    for c in range(rows.shape[1] - 2, -1, -1):
        total = legs[:, c] + total
    return total


def absent_edges(inst: GtspInstance) -> np.ndarray:
    """The (N, N) mask of the legs that are no edge: an off-diagonal weight
    of 0 (for the callers that do not take zero weights as edges)."""
    return (inst.weights == 0.0) & ~np.eye(inst.n, dtype=bool)


# --- TSPLIB distance conventions -------------------------------------------
# between two (x, y) coordinate pairs; GEO reads a pair as (latitude, longitude)

_GEO_PI = 3.141592
_GEO_RADIUS = 6378.388


def _nint(x: float) -> int:
    return int(x + 0.5)


def _euc_2d(a, b) -> float:
    return float(_nint(math.hypot(a[0] - b[0], a[1] - b[1])))


def _ceil_2d(a, b) -> float:
    return float(math.ceil(math.hypot(a[0] - b[0], a[1] - b[1])))


def _att(a, b) -> float:
    rij = math.sqrt(((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) / 10.0)
    tij = _nint(rij)
    return float(tij + 1 if tij < rij else tij)


def _geo_radians(value: float) -> float:
    deg = int(value)  # truncation toward zero, per the TSPLIB FAQ
    minutes = value - deg
    return _GEO_PI * (deg + 5.0 * minutes / 3.0) / 180.0


def _geo(a, b) -> float:
    lat_i, lon_i = map(_geo_radians, a)
    lat_j, lon_j = map(_geo_radians, b)
    q1 = math.cos(lon_i - lon_j)
    q2 = math.cos(lat_i - lat_j)
    q3 = math.cos(lat_i + lat_j)
    arg = 0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)
    arg = min(1.0, max(-1.0, arg))
    return float(int(_GEO_RADIUS * math.acos(arg) + 1.0))


_COORD_DISTANCE = {"EUC_2D": _euc_2d, "CEIL_2D": _ceil_2d, "GEO": _geo, "ATT": _att}


# --- parsing ----------------------------------------------------------------


class _TokenFeed:
    """Whitespace tokens pulled line by line; sections may span lines."""

    def __init__(self, lines: list[str], start: int):
        self.lines = lines
        self.pos = start
        self._buf: list[str] = []  # the line's unread tokens, in reverse order

    def take(self) -> str:
        while not self._buf:
            if self.pos >= len(self.lines):
                raise GtsplibError("unexpected end of file inside a section")
            self._buf = self.lines[self.pos].split()[::-1]
            self.pos += 1
        return self._buf.pop()

    def take_as(self, kind: type[float] | type[int]) -> float | int:
        """The next token as a float or an int."""
        tok = self.take()
        try:
            return kind(tok)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise GtsplibError(f"expected {what} inside a section, got {tok!r}") from None

    def end_section(self) -> int:
        """Position of the next unread line; leftover tokens are an error."""
        if self._buf:
            raise GtsplibError("extra data at end of section")
        return self.pos


def _parse_header_value(key: str, value: str, header: dict) -> None:
    if key in header:
        raise GtsplibError(f"duplicate header key {key}")
    if key in ("DIMENSION", "GTSP_SETS"):
        try:
            header[key] = int(value)
        except ValueError:
            raise GtsplibError(f"{key} must be an integer, got {value!r}") from None
    else:
        header[key] = value


def parse_gtsplib(text: str) -> GtspInstance:
    """Parse a GTSPLIB/TSPLIB-dialect file into a validated GtspInstance.

    Supports TYPE GTSP/AGTSP, EXPLICIT matrices (FULL_MATRIX, UPPER_ROW,
    LOWER_DIAG_ROW, UPPER_DIAG_ROW) and coordinate weight types EUC_2D,
    CEIL_2D, GEO, ATT. File node ids (1-based) become 0-based internally.
    """
    lines = text.splitlines()
    header: dict = {}
    coords: list[tuple[float, float]] | None = None
    matrix: np.ndarray | None = None
    set_records: list[tuple[int, list[int]]] | None = None

    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line.upper() == "EOF":
            break
        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            if key not in _HEADER_KEYS:
                raise GtsplibError(f"malformed header key {key!r}")
            _parse_header_value(key, value.strip(), header)
            continue
        keyword = line.upper()
        if keyword not in _SECTION_KEYS:
            raise GtsplibError(f"malformed header key {line!r}")
        n = header.get("DIMENSION")
        if n is None:
            raise GtsplibError(f"DIMENSION must precede {keyword}")
        feed = _TokenFeed(lines, i)
        if keyword == "NODE_COORD_SECTION":
            by_id: dict[int, tuple[float, float]] = {}  # grows as the coordinates arrive
            for _ in range(n):
                node_id = feed.take_as(int)
                x, y = feed.take_as(float), feed.take_as(float)
                if not (1 <= node_id <= n) or node_id in by_id:
                    raise GtsplibError(f"bad node id {node_id} in NODE_COORD_SECTION")
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise GtsplibError("non-finite coordinate")
                by_id[node_id] = (x, y)
            coords = [by_id[node_id] for node_id in range(1, n + 1)]
        elif keyword == "EDGE_WEIGHT_SECTION":
            fmt = header.get("EDGE_WEIGHT_FORMAT", "FULL_MATRIX").upper()
            if fmt not in _MATRIX_LAYOUT:
                raise GtsplibError(f"unsupported EDGE_WEIGHT_FORMAT {fmt!r}")
            matrix = _read_matrix(feed, n, fmt)
        else:  # GTSP_SET_SECTION
            k = header.get("GTSP_SETS")
            if k is None:
                raise GtsplibError("GTSP_SETS must precede GTSP_SET_SECTION")
            set_records = []
            for _ in range(k):
                set_id = feed.take_as(int)
                members: list[int] = []
                while (tok := feed.take()) != "-1":
                    try:
                        members.append(int(tok))
                    except ValueError:
                        raise GtsplibError(
                            f"expected a node id in GTSP_SET_SECTION, got {tok!r}"
                        ) from None
                set_records.append((set_id, members))
        i = feed.end_section()

    return _assemble(header, coords, matrix, set_records)


# per EDGE_WEIGHT_SECTION format: its value count, and the (row, column) of
# each value in file order
_MATRIX_LAYOUT = {
    "FULL_MATRIX": (lambda n: n * n, lambda n: divmod(np.arange(n * n), n)),
    "UPPER_ROW": (lambda n: n * (n - 1) // 2, lambda n: np.triu_indices(n, 1)),
    "UPPER_DIAG_ROW": (lambda n: n * (n + 1) // 2, lambda n: np.triu_indices(n)),
    "LOWER_DIAG_ROW": (lambda n: n * (n + 1) // 2, lambda n: np.tril_indices(n)),
}


def _read_matrix(feed: _TokenFeed, n: int, fmt: str) -> np.ndarray:
    """The section's values are read before anything is sized from ``n``, so
    a short section fails before a DIMENSION-sized allocation."""
    count, layout = _MATRIX_LAYOUT[fmt]
    values = np.array([feed.take_as(float) for _ in range(count(n))], dtype=np.float64)
    if np.any(values < 0):
        raise GtsplibError("negative weight")
    rows, cols = layout(n)
    w = np.zeros((n, n), dtype=np.float64)
    w[rows, cols] = values
    if fmt != "FULL_MATRIX":  # a triangle: mirror it
        w[cols, rows] = values
    np.fill_diagonal(w, 0.0)
    return w


def _assemble(header, coords, matrix, set_records) -> GtspInstance:
    for key in ("DIMENSION", "GTSP_SETS", "EDGE_WEIGHT_TYPE"):
        if key not in header:
            raise GtsplibError(f"missing header key {key}")
    n = header["DIMENSION"]
    k = header["GTSP_SETS"]
    if n < 2 or k < 2 or k > n:
        raise GtsplibError(f"inconsistent DIMENSION={n} / GTSP_SETS={k}")
    type_key = header.get("TYPE", "GTSP").upper()
    if type_key not in ("GTSP", "AGTSP"):
        raise GtsplibError(f"unsupported TYPE {type_key!r}")
    ew_type = header["EDGE_WEIGHT_TYPE"].upper()
    if ew_type not in _WEIGHT_TYPES:
        raise GtsplibError(f"unsupported EDGE_WEIGHT_TYPE {ew_type!r}")

    if ew_type == "EXPLICIT":
        if matrix is None:
            raise GtsplibError("EXPLICIT weights but no EDGE_WEIGHT_SECTION")
        weights = matrix
    else:
        if coords is None:
            raise GtsplibError(f"{ew_type} weights but no NODE_COORD_SECTION")
        dist = _COORD_DISTANCE[ew_type]
        weights = np.zeros((n, n), dtype=np.float64)
        for a in range(n):
            for b in range(a + 1, n):
                weights[a, b] = weights[b, a] = dist(coords[a], coords[b])

    if set_records is None:
        raise GtsplibError("missing GTSP_SET_SECTION")
    if sorted(sid for sid, _ in set_records) != list(range(1, k + 1)):
        raise GtsplibError("GTSP_SET_SECTION set ids are not exactly 1..GTSP_SETS")
    clusters: list[list[int]] = [[] for _ in range(k)]
    for sid, members in sorted(set_records):
        if not members:
            raise GtsplibError(f"cluster {sid} is empty")
        for m in members:
            if not 1 <= m <= n:
                raise GtsplibError(f"node id {m} out of range in GTSP_SET_SECTION")
            clusters[sid - 1].append(m - 1)

    symmetric = type_key == "GTSP"
    return GtspInstance(
        name=header.get("NAME", ""),
        clusters=clusters,
        weights=weights,
        symmetric=symmetric,
    )


# --- serialization ----------------------------------------------------------


def _format_weight(x: float) -> str:
    x = float(x)
    if x == int(x) and abs(x) < _EXACT_INT_LIMIT:
        return str(int(x))
    return repr(x)


def serialize_gtsplib(inst: GtspInstance) -> str:
    """Emit the instance with materialized EXPLICIT/FULL_MATRIX weights.

    Integer weights are written bit-exactly; re-parsing the output yields an
    equal GtspInstance.
    """
    out = [
        f"NAME: {inst.name}",
        f"TYPE: {'GTSP' if inst.symmetric else 'AGTSP'}",
        f"DIMENSION: {inst.n}",
        f"GTSP_SETS: {inst.k}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    for row in inst.weights:
        out.append(" ".join(_format_weight(x) for x in row))
    out.append("GTSP_SET_SECTION")
    for m, cluster in enumerate(inst.clusters):
        ids = " ".join(str(v + 1) for v in cluster)
        out.append(f"{m + 1} {ids} -1")
    out.append("EOF")
    return "\n".join(out) + "\n"
