"""One-hot QUBO for clustered tours.

Binary variable x_{c,i} (one per step c and node i, flat id c*N + i) means
"node i is visited at step c". The energy is

    E_cost + lambda * (p0 + p1 + p2)

where E_cost sums w_ij over consecutive-step variable pairs (cyclically),
p0 squares (step sum - 1) per step, p1 squares (cluster sum - 1) per cluster,
and p2 adds 1 for every consecutive-step pair traversing a zero-weight
(absent) edge. lambda is the sum of the K largest directed edge weights plus
one, an upper bound on any valid tour cost. On a feasible tour all penalties
vanish and the energy equals the cyclic tour cost exactly; for K = 2 both
cyclic transitions accumulate on the same variable pair, matching the
two-leg cycle cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instance import GtspInstance, Tour, is_feasible_tour

VIOLATION_STEP = "StepOneHot"
VIOLATION_CLUSTER = "ClusterOneHot"
VIOLATION_EDGE = "MissingEdge"


@dataclass(frozen=True)
class QuboModel:
    """Sparse quadratic model over the (step, node) one-hot layout."""

    n: int
    k: int
    linear: dict[int, float]
    quadratic: dict[tuple[int, int], float]
    offset: float
    lam: float
    zero_is_edge: bool = False

    @property
    def num_vars(self) -> int:
        return self.n * self.k

    def to_dense(self) -> tuple[np.ndarray, float]:
        """Upper-triangular coefficient matrix (linear on the diagonal)."""
        q = np.zeros((self.num_vars, self.num_vars), dtype=np.float64)
        if self.linear:
            lin = np.fromiter(self.linear.keys(), dtype=np.intp, count=len(self.linear))
            q[lin, lin] = np.fromiter(self.linear.values(), dtype=np.float64, count=len(lin))
        if self.quadratic:
            pairs = np.array(list(self.quadratic.keys()), dtype=np.intp)
            q[pairs[:, 0], pairs[:, 1]] = np.fromiter(
                self.quadratic.values(), dtype=np.float64, count=len(pairs)
            )
        return q, self.offset


@dataclass(frozen=True)
class IsingModel:
    """Spin (+/-1) equivalent of a QuboModel under x = (1 - z) / 2."""

    h: dict[int, float]
    j: dict[tuple[int, int], float]
    offset: float

    def energy(self, spins: Sequence[int]) -> float:
        e = self.offset
        for v, c in self.h.items():
            e += c * spins[v]
        for (u, v), c in self.j.items():
            e += c * spins[u] * spins[v]
        return float(e)


@dataclass(frozen=True)
class DecodeResult:
    """Tour read off a bitstring, or the first violated constraint class."""

    feasible: bool
    tour: Tour | None = None
    violation: str | None = None


def var_index(n: int, c: int, i: int) -> int:
    """Flat variable id of (step c, node i)."""
    if not 0 <= c:
        raise ValueError(f"step {c} out of range")
    if not 0 <= i < n:
        raise ValueError(f"node {i} out of range 0..{n - 1}")
    return c * n + i


def as_bits(b, num_vars: int) -> np.ndarray:
    """Coerce a bitstring (str of 0/1 or int sequence) to a uint8 array."""
    if isinstance(b, str):
        arr = np.frombuffer(b.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(b, dtype=np.uint8)
    if arr.shape != (num_vars,) or np.any(arr > 1):
        raise ValueError(f"expected a bitstring of length {num_vars}")
    return arr


def as_rows(rows, num_vars: int) -> np.ndarray:
    """Coerce an (m, num_vars) 0/1 array, or a list of m bitstrings, to uint8."""
    if isinstance(rows, (list, tuple)) and all(isinstance(b, str) for b in rows):
        text = "".join(rows).encode("ascii")
        if any(len(b) != num_vars for b in rows):
            raise ValueError(f"expected bitstrings of length {num_vars}")
        arr = (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(len(rows), num_vars)
    else:
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.shape[1] != num_vars:
            raise ValueError(f"expected an (m, {num_vars}) array of bits")
    if np.any((arr != 0) & (arr != 1)):
        raise ValueError("expected 0/1 entries")
    return arr.astype(np.uint8, copy=False)


def rows_to_strs(rows) -> list[str]:
    """One '0'/'1' string per row of a 0/1 array."""
    arr = np.asarray(rows, dtype=np.uint8)
    width = arr.shape[1]
    text = (arr + ord("0")).tobytes().decode("ascii")
    return [text[i * width : (i + 1) * width] for i in range(len(arr))]


def bits_to_str(arr) -> str:
    return rows_to_strs(np.asarray(arr, dtype=np.uint8)[None, :])[0]


def penalty_weight(inst: GtspInstance) -> float:
    """Sum of the K largest directed edge weights, plus one."""
    w = inst.weights
    off_diag = w[~np.eye(inst.n, dtype=bool)]
    k = inst.k
    top = np.partition(off_diag, len(off_diag) - k)[-k:]
    return float(np.sum(top) + 1.0)


def _add_quadratic(quad: dict, u: int, v: int, coeff: float) -> None:
    key = (u, v) if u < v else (v, u)
    quad[key] = quad.get(key, 0.0) + coeff


def build_qubo(inst: GtspInstance, zero_is_edge: bool = False) -> QuboModel:
    """Assemble the full model: tour cost plus the three weighted penalties.

    ``zero_is_edge`` treats off-diagonal zero weights as genuine zero-cost
    edges (no absent-edge penalty), for synthetic instances.
    """
    n, k = inst.n, inst.k
    w = inst.weights
    lam = penalty_weight(inst)
    linear: dict[int, float] = {}
    quad: dict[tuple[int, int], float] = {}
    offset = 0.0

    # tour cost over consecutive steps, cyclically
    for c in range(k):
        c2 = (c + 1) % k
        for i in range(n):
            for j in range(n):
                if i == j or w[i, j] == 0.0:
                    continue
                _add_quadratic(quad, var_index(n, c, i), var_index(n, c2, j), float(w[i, j]))

    # one node per step
    for c in range(k):
        step_vars = [var_index(n, c, i) for i in range(n)]
        for a_pos, u in enumerate(step_vars):
            linear[u] = linear.get(u, 0.0) - lam
            for v in step_vars[a_pos + 1 :]:
                _add_quadratic(quad, u, v, 2.0 * lam)
        offset += lam

    # one node per cluster across all steps
    for cluster in inst.clusters:
        group = [var_index(n, c, i) for c in range(k) for i in cluster]
        for a_pos, u in enumerate(group):
            linear[u] = linear.get(u, 0.0) - lam
            for v in group[a_pos + 1 :]:
                _add_quadratic(quad, u, v, 2.0 * lam)
        offset += lam

    # absent-edge transitions
    if not zero_is_edge:
        zero_pairs = [
            (i, j) for i in range(n) for j in range(n) if i != j and w[i, j] == 0.0
        ]
        for c in range(k):
            c2 = (c + 1) % k
            for i, j in zero_pairs:
                _add_quadratic(quad, var_index(n, c, i), var_index(n, c2, j), lam)

    return QuboModel(
        n=n,
        k=k,
        linear=linear,
        quadratic=quad,
        offset=offset,
        lam=lam,
        zero_is_edge=zero_is_edge,
    )


def energies(model: QuboModel, rows) -> np.ndarray:
    """Energy of every row of an (m, num_vars) 0/1 array (or list of m
    bitstrings): offset + x^T Q x, one dense product over all rows."""
    x = as_rows(rows, model.num_vars).astype(np.float64)
    q, offset = model.to_dense()
    return offset + np.einsum("ij,ij->i", x @ q, x)


def energy(model: QuboModel, b) -> float:
    """offset + linear + quadratic terms evaluated on the bitstring."""
    return float(energies(model, as_bits(b, model.num_vars)[None, :])[0])


def encode(model: QuboModel, t, inst: GtspInstance) -> str:
    """Bitstring with exactly one set bit per step, per the tour order."""
    if not is_feasible_tour(inst, t):
        raise ValueError("cannot encode an infeasible tour")
    order = t.order if isinstance(t, Tour) else tuple(t)
    bits = np.zeros(model.num_vars, dtype=np.uint8)
    for c, node in enumerate(order):
        bits[var_index(model.n, c, node)] = 1
    return bits_to_str(bits)


def decode_rows(
    model: QuboModel, inst: GtspInstance, rows
) -> tuple[list[str | None], np.ndarray]:
    """First violated constraint class of every row (None when the row is a
    valid tour) and the (m, K) node order read off its steps.

    Classes are checked in the order StepOneHot, ClusterOneHot, MissingEdge;
    the order row is -1 wherever a step is not one-hot.
    """
    bits = as_rows(rows, model.num_vars)
    n, k = model.n, model.k
    steps = bits.reshape(len(bits), k, n)
    step_ok = (steps.sum(axis=2) == 1).all(axis=1)
    order = np.where(step_ok[:, None], steps.argmax(axis=2), -1)
    clusters_hit = np.sort(inst.cluster_index[order], axis=1)
    cluster_ok = step_ok & (clusters_hit == np.arange(k)).all(axis=1)
    edge_ok = cluster_ok
    if not model.zero_is_edge:
        legs = inst.weights[order, np.roll(order, -1, axis=1)]
        edge_ok = cluster_ok & (legs != 0.0).all(axis=1)
    violations = np.full(len(bits), None, dtype=object)
    violations[~edge_ok] = VIOLATION_EDGE
    violations[~cluster_ok] = VIOLATION_CLUSTER
    violations[~step_ok] = VIOLATION_STEP
    return violations.tolist(), order


def decode(model: QuboModel, inst: GtspInstance, b) -> DecodeResult:
    """Read a tour off the bitstring; never repairs, only classifies failures."""
    violations, order = decode_rows(model, inst, as_bits(b, model.num_vars)[None, :])
    if violations[0] is not None:
        return DecodeResult(False, violation=violations[0])
    return DecodeResult(True, tour=Tour(tuple(order[0].tolist())))


def to_ising(model: QuboModel) -> IsingModel:
    """Energy-preserving spin form: z_v = 1 - 2*x_v."""
    h: dict[int, float] = {}
    j: dict[tuple[int, int], float] = {}
    offset = model.offset
    for v, a in model.linear.items():
        h[v] = h.get(v, 0.0) - a / 2.0
        offset += a / 2.0
    for (u, v), q in model.quadratic.items():
        offset += q / 4.0
        h[u] = h.get(u, 0.0) - q / 4.0
        h[v] = h.get(v, 0.0) - q / 4.0
        j[(u, v)] = j.get((u, v), 0.0) + q / 4.0
    return IsingModel(h=h, j=j, offset=offset)


# --- export -----------------------------------------------------------------


def to_json_dict(model: QuboModel) -> dict:
    """Interop schema: n_vars / offset / lambda / linear / quadratic / layout."""
    return {
        "n_vars": model.num_vars,
        "offset": model.offset,
        "lambda": model.lam,
        "linear": [[v, c] for v, c in sorted(model.linear.items())],
        "quadratic": [[u, v, c] for (u, v), c in sorted(model.quadratic.items())],
        "layout": {"n": model.n, "k": model.k},
    }


def from_json_dict(data: dict, zero_is_edge: bool = False) -> QuboModel:
    layout = data["layout"]
    model = QuboModel(
        n=int(layout["n"]),
        k=int(layout["k"]),
        linear={int(v): float(c) for v, c in data["linear"]},
        quadratic={(int(u), int(v)): float(c) for u, v, c in data["quadratic"]},
        offset=float(data["offset"]),
        lam=float(data["lambda"]),
        zero_is_edge=zero_is_edge,
    )
    if model.num_vars != int(data["n_vars"]):
        raise ValueError("n_vars inconsistent with layout")
    return model


def to_coo_text(model: QuboModel) -> str:
    """One term per line (`u v coeff`, u == v meaning a linear term)."""
    lines = [
        "# qubo coo v1",
        f"# n_vars {model.num_vars} offset {model.offset!r} lambda {model.lam!r} "
        f"n {model.n} k {model.k}",
    ]
    for v, c in sorted(model.linear.items()):
        lines.append(f"{v} {v} {c!r}")
    for (u, v), c in sorted(model.quadratic.items()):
        lines.append(f"{u} {v} {c!r}")
    return "\n".join(lines) + "\n"
