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

import numpy as np

from .instance import GtspInstance, absent_edges

VIOLATION_STEP = "StepOneHot"
VIOLATION_CLUSTER = "ClusterOneHot"
VIOLATION_EDGE = "MissingEdge"


@dataclass(frozen=True, eq=False)
class QuboModel:
    """Quadratic model over the (step, node) one-hot layout.

    ``q`` is a read-only upper-triangular (num_vars, num_vars) float64 array
    with the linear terms on its diagonal: the energy of x is offset + x^T q x.
    """

    n: int
    k: int
    q: np.ndarray
    offset: float
    lam: float
    zero_is_edge: bool = False

    def __post_init__(self):
        self.q.setflags(write=False)

    @property
    def num_vars(self) -> int:
        return self.n * self.k

    @property
    def linear(self) -> dict[int, float]:
        """Nonzero diagonal of ``q`` by ascending variable: {v: coeff}."""
        (v,) = np.nonzero(np.diagonal(self.q))
        return dict(zip(v.tolist(), self.q[v, v].tolist()))

    @property
    def quadratic(self) -> dict[tuple[int, int], float]:
        """Nonzero strict upper triangle of ``q`` by ascending pair: {(u, v): coeff}."""
        u, v = np.nonzero(np.triu(self.q, 1))
        return dict(zip(zip(u.tolist(), v.tolist()), self.q[u, v].tolist()))


@dataclass(frozen=True)
class DecodeResult:
    """Tour (its node ids in visiting order) read off a bitstring, or the
    first violated constraint class."""

    feasible: bool
    tour: tuple[int, ...] | None = None
    violation: str | None = None


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
    # for an unsigned dtype, > 1 is the whole test and makes one temporary, not three
    bad = arr > 1 if arr.dtype.kind == "u" else (arr != 0) & (arr != 1)
    if np.any(bad):
        raise ValueError("expected 0/1 entries")
    return arr.astype(np.uint8, copy=False)


def rows_to_strs(rows) -> list[str]:
    """One '0'/'1' string per row of a 0/1 array."""
    arr = np.asarray(rows, dtype=np.uint8)
    width = arr.shape[1]
    text = (arr + ord("0")).tobytes().decode("ascii")
    return [text[i * width : (i + 1) * width] for i in range(len(arr))]


def penalty_weight(inst: GtspInstance) -> float:
    """Sum of the K largest directed edge weights, plus one."""
    w = inst.weights
    off_diag = w[~np.eye(inst.n, dtype=bool)]
    k = inst.k
    top = np.partition(off_diag, len(off_diag) - k)[-k:]
    return float(np.sum(top) + 1.0)


def build_qubo(inst: GtspInstance, zero_is_edge: bool = False) -> QuboModel:
    """Assemble the full model: tour cost plus the three weighted penalties.

    ``zero_is_edge`` treats off-diagonal zero weights as genuine zero-cost
    edges (no absent-edge penalty), for synthetic instances.

    The coefficients are written block by block in a fixed stage order (cost,
    step cliques, cluster cliques, absent edges; steps in ascending order
    within a stage), so each one is the same left-to-right float sum as a
    term-by-term build.
    """
    n, k = inst.n, inst.k
    w = inst.weights
    lam = penalty_weight(inst)
    q = np.zeros((n * k, n * k), dtype=np.float64)
    off_diag = ~np.eye(n, dtype=bool)

    def add_transitions(m: np.ndarray) -> None:
        # m[i, j] onto the pair (step c, node i), (step c + 1, node j), cyclically
        for c in range(k - 1):
            q[c * n : (c + 1) * n, (c + 1) * n : (c + 2) * n] += m
        q[:n, (k - 1) * n :] += m.T  # step K-1 -> step 0 (the same block when K = 2)

    def add_clique(group: np.ndarray) -> None:
        # (sum of the group - 1)^2 without its constant: -1 per variable, +2 per pair
        g = np.sort(group)
        q[g, g] -= lam
        a, b = np.triu_indices(len(g), 1)
        q[g[a], g[b]] += 2.0 * lam

    add_transitions(np.where(off_diag, w, 0.0))
    for c in range(k):
        add_clique(np.arange(c * n, (c + 1) * n))
    for cluster in inst.clusters:
        add_clique((np.arange(k)[:, None] * n + np.array(cluster)).ravel())
    if not zero_is_edge:
        add_transitions(np.where(absent_edges(inst), lam, 0.0))

    offset = 0.0
    for _ in range(2 * k):  # the constant of each step and each cluster clique
        offset += lam
    return QuboModel(n=n, k=k, q=q, offset=offset, lam=lam, zero_is_edge=zero_is_edge)


def energies(model: QuboModel, rows) -> np.ndarray:
    """Energy of every row of an (m, num_vars) 0/1 array (or list of m
    bitstrings): offset + x^T Q x, one dense product over all rows."""
    x = as_rows(rows, model.num_vars).astype(np.float64)
    return model.offset + np.einsum("ij,ij->i", x @ model.q, x)


def energy(model: QuboModel, b) -> float:
    """offset + linear + quadratic terms evaluated on the bitstring."""
    return float(energies(model, [b])[0])


def encode_rows(n: int, orders) -> np.ndarray:
    """The (m, n*K) one-hot rows of an (m, K) node-order array: bit c*n + node
    is set for the node at step c. ``decode_rows``' order is its inverse."""
    orders = np.asarray(orders)
    if orders.ndim != 2 or orders.dtype.kind not in "iu":
        raise ValueError("expected an (m, K) integer array of node orders")
    if not ((orders >= 0) & (orders < n)).all():
        raise ValueError(f"node id outside 0..{n - 1}")
    m, k = orders.shape
    rows = np.zeros((m, n * k), dtype=np.uint8)
    rows[np.arange(m)[:, None], np.arange(k) * n + orders] = 1
    return rows


def order_checks(
    model: QuboModel, inst: GtspInstance, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (m, K) node-order array: whether it visits every
    cluster once, and whether it is also a tour (every leg of the cycle is
    an edge, as far as the model's ``zero_is_edge`` says)."""
    k = order.shape[1]
    cluster_ok = (np.sort(inst.cluster_index[order], axis=1) == np.arange(k)).all(axis=1)
    if model.zero_is_edge:
        return cluster_ok, cluster_ok
    missing = absent_edges(inst)[order, np.roll(order, -1, axis=1)]
    return cluster_ok, cluster_ok & ~missing.any(axis=1)


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
    cluster_ok, edge_ok = order_checks(model, inst, order)  # a step violation overrides both
    violations = np.full(len(bits), None, dtype=object)
    violations[~edge_ok] = VIOLATION_EDGE
    violations[~cluster_ok] = VIOLATION_CLUSTER
    violations[~step_ok] = VIOLATION_STEP
    return violations.tolist(), order


def decode(model: QuboModel, inst: GtspInstance, b) -> DecodeResult:
    """Read a tour off the bitstring; never repairs, only classifies failures."""
    violations, order = decode_rows(model, inst, [b])
    if violations[0] is not None:
        return DecodeResult(False, violation=violations[0])
    return DecodeResult(True, tour=tuple(order[0].tolist()))


# --- export -----------------------------------------------------------------


def to_json_dict(model: QuboModel) -> dict:
    """Interop schema: n_vars / offset / lambda / linear / quadratic / layout."""
    return {
        "n_vars": model.num_vars,
        "offset": model.offset,
        "lambda": model.lam,
        "linear": [[v, c] for v, c in model.linear.items()],
        "quadratic": [[u, v, c] for (u, v), c in model.quadratic.items()],
        "layout": {"n": model.n, "k": model.k},
    }


def to_coo_text(model: QuboModel) -> str:
    """One term per line (`u v coeff`, u == v meaning a linear term)."""
    lines = [
        "# qubo coo v1",
        f"# n_vars {model.num_vars} offset {model.offset!r} lambda {model.lam!r} "
        f"n {model.n} k {model.k}",
    ]
    lines += [f"{v} {v} {c!r}" for v, c in model.linear.items()]
    lines += [f"{u} {v} {c!r}" for (u, v), c in model.quadratic.items()]
    return "\n".join(lines) + "\n"
