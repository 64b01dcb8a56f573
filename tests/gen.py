"""Deterministic instance generators for the test suite.

Benchmark-shaped fixtures replicate the standard experiment groups by
(name, N, K) only; weights are seeded synthetics. For asymmetric originals
that get reduced, a ring of strictly dominant entry/exit edges is planted so
the nearest-nodes reduction hits a chosen reduced size exactly.
``from_terms`` builds the small hand-written models the tests use,
``from_rows`` the reference sample set, ``sample_text`` a sample set's
file text, and ``initial_state`` the QAOA oracles' uniform start.
"""

from __future__ import annotations

import zlib

import numpy as np

from gtspq.instance import GtspInstance
from gtspq.qaoa import PartitionLayout
from gtspq.qubo import QuboModel
from gtspq.sampler import Backend, Failure, SampleSet

# (name, n, k) per instance; qubits = n * k
SUBSAMPLE_SMALL = [
    ("12ftv55_nodes_3", 3, 2),
    ("16pr76_nodes_3", 3, 2),
    ("6fri26_nodes_3", 3, 2),
    ("16eil76_nodes_4", 4, 2),
    ("4ulysses16_nodes_4", 4, 2),
    ("5ulysses22_nodes_4", 4, 3),
    ("6fri26_nodes_4", 4, 3),
    ("20gr96_nodes_5", 5, 4),
    ("9ftv44_nodes_5", 5, 2),
    ("9p43_nodes_5", 5, 3),
]

SUBSAMPLE_MEDIUM = [
    ("5ulysses22_nodes_3", 3, 3),
    ("9p43_nodes_5", 5, 3),
    ("10att48_nodes_7", 7, 3),
    ("10hk48_nodes_10", 10, 3),
    ("14st70_nodes_11", 11, 2),
    ("11ft53_nodes_13", 13, 4),
    ("20kroD100_nodes_15", 15, 4),
    ("20gr96_nodes_16", 16, 7),
    ("12brazil58_nodes_18", 18, 6),
    ("20rd100_nodes_20", 20, 7),
]

# (name, reduced_n, original_n, k)
PREPROCESS_SMALL = [
    ("3burma14", 3, 14, 3),
    ("4br17", 4, 17, 4),
    ("4gr17", 4, 17, 4),
    ("4ulysses16", 4, 16, 4),
    ("5gr21", 5, 21, 5),
    ("5gr24", 5, 24, 5),
    ("5ulysses22", 5, 22, 5),
]

PREPROCESS_MEDIUM = [
    ("3burma14", 3, 14, 3),
    ("6bayg29", 6, 29, 6),
    ("7ftv33", 12, 34, 7),
    ("8ftv38", 13, 39, 8),
    ("14st70", 14, 70, 14),
    ("10ftv47", 15, 48, 10),
    ("9ftv44", 15, 45, 9),
    ("16pr76", 16, 76, 16),
    ("12ftv55", 20, 56, 12),
    ("20kroA100", 20, 100, 20),
]

# ATSP-style stems keep a directed matrix
_ASYMMETRIC_STEMS = {"br17", "ftv33", "ftv38", "ftv44", "ftv47", "ftv55", "ft53", "p43"}

# uneven clustering so small subsample budgets stay reachable
_CLUSTER_SIZE_OVERRIDES = {"5ulysses22": [1, 1, 2, 9, 9]}


def _stem(name: str) -> str:
    base = name.split("_nodes_")[0]
    return base.lstrip("0123456789")


def name_seed(name: str) -> int:
    return zlib.crc32(name.encode("ascii"))


def even_partition(n: int, k: int) -> list[list[int]]:
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    clusters, start = [], 0
    for size in sizes:
        clusters.append(list(range(start, start + size)))
        start += size
    return clusters


def random_partition(n: int, k: int, rng) -> list[list[int]]:
    nodes = list(rng.permutation(n))
    clusters = [[int(nodes[i])] for i in range(k)]
    for v in nodes[k:]:
        clusters[int(rng.integers(k))].append(int(v))
    return clusters


def make_random_instance(
    seed: int,
    n: int,
    k: int,
    symmetric: bool = False,
    low: int = 1,
    high: int = 99,
    name: str | None = None,
) -> GtspInstance:
    """Random positive-integer weights; no absent (zero) edges when low >= 1."""
    rng = np.random.default_rng(seed)
    w = rng.integers(low, high + 1, size=(n, n)).astype(float)
    if symmetric:
        w = np.triu(w, 1) + np.triu(w, 1).T
    np.fill_diagonal(w, 0.0)
    clusters = random_partition(n, k, rng)
    return GtspInstance(
        name=name or f"rand{seed}", clusters=clusters, weights=w, symmetric=symmetric
    )


def one_absent_edge() -> GtspInstance:
    """Three clusters of two nodes, every weight 10 but the triangle 0-2-4,
    whose legs weigh 0, 1 and 1: its zero leg 0-2 is an absent edge, so the
    optimum is 21, not the triangle's 2."""
    w = np.full((6, 6), 10.0)
    np.fill_diagonal(w, 0.0)
    for u, v, weight in ((0, 2, 0.0), (2, 4, 1.0), (4, 0, 1.0)):
        w[u, v] = w[v, u] = weight
    return GtspInstance("absent", [[0, 1], [2, 3], [4, 5]], w, symmetric=True)


def random_small_shape(rng) -> tuple[int, int]:
    """Shapes with n * k <= 20, k >= 2, one node per cluster guaranteed."""
    k = int(rng.integers(2, 5))
    n = int(rng.integers(k, 20 // k + 1))
    return n, k


def subsample_instance(name: str, n: int, k: int) -> GtspInstance:
    symmetric = _stem(name) not in _ASYMMETRIC_STEMS
    return make_random_instance(
        name_seed(name), n, k, symmetric=symmetric, low=10, high=99, name=name
    )


def preprocess_original(name: str, reduced_n: int, original_n: int, k: int) -> GtspInstance:
    """Original benchmark-shaped instance whose NN2C reduction has reduced_n nodes.

    Symmetric instances collapse to one node per cluster on their own (entry
    and exit coincide under symmetry). Asymmetric ones get a planted ring:
    w[exit of cluster c+1][entry of cluster c] is strictly below every other
    cross-cluster weight, which pins reduced_n - k clusters to two nodes.
    """
    rng = np.random.default_rng(name_seed(name))
    symmetric = _stem(name) not in _ASYMMETRIC_STEMS
    sizes_override = _CLUSTER_SIZE_OVERRIDES.get(name)
    if sizes_override is not None:
        assert sum(sizes_override) == original_n and len(sizes_override) == k
        clusters, start = [], 0
        for size in sizes_override:
            clusters.append(list(range(start, start + size)))
            start += size
    else:
        clusters = even_partition(original_n, k)

    w = rng.integers(50, 100, size=(original_n, original_n)).astype(float)
    if symmetric:
        w = np.triu(w, 1) + np.triu(w, 1).T
        assert reduced_n == k, f"{name}: symmetric originals reduce to K nodes"
    else:
        two_node = reduced_n - k
        assert 0 <= two_node <= k
        entries = [c[0] for c in clusters]
        exits = [c[1] if m < two_node else c[0] for m, c in enumerate(clusters)]
        for m in range(k):
            donor = exits[(m + 1) % k]
            w[donor, entries[m]] = 10 + m
    np.fill_diagonal(w, 0.0)
    return GtspInstance(name=name, clusters=clusters, weights=w, symmetric=symmetric)


def all_table_instances() -> list[tuple[GtspInstance, int]]:
    """Every fixture as (instance-to-solve shape source, expected qubit count)."""
    out = []
    for name, n, k in SUBSAMPLE_SMALL + SUBSAMPLE_MEDIUM:
        out.append((subsample_instance(name, n, k), n * k))
    return out


# --- models from term lists ----------------------------------------------------


def from_terms(
    n: int,
    k: int,
    linear,
    quadratic,
    offset: float,
    lam: float,
    zero_is_edge: bool = False,
) -> QuboModel:
    """Model from term lists: (v, coeff) linear and (u, v, coeff) quadratic
    terms. A pair is stored at (min, max); repeated terms add up."""
    num_vars = n * k
    lin = np.array(linear, dtype=np.float64).reshape(-1, 2)
    quad = np.array(quadratic, dtype=np.float64).reshape(-1, 3)
    idx = np.concatenate([lin[:, 0], quad[:, 0], quad[:, 1]])
    if np.any((idx < 0) | (idx >= num_vars) | (idx != np.round(idx))):
        raise ValueError(f"term index outside 0..{num_vars - 1}")
    q = np.zeros((num_vars, num_vars), dtype=np.float64)
    v = lin[:, 0].astype(np.intp)
    np.add.at(q, (v, v), lin[:, 1])
    pairs = np.sort(quad[:, :2].astype(np.intp), axis=1)
    np.add.at(q, (pairs[:, 0], pairs[:, 1]), quad[:, 2])
    return QuboModel(
        n=n, k=k, q=q, offset=float(offset), lam=float(lam), zero_is_edge=zero_is_edge
    )


def sample_text(samples: SampleSet) -> str:
    """The text a sample set's ``samples_*.json`` file holds."""
    return "".join(samples.json_chunks())


def from_rows(
    backend: Backend, num_reads: int, rows, counts, energies, failure: Failure | None = None
) -> SampleSet:
    """The reference set of distinct ``rows`` with their aligned counts and
    energies, sorted by (energy, bits) in one lexsort: bit 0 is the top bit
    of byte 0 of ``np.packbits``, so byte order is bit order, and the last
    key is the primary one."""
    rows = np.asarray(rows, dtype=np.uint8)
    energies = np.asarray(energies, dtype=np.float64)
    order = np.lexsort((*np.packbits(rows, axis=1).T[::-1], energies))
    counts = np.asarray(counts, dtype=np.int64)[order]
    return SampleSet(backend, num_reads, rows[order], counts, energies[order], failure)


def initial_state(layout: PartitionLayout) -> np.ndarray:
    """The uniform superposition over the N^K one-hot tuples."""
    return np.full(layout.shape, layout.dim**-0.5, dtype=np.complex128)
