"""Benchmark inputs: GTSPLIB files generated from the workload seed.

The (name, N, K) shape tables replicate the paper's experiment groups; the
weights are seeded synthetics. This module is the benchmark's own copy of
the shapes and generation rules, so an edit to the test suite cannot change
what the benchmark measures. gtspq only ever sees the written ``.gtsp``
files.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

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

# (name, reduced_n, original_n, k): originals whose nn2c reduction keeps
# exactly reduced_n nodes
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
    return name.split("_nodes_")[0].lstrip("0123456789")


def _rng(seed: int, name: str, draw: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(name.encode("ascii")), draw])
    )


def _random_partition(n: int, k: int, rng) -> list[list[int]]:
    nodes = list(rng.permutation(n))
    clusters = [[int(nodes[i])] for i in range(k)]
    for v in nodes[k:]:
        clusters[int(rng.integers(k))].append(int(v))
    return clusters


def _even_partition(n: int, k: int) -> list[list[int]]:
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    clusters, start = [], 0
    for size in sizes:
        clusters.append(list(range(start, start + size)))
        start += size
    return clusters


def subsample_shape(name: str, n: int, k: int, seed: int):
    """(weights, clusters, symmetric) of a subsample-group shape: weights
    10..99 (no absent edges), random cluster partition."""
    rng = _rng(seed, name, 0)
    symmetric = _stem(name) not in _ASYMMETRIC_STEMS
    w = rng.integers(10, 100, size=(n, n)).astype(float)
    if symmetric:
        w = np.triu(w, 1) + np.triu(w, 1).T
    np.fill_diagonal(w, 0.0)
    return w, _random_partition(n, k, rng), symmetric


def preprocess_original(name: str, reduced_n: int, original_n: int, k: int, seed: int, draw: int = 0):
    """(weights, clusters, symmetric) of an original whose nn2c reduction has
    reduced_n nodes.

    Symmetric originals collapse to one node per cluster on their own.
    Asymmetric ones get a planted ring: w[exit of cluster c+1][entry of
    cluster c] is strictly below every other cross-cluster weight, which pins
    reduced_n - k clusters to two nodes.
    """
    rng = _rng(seed, name, draw)
    symmetric = _stem(name) not in _ASYMMETRIC_STEMS
    sizes = _CLUSTER_SIZE_OVERRIDES.get(name)
    if sizes is None:
        clusters = _even_partition(original_n, k)
    else:
        clusters, start = [], 0
        for size in sizes:
            clusters.append(list(range(start, start + size)))
            start += size
    w = rng.integers(50, 100, size=(original_n, original_n)).astype(float)
    if symmetric:
        if reduced_n != k:
            raise ValueError(f"{name}: symmetric originals reduce to K nodes")
        w = np.triu(w, 1) + np.triu(w, 1).T
    else:
        two_node = reduced_n - k
        if not 0 <= two_node <= k:
            raise ValueError(f"{name}: reduced size {reduced_n} out of reach for K={k}")
        entries = [c[0] for c in clusters]
        exits = [c[1] if m < two_node else c[0] for m, c in enumerate(clusters)]
        for m in range(k):
            w[exits[(m + 1) % k], entries[m]] = 10 + m
    np.fill_diagonal(w, 0.0)
    return w, clusters, symmetric


def gtsplib_text(name: str, weights, clusters, symmetric: bool) -> str:
    """EXPLICIT / FULL_MATRIX GTSPLIB text with integer weights."""
    out = [
        f"NAME: {name}",
        f"TYPE: {'GTSP' if symmetric else 'AGTSP'}",
        f"DIMENSION: {len(weights)}",
        f"GTSP_SETS: {len(clusters)}",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    out.extend(" ".join(str(int(x)) for x in row) for row in weights)
    out.append("GTSP_SET_SECTION")
    for m, cluster in enumerate(clusters):
        out.append(f"{m + 1} {' '.join(str(v + 1) for v in cluster)} -1")
    out.append("EOF")
    return "\n".join(out) + "\n"


def write_instances(directory: Path, specs: list[tuple[str, tuple]]) -> list[str]:
    """Write one file per (name, (weights, clusters, symmetric)); returns the
    paths in order. The index prefix keeps repeated names apart."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, (name, shape) in enumerate(specs):
        path = directory / f"{index:02d}_{name}.gtsp"
        path.write_text(gtsplib_text(name, *shape), encoding="utf-8")
        paths.append(str(path))
    return paths
