"""Exact optimum and random-tour baseline for metric denominators.

The exact solver is a dynamic program over (visited-cluster subset, last node)
(Held & Karp 1962; the GTSP form as in Laporte & Nobert 1983). Cluster 0 is
fixed at the front (cyclic symmetry). For every start node s of cluster 0 the
table is filled backward, one popcount layer of subsets per array step:

    G[S, v] = min over u outside S of (w[v, u] + G[S + cluster(u), u]),
    G[all clusters, v] = w[v, s].

A tour's cost is thus the right-to-left sum
w[s, v1] + (w[v1, v2] + (... + w[v_{K-1}, s])), the association ``tour_cost``
uses. Rounding is monotone, so the table's minimum is the exact floating-point
minimum of that sum over all tours (both directions of each), and
``tour_cost`` of the returned tour equals it bit for bit.

Ties go to the lexicographically smallest cluster ordering (cluster 0 first),
then to the smallest start node, then at each position to the first node of
the cluster that keeps the optimum. The table holds
|C0| * 2^(K-1) * (N - |C0|) float64 entries; an instance needing more than
``EXACT_STATE_CAP`` raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import GtspInstance, Tour, tour_costs

EXACT_STATE_CAP = 1 << 24  # float64 table entries (128 MiB)


@dataclass(frozen=True)
class ExactResult:
    tour: Tour
    cost: float
    # (K-1)!: the number of cluster orderings the optimum ranges over
    explored_orderings: int


def exact_state_count(inst: GtspInstance) -> int:
    """Entries of the exact solver's table: |C0| * 2^(K-1) * (N - |C0|)."""
    c0 = len(inst.clusters[0])
    return c0 * (1 << (inst.k - 1)) * (inst.n - c0)


def exact_solve(inst: GtspInstance) -> ExactResult:
    """Globally optimal tour by the subset dynamic program."""
    states = exact_state_count(inst)
    if states > EXACT_STATE_CAP:
        raise ValueError(
            f"K={inst.k}, N={inst.n}: the exact solver needs {states} table "
            f"entries, over its cap {EXACT_STATE_CAP}"
        )
    w = inst.weights
    starts = np.array(inst.clusters[0])
    rest = inst.clusters[1:]
    cols = np.concatenate(rest)  # table columns: the nodes outside cluster 0
    bounds = np.cumsum([0] + [len(c) for c in rest])
    col_bit = np.repeat(1 << np.arange(inst.k - 1), np.diff(bounds))
    g = _suffix_table(w, starts, cols, col_bit)
    first = g[:, col_bit, np.arange(len(cols))]
    optimum = (w[np.ix_(starts, cols)] + first).min()

    # Smallest optimal ordering, one position at a time: a prefix extended by
    # cluster c is kept iff some tour through it attains the optimum. Its best
    # tour is the nested min from the table row back through the prefix, the
    # same float operations as the full sum, so the test is exact.
    ordering = [0]
    visited = 0
    for _ in range(inst.k - 1):
        for c in range(1, inst.k):
            bit = 1 << (c - 1)
            if visited & bit:
                continue
            nodes = rest[c - 1]
            tail = g[:, visited | bit, bounds[c - 1] : bounds[c]]
            for m in reversed(ordering[1:]):
                prev = inst.clusters[m]
                tail = (w[np.ix_(prev, nodes)][None] + tail[:, None, :]).min(axis=2)
                nodes = prev
            if ((w[np.ix_(starts, nodes)] + tail).min(axis=1) == optimum).any():
                ordering.append(c)
                visited |= bit
                break
        else:  # the optimum always extends; guard anyway
            raise AssertionError("optimal ordering reconstruction failed")

    seq = [inst.clusters[m] for m in ordering]
    cost, tour = min(_best_tour_for_ordering(w, seq, s) for s in seq[0])
    return ExactResult(
        tour=Tour(tour), cost=cost, explored_orderings=math.factorial(inst.k - 1)
    )


def _suffix_table(w, starts, cols, col_bit) -> np.ndarray:
    """g[i, S, j]: cheapest cost from node cols[j], with the clusters in bit
    set S visited, through the other clusters back to starts[i].

    Rows of S that do not hold cols[j]'s cluster, and the row S = 0, are
    never read and hold filler.
    """
    width = len(col_bit)
    full = int(np.bitwise_or.reduce(col_bit))  # every cluster visited
    masks = np.arange(full + 1)
    popcount = np.bitwise_count(masks)
    g = np.empty((len(starts), full + 1, width))
    g[:, full, :] = w[np.ix_(cols, starts)].T
    w_cols = w[np.ix_(cols, cols)]
    col_idx = np.arange(width)
    for size in range(int(popcount[full]) - 1, 0, -1):
        layer = masks[popcount == size]
        nxt = g[:, layer[:, None] | col_bit, col_idx]
        nxt[:, (layer[:, None] & col_bit) != 0] = np.inf  # u's cluster already visited
        best = np.full(nxt.shape, np.inf)
        for j in range(width):
            np.minimum(best, nxt[:, :, j, None] + w_cols[:, j], out=best)
        g[:, layer, :] = best
    return g


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


def random_tours(
    inst: GtspInstance, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` seeded tours, uniform node per cluster and uniform cyclic
    cluster order: the (count, K) node-order array and its cost array.

    Two array draws: every tour's cluster order (each row of a tiled
    ``arange(K)`` permuted on its own), then every step's node index below
    its cluster's size.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    sizes = np.array([len(c) for c in inst.clusters])
    starts = np.cumsum(sizes) - sizes  # each cluster's offset into `nodes`
    nodes = np.concatenate(inst.clusters)
    perm = rng.permuted(np.tile(np.arange(inst.k), (count, 1)), axis=1)
    orders = nodes[starts[perm] + rng.integers(0, sizes[perm])]
    return orders, tour_costs(inst, orders)
