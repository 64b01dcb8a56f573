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

The ordering search extends the prefix one cluster at a time and keeps each
extension's fixed-order suffix costs; the tour is read off those of the last
extension. Ties go to the lexicographically smallest cluster ordering
(cluster 0 first), then to the smallest start node, then at each position to
the first node of the cluster that keeps the optimum. The table holds
|C0| * 2^(K-1) * (N - |C0|) float64 entries; an instance needing more than
``EXACT_STATE_CAP`` raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import GtspInstance, absent_edges, tour_costs

EXACT_STATE_CAP = 1 << 24  # float64 table entries (128 MiB)


@dataclass(frozen=True)
class ExactResult:
    tour: tuple[int, ...]  # node ids in visiting order, cluster 0 first
    cost: float
    # (K-1)!: the number of cluster orderings the optimum ranges over
    explored_orderings: int


def exact_state_count(inst: GtspInstance) -> int:
    """Entries of the exact solver's table: |C0| * 2^(K-1) * (N - |C0|)."""
    c0 = len(inst.clusters[0])
    return c0 * (1 << (inst.k - 1)) * (inst.n - c0)


def exact_solve(inst: GtspInstance, zero_is_edge: bool = False) -> ExactResult:
    """Globally optimal tour by the subset dynamic program. Unless
    ``zero_is_edge``, a leg of weight 0 is no edge (``absent_edges``, as the
    model has it) and no tour uses one; ValueError if every tour must."""
    states = exact_state_count(inst)
    if states > EXACT_STATE_CAP:
        raise ValueError(
            f"K={inst.k}, N={inst.n}: the exact solver needs {states} table "
            f"entries, over its cap {EXACT_STATE_CAP}"
        )
    w = inst.weights if zero_is_edge else np.where(absent_edges(inst), np.inf, inst.weights)
    starts = np.array(inst.clusters[0])
    rest = inst.clusters[1:]
    cols = np.concatenate(rest)  # table columns: the nodes outside cluster 0
    bounds = np.cumsum([0] + [len(c) for c in rest])
    col_bit = np.repeat(1 << np.arange(inst.k - 1), np.diff(bounds))
    g = _suffix_table(w, starts, cols, col_bit)
    first = g[:, col_bit, np.arange(len(cols))]
    optimum = (w[np.ix_(starts, cols)] + first).min()
    if optimum == np.inf:
        raise ValueError(f"{inst.name}: every tour uses an absent (zero-weight) edge")

    # Smallest optimal ordering, one position at a time: a prefix extended by
    # cluster c is kept iff some tour through it attains the optimum. Its best
    # tour is the nested min from the table row back through the prefix, the
    # same float operations as the full sum, so the test is exact. After the
    # last extension the table row is the closing leg, so the kept suffix
    # costs are the fixed-order DP of the optimal ordering.
    ordering = [0]
    visited = 0
    for _ in range(inst.k - 1):
        for c in range(1, inst.k):
            bit = 1 << (c - 1)
            if visited & bit:
                continue
            seq = [inst.clusters[m] for m in ordering + [c]]
            suffix = _suffix_costs(w, seq, g[:, visited | bit, bounds[c - 1] : bounds[c]])
            if (suffix[0] == optimum).any():
                ordering.append(c)
                visited |= bit
                break
        else:  # the optimum always extends; guard anyway
            raise AssertionError("optimal ordering reconstruction failed")

    cost, tour = _read_off(w, seq, suffix)
    return ExactResult(tour=tour, cost=cost, explored_orderings=math.factorial(inst.k - 1))


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


def _suffix_costs(w, seq, closing) -> list[np.ndarray]:
    """Fixed-order DP ("cluster optimisation", Fischetti, Salazar-Gonzalez &
    Toth 1997) over the cluster sequence ``seq``, whose first cluster holds
    the start nodes.

    Element p >= 1 is the (starts, len(seq[p])) array of cheapest costs from
    each node at position p through the later positions and back to each
    start; the last is ``closing``. Element 0 is each start's tour total.
    Each is the right-to-left nested min, the float association of
    ``tour_cost``.
    """
    suffix = [closing]
    for p in range(len(seq) - 2, 0, -1):
        legs = w[np.ix_(seq[p], seq[p + 1])]
        suffix.append((legs[None] + suffix[-1][:, None, :]).min(axis=2))
    suffix.append((w[np.ix_(seq[0], seq[1])] + suffix[-1]).min(axis=1))
    return suffix[::-1]


def _read_off(w, seq, suffix) -> tuple[float, tuple[int, ...]]:
    """The cheapest tour through ``seq`` and its cost, from ``_suffix_costs``:
    the first start attaining the minimum total, then at each position the
    first node whose leg plus suffix equals the remaining cost."""
    cost = suffix[0].min()
    i = int(np.flatnonzero(suffix[0] == cost)[0])
    tour = [seq[0][i]]
    remaining = cost
    for nodes, tail in zip(seq[1:], suffix[1:]):
        hit = np.flatnonzero(w[tour[-1], nodes] + tail[i] == remaining)
        if not hit.size:  # float asymmetry should be impossible; guard anyway
            raise AssertionError("tour reconstruction failed")
        tour.append(nodes[hit[0]])
        remaining = tail[i, hit[0]]
    return float(cost), tuple(tour)


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
