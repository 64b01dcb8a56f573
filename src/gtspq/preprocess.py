"""Instance reductions: nearest-nodes-to-clusters and cluster subset sampling.

Both return a reduced instance plus its record, the JSON object a run stores
as ``reduction.json``: it maps new node ids back to the original ones.
Reduced weights are pure submatrices of the original weights. ``reduce`` is
the one entry point that applies a ``--reduce`` spec (``none``, ``nn2c`` or
``subsample:TARGET``).
"""

from __future__ import annotations

import numpy as np

from .instance import GtspInstance

METHOD_NN2C = "nn2c"
METHOD_SUBSAMPLE = "subsample"


def _submatrix_instance(
    inst: GtspInstance, kept_clusters: list[list[int]], name: str, method: str, seed: int | None
) -> tuple[GtspInstance, dict]:
    """``inst`` cut to ``kept_clusters`` and named ``name``, with its record:
    ``original_instance_name``, ``original_n``, ``kept_nodes`` (new id as
    ``"0".."n'-1"`` -> original id), ``method`` and ``seed``.

    Kept nodes are relabeled 0..n'-1 by ascending original id, so no-op
    reductions are exact fixed points and cluster order stays untouched.
    """
    kept = sorted(v for cluster in kept_clusters for v in cluster)
    relabel = {old: new for new, old in enumerate(kept)}
    clusters = [[relabel[v] for v in sorted(cluster)] for cluster in kept_clusters]
    reduced = GtspInstance(name, clusters, inst.weights[np.ix_(kept, kept)], inst.symmetric)
    record = {
        "original_instance_name": inst.name,
        "original_n": inst.n,
        "kept_nodes": {str(new): old for new, old in enumerate(kept)},
        "method": method,
        "seed": seed,
    }
    return reduced, record


def nn2c_reduce(inst: GtspInstance) -> tuple[GtspInstance, dict]:
    """Keep each cluster's best entry and best exit node, drop the rest.

    Entry minimizes the best incoming weight from outside the cluster, exit
    the best outgoing weight. Ties fall back to the average cost in the
    opposite direction, then to the smaller node id, so the selection is
    deterministic. Entry and exit may coincide; the reduced instance has K
    clusters of one or two nodes each.
    """
    w = inst.weights
    kept_clusters: list[list[int]] = []
    for m, cluster in enumerate(inst.clusters):
        outside = np.flatnonzero(inst.cluster_index != m)
        # row i: the weights into / out of cluster[i]; a mean over contiguous
        # rows sums as the 1-D mean of each row does
        into = w[np.ix_(outside, cluster)].T.copy()
        out_of = w[np.ix_(cluster, outside)]
        # the last key is the primary one
        entry = np.lexsort((cluster, out_of.mean(axis=1), into.min(axis=1)))[0]
        exit_ = np.lexsort((cluster, into.mean(axis=1), out_of.min(axis=1)))[0]
        kept_clusters.append(sorted({cluster[entry], cluster[exit_]}))
    return _submatrix_instance(inst, kept_clusters, inst.name, METHOD_NN2C, None)


def cluster_subsample(
    inst: GtspInstance, target_nodes: int, seed: int
) -> tuple[GtspInstance, dict]:
    """Draw whole clusters uniformly without replacement up to a node budget,
    as the instance ``<name>_nodes_<n>``.

    Accumulation stops once the next drawn cluster would exceed the budget and
    at least two clusters are already in; below two clusters the draw is added
    regardless. Kept clusters stay in original relative order.
    """
    if target_nodes < 1:
        raise ValueError("target_nodes must be positive")
    sizes = sorted(len(c) for c in inst.clusters)
    if target_nodes < sizes[0] + sizes[1]:
        raise ValueError(
            f"target_nodes={target_nodes} below the smallest 2-cluster "
            f"selection ({sizes[0] + sizes[1]} nodes)"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(inst.k)
    selected: list[int] = []
    total = 0
    for idx in order:
        size = len(inst.clusters[idx])
        if total + size > target_nodes and len(selected) >= 2:
            break
        selected.append(int(idx))
        total += size
    selected.sort()
    kept_clusters = [list(inst.clusters[m]) for m in selected]
    name = f"{inst.name}_nodes_{total}"
    return _submatrix_instance(inst, kept_clusters, name, METHOD_SUBSAMPLE, seed)


def parse_spec(spec: str) -> tuple[str, int | None]:
    """The method a ``--reduce`` spec names and its subsample target:
    ``("none", None)``, ``("nn2c", None)`` or ``("subsample", TARGET)`` with
    TARGET >= 1; ValueError for any other spec."""
    if spec == "none" or spec == METHOD_NN2C:
        return spec, None
    if spec.startswith(f"{METHOD_SUBSAMPLE}:"):
        try:
            target = int(spec.removeprefix(f"{METHOD_SUBSAMPLE}:"))
        except ValueError:
            target = 0
        if target >= 1:
            return METHOD_SUBSAMPLE, target
    raise ValueError(f"bad --reduce value {spec!r}, expected nn2c|subsample:TARGET, TARGET >= 1")


def reduce(inst: GtspInstance, spec: str, seed: int) -> tuple[GtspInstance, dict | None]:
    """``inst`` reduced as ``spec`` says, with its record; ``none`` returns
    ``(inst, None)``. A subsample draws with ``seed``; nn2c reads no seed."""
    method, target = parse_spec(spec)
    if method == "none":
        return inst, None
    if method == METHOD_NN2C:
        return nn2c_reduce(inst)  # a global, looked up per call, so a wrapper sees it
    return cluster_subsample(inst, target, seed)
