"""Instance reductions: nearest-nodes-to-clusters and cluster subset sampling.

Both return a reduced instance plus a record mapping new node ids back to the
original ones. Reduced weights are pure submatrices of the original weights.
``reduce`` is the one entry point that applies a ``--reduce`` spec
(``none``, ``nn2c`` or ``subsample:TARGET``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import GtspInstance

METHOD_NN2C = "nn2c"
METHOD_SUBSAMPLE = "subsample"


@dataclass(frozen=True)
class ReductionRecord:
    """Traceability from a reduced instance back to its source."""

    original_instance_name: str
    kept_nodes: dict[int, int]  # new node id -> original node id
    method: str
    seed: int | None = None

    def __post_init__(self):
        values = list(self.kept_nodes.values())
        if len(set(values)) != len(values):
            raise ValueError("kept_nodes mapping must be injective")
        if self.method == METHOD_NN2C and self.seed is not None:
            raise ValueError("nn2c reduction takes no seed")
        if self.method == METHOD_SUBSAMPLE and self.seed is None:
            raise ValueError("subsample reduction requires a seed")

    def to_json_dict(self) -> dict:
        return {
            "original_instance_name": self.original_instance_name,
            "kept_nodes": {str(new): old for new, old in sorted(self.kept_nodes.items())},
            "method": self.method,
            "seed": self.seed,
        }


def _submatrix_instance(
    inst: GtspInstance, kept_clusters: list[list[int]], method: str, seed: int | None
) -> tuple[GtspInstance, ReductionRecord]:
    """Relabel kept nodes 0..n'-1 by ascending original id and slice.

    Monotone relabeling keeps no-op reductions exact fixed points and cluster
    order untouched.
    """
    kept = sorted(v for cluster in kept_clusters for v in cluster)
    relabel = {old: new for new, old in enumerate(kept)}
    clusters = [[relabel[v] for v in sorted(cluster)] for cluster in kept_clusters]
    weights = inst.weights[np.ix_(kept, kept)]
    reduced = GtspInstance(
        name=inst.name,
        clusters=clusters,
        weights=weights,
        symmetric=inst.symmetric,
    )
    record = ReductionRecord(
        original_instance_name=inst.name,
        kept_nodes={new: old for new, old in enumerate(kept)},
        method=method,
        seed=seed,
    )
    return reduced, record


def nn2c_reduce(inst: GtspInstance) -> tuple[GtspInstance, ReductionRecord]:
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
    return _submatrix_instance(inst, kept_clusters, METHOD_NN2C, None)


def cluster_subsample(
    inst: GtspInstance, target_nodes: int, seed: int
) -> tuple[GtspInstance, ReductionRecord]:
    """Draw whole clusters uniformly without replacement up to a node budget.

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
        if total + size > target_nodes:
            if len(selected) >= 2:
                break
            selected.append(int(idx))  # forced: keep at least two clusters
            total += size
            continue
        selected.append(int(idx))
        total += size
    selected.sort()
    kept_clusters = [list(inst.clusters[m]) for m in selected]
    return _submatrix_instance(inst, kept_clusters, METHOD_SUBSAMPLE, seed)


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


def reduce(
    inst: GtspInstance, spec: str, seed: int
) -> tuple[GtspInstance, ReductionRecord | None]:
    """``inst`` reduced as ``spec`` says, with its record; ``none`` returns
    ``(inst, None)``. A subsample draws with ``seed`` and is renamed
    ``<name>_nodes_<n>``; nn2c reads no seed."""
    method, target = parse_spec(spec)
    if method == "none":
        return inst, None
    if method == METHOD_NN2C:
        return nn2c_reduce(inst)  # a global, looked up per call, so a wrapper sees it
    reduced, record = cluster_subsample(inst, target, seed)
    name = f"{reduced.name}_nodes_{reduced.n}"
    return GtspInstance(name, reduced.clusters, reduced.weights, reduced.symmetric), record
