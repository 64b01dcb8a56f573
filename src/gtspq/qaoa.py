"""Depth-p alternating-operator simulator on the one-hot-per-step subspace.

The state is a complex128 array of shape (N,)*K over the tuples
(i_0, ..., i_{K-1}), node i_c being the single set bit of step c, so the
step-wise one-hot constraint holds by construction for every parameter
choice. It starts as the uniform superposition over those N^K tuples, the
standard start for a mixer that keeps each step one-hot. The mixer is an
ordered product of two-variable XX+YY rotations along the ring
0-1-...-(N-1)-0 of each step; inside the subspace a ring edge acts as the
2x2 block [[cos 2b, -i sin 2b], [-i sin 2b, cos 2b]] on the two nodes it
couples, so one step's ring product is one N x N matrix, applied along every
step axis. The phase layer multiplies by exp(-i*g*E) with E the full model
energy of the tuple's bitstring. The grid search runs every (gamma, beta)
cell, scores it by its shot-sampled mean energy and reports the shots of
the cell it chose, as a run on hardware would: choose the parameters, then
sample at them. Walking the grid gamma-major, it computes one phase vector
per gamma (holding only the current one) and one ring matrix per beta.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import qubo
from .qubo import QuboModel
from .sampler import Backend, Failure, SampleSet

MAX_SUBSPACE_DIM = 2_000_000
GAMMA_RANGE = (0.05, math.pi)  # the grid's endpoints, both included
BETA_RANGE = (0.05, math.pi / 2)


class StateTooLargeError(RuntimeError):
    """N^K amplitudes exceed the simulator's hard cap."""


@dataclass(frozen=True)
class PartitionLayout:
    """K steps of N nodes: the state's shape, capped at MAX_SUBSPACE_DIM."""

    n: int
    k: int

    def __post_init__(self):
        if self.dim > MAX_SUBSPACE_DIM:
            raise StateTooLargeError(
                f"subspace dimension {self.n}^{self.k} exceeds {MAX_SUBSPACE_DIM}"
            )

    @property
    def dim(self) -> int:
        return self.n**self.k

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.k


@dataclass(frozen=True)
class QaoaParams:
    gamma: float
    beta: float
    layers: int = 1

    def __post_init__(self):
        if type(self.layers) is not int or self.layers < 1:
            raise ValueError(f"layers must be an int >= 1, got {self.layers!r}")


@dataclass(frozen=True)
class CellSummary:
    gamma: float
    beta: float
    mean_energy: float
    feasible_shot_fraction: float
    best_shot_energy: float


@dataclass(frozen=True)
class GridResult:
    """Per-cell summaries, and the shots of the cell the search chose.

    ``samples`` is what downstream reporting consumes: the ``shots`` shots
    of the first cell of least mean energy. When the search ran no cell it
    is an empty set recording the failure.
    """

    cells: tuple[CellSummary, ...]
    samples: SampleSet


def initial_state(layout: PartitionLayout) -> np.ndarray:
    """The uniform superposition over the N^K one-hot tuples."""
    return np.full(layout.shape, layout.dim**-0.5, dtype=np.complex128)


def cost_diagonal(model: QuboModel) -> np.ndarray:
    """Model energy of every subspace tuple's bitstring, shape (N,)*K.

    Same-step quadratic terms never fire on one-hot tuples, so only linear
    terms and cross-step couplings contribute on top of the offset.
    """
    n, k = model.n, model.k
    diag = np.full(PartitionLayout(n, k).shape, model.offset, dtype=np.float64)
    lin = np.diagonal(model.q).reshape(k, n)
    for c in range(k):
        shape = [1] * k
        shape[c] = n
        diag += lin[c].reshape(shape)
    for cu in range(k):
        for cv in range(cu + 1, k):
            shape = [1] * k
            shape[cu] = n
            shape[cv] = n
            diag += model.q[cu * n : (cu + 1) * n, cv * n : (cv + 1) * n].reshape(shape)
    return diag


def cost_phase(diagonal: np.ndarray, gamma: float) -> np.ndarray:
    """One phase layer as a diagonal: exp(-i*gamma*E) per tuple."""
    return np.exp(-1j * gamma * diagonal)


def xy_ring_matrix(n: int, beta: float) -> np.ndarray:
    """One step's mixer: the product of the ring-edge rotations (i, i+1 mod n)
    for i ascending, the first edge applied first. n = 2 has the single edge
    (0, 1) and n = 1 none."""
    c2 = math.cos(2.0 * beta)
    s2 = math.sin(2.0 * beta)
    m = np.eye(n, dtype=np.complex128)
    for a in range(n if n > 2 else n - 1):
        b = (a + 1) % n
        m[[a, b]] = c2 * m[[a, b]] - 1j * s2 * m[[b, a]]
    return m


def apply_ring(state: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """One step's N x N mixer ``ring`` applied along every step axis.

    Each pass mixes the leading axis and moves it to the back, so after K
    passes every step is mixed once and the axes are back in order.
    """
    n = state.shape[0]
    ring_t = ring.T
    out = state
    for _ in range(state.ndim):
        out = out.reshape(n, -1).T @ ring_t
    return out.reshape(state.shape)


def run_qaoa(
    model: QuboModel,
    layout: PartitionLayout,
    params: QaoaParams,
    *,
    phase: np.ndarray | None = None,
    ring: np.ndarray | None = None,
) -> np.ndarray:
    """The uniform initial state, then (phase, mixer) x layers.

    ``phase`` (``cost_phase`` of the diagonal at ``params.gamma``) and
    ``ring`` (``xy_ring_matrix`` at ``params.beta``) are computed here when
    not given; a caller running many cells passes the ones it shares.

    The first layer's phased start is ``phase * N^(-K/2)``, bit for bit
    ``initial_state(layout) * phase``, without the uniform array.
    """
    if phase is None:
        phase = cost_phase(cost_diagonal(model), params.gamma)
    if ring is None:
        ring = xy_ring_matrix(layout.n, params.beta)
    state = phase * layout.dim**-0.5
    for layer in range(params.layers):
        if layer:
            state = state * phase  # rebound first, so the old state is freed before mixing
        state = apply_ring(state, ring)
    return state


def sample_shots(
    state: np.ndarray, diagonal: np.ndarray, shots: int, seed: int
) -> SampleSet:
    """i.i.d. measurement draws; tuples rendered as full N*K bit rows, each
    scored by its entry of the cost diagonal.

    The draws are the ones ``rng.choice(len(probs), size=shots, p=probs)``
    makes, by the inverse CDF that it computes, without its other passes
    over ``probs``. A state whose norm is zero or not finite is a ValueError.

    The draws are only counted, so the uniforms are sorted first: equal
    tuples then come out as runs, read off at their change points. Bit
    c*N + i is set for node i at step c, so a lower flat tuple index is a
    larger bit string, and ordering the distinct tuples by (energy, -index)
    gives the set's (energy, bits) order without sorting the rows.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(state.reshape(-1)) ** 2
    total = probs.sum()
    if not 0 < total < math.inf:  # NaN fails both comparisons
        raise ValueError(f"state norm squared is {total}, not finite and positive")
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    uniforms = np.random.default_rng(seed).random(shots)
    uniforms.sort()
    draws = cdf.searchsorted(uniforms, side="right")  # ascending
    # the runs' bounds: both ends and every change point
    bounds = np.flatnonzero(np.concatenate(([True], draws[1:] != draws[:-1], [True])))
    flat = draws[bounds[:-1]]
    energies = diagonal.reshape(-1)[flat]
    order = np.lexsort((-flat, energies))
    counts = np.diff(bounds)[order]
    orders = np.stack(np.unravel_index(flat[order], state.shape), axis=1)
    rows = qubo.encode_rows(state.shape[0], orders)
    return SampleSet(Backend.QAOA, shots, rows, counts, energies[order])


def grid_search(
    model: QuboModel,
    seed: int,
    *,
    grid: tuple[int, int],
    shots: int,
    timeout_s: float,
    layers: int,
) -> GridResult:
    """Evaluate every (gamma, beta) cell, gamma-major, on ``grid[0]`` gammas
    and ``grid[1]`` betas spaced evenly over GAMMA_RANGE and BETA_RANGE, and
    report the shots of the cell chosen.

    Each cell runs ``layers`` layers and is scored by the mean energy of its
    ``shots`` shots; the chosen cell is the first of least score. ``timeout_s``
    covers the whole call: on expiry the completed cells are returned, with
    failure=timeout only if none completed. A model whose N^K amplitudes
    exceed ``MAX_SUBSPACE_DIM`` runs no cell and fails as not_applicable.
    Cell c derives its seed as seed + c, so the search is reproducible. A
    grid dimension, ``shots`` or ``layers`` below 1 is a ValueError.

    Each piece of work is done once: the ring matrix once per beta for the
    whole search, and the phase vector once per gamma, after the timeout
    check and holding only the current gamma's. A cell's feasible shot
    fraction counts its shots of energy below ``model.lam``: a tour's energy
    is its cost, at most lambda - 1, and every other one-hot tuple pays at
    least one penalty of lambda on top of non-negative weights.
    """
    if min(grid) < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {grid[0]}x{grid[1]}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    QaoaParams(GAMMA_RANGE[0], BETA_RANGE[0], layers)  # a ValueError unless layers >= 1
    try:
        layout = PartitionLayout(model.n, model.k)
    except StateTooLargeError:
        return GridResult((), SampleSet.failed(Backend.QAOA, Failure.NOT_APPLICABLE, 0))
    diagonal = cost_diagonal(model)
    gammas = np.linspace(*GAMMA_RANGE, grid[0]).tolist()
    betas = np.linspace(*BETA_RANGE, grid[1]).tolist()
    rings = [xy_ring_matrix(layout.n, beta) for beta in betas]
    started = time.monotonic()
    cells: list[CellSummary] = []
    chosen, chosen_score = None, math.inf  # the chosen cell's SampleSet and score
    phase_gamma, phase = None, None
    for gamma, (beta, ring) in itertools.product(gammas, zip(betas, rings)):
        if time.monotonic() - started > timeout_s:
            break
        if gamma != phase_gamma:
            phase = None  # one phase vector alive at a time
            phase_gamma, phase = gamma, cost_phase(diagonal, gamma)
        params = QaoaParams(gamma=gamma, beta=beta, layers=layers)
        # the state is not bound, so it is freed before the next cell's is made
        samples = sample_shots(
            run_qaoa(model, layout, params, phase=phase, ring=ring),
            diagonal, shots, seed + len(cells),
        )
        score = sum((samples.energies * samples.counts).tolist()) / shots
        feasible = int(samples.counts @ (samples.energies < model.lam)) / shots
        if score < chosen_score:
            chosen, chosen_score = samples, score
        cells.append(CellSummary(gamma, beta, score, feasible, float(samples.energies[0])))

    if not cells:
        return GridResult((), SampleSet.failed(Backend.QAOA, Failure.TIMEOUT, 0))
    return GridResult(tuple(cells), chosen)
