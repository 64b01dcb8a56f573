"""Depth-p alternating-operator simulator on the one-hot-per-step subspace.

The state is a complex128 array of shape (N,)*K over the tuples
(i_0, ..., i_{K-1}), node i_c being the single set bit of step c, so the
step-wise one-hot constraint holds by construction for every parameter
choice. The mixer is an ordered product of two-variable XX+YY rotations along
the ring 0-1-...-(N-1)-0 of each step; inside the subspace a ring edge acts as
the 2x2 block [[cos 2b, -i sin 2b], [-i sin 2b, cos 2b]] on the two nodes it
couples, so one step's ring product is one N x N matrix, applied along every
step axis. The phase layer multiplies by exp(-i*g*E) with E the full model
energy of the tuple's bitstring. The grid search runs every (gamma, beta)
cell and scores it by its shot-sampled mean energy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import qubo
from .instance import GtspInstance
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


@dataclass(frozen=True)
class GridConfig:
    gamma_points: int = 10
    beta_points: int = 10
    shots: int = 1500
    timeout_s: float = 300.0
    layers: int = 1

    def gammas(self) -> np.ndarray:
        return np.linspace(*GAMMA_RANGE, self.gamma_points)

    def betas(self) -> np.ndarray:
        return np.linspace(*BETA_RANGE, self.beta_points)


@dataclass(frozen=True)
class CellSummary:
    gamma: float
    beta: float
    mean_energy: float
    feasible_shot_fraction: float
    best_shot_energy: float


@dataclass(frozen=True)
class GridResult:
    """Per-cell summaries and the pooled multiset of every shot drawn during
    the search.

    ``search_samples`` is what downstream reporting consumes: the best shot
    observed anywhere during parameter optimization, with feasibility rates
    averaged over the whole search rather than one concentrated cell. When
    the search ran no cell it is an empty set recording the failure.
    """

    cells: tuple[CellSummary, ...]
    search_samples: SampleSet


def initial_state(layout: PartitionLayout, seed: int) -> np.ndarray:
    """A single uniformly random one-hot basis state (one node per step)."""
    rng = np.random.default_rng(seed)
    state = np.zeros(layout.shape, dtype=np.complex128)
    state[tuple(rng.integers(0, layout.n, size=layout.k))] = 1.0
    return state


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


def apply_cost_phase(state: np.ndarray, diagonal: np.ndarray, gamma: float) -> np.ndarray:
    return state * np.exp(-1j * gamma * diagonal)


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


def apply_xy_ring_mixer(state: np.ndarray, beta: float) -> np.ndarray:
    """The ring matrix applied along every step axis.

    Each pass mixes the leading axis and moves it to the back, so after K
    passes every step is mixed once and the axes are back in order.
    """
    n = state.shape[0]
    mixer_t = xy_ring_matrix(n, beta).T
    out = state
    for _ in range(state.ndim):
        out = out.reshape(n, -1).T @ mixer_t
    return out.reshape(state.shape)


def run_qaoa(
    model: QuboModel,
    layout: PartitionLayout,
    params: QaoaParams,
    seed: int,
    diagonal: np.ndarray | None = None,
) -> np.ndarray:
    """initial basis state, then (phase, mixer) x layers."""
    if diagonal is None:
        diagonal = cost_diagonal(model)
    state = initial_state(layout, seed)
    for _ in range(params.layers):
        state = apply_cost_phase(state, diagonal, params.gamma)
        state = apply_xy_ring_mixer(state, params.beta)
    return state


def sample_shots(
    state: np.ndarray, diagonal: np.ndarray, shots: int, seed: int
) -> SampleSet:
    """i.i.d. measurement draws; tuples rendered as full N*K bit rows, each
    scored by its entry of the cost diagonal."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(state.reshape(-1)) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(probs), size=shots, p=probs)
    uniq, counts = np.unique(draws, return_counts=True)
    orders = np.stack(np.unravel_index(uniq, state.shape), axis=1)
    rows = qubo.encode_rows(state.shape[0], orders)
    return SampleSet.from_rows(
        Backend.QAOA, shots, rows, counts, diagonal.reshape(-1)[uniq]
    )


def grid_search(
    model: QuboModel, grid: GridConfig, seed: int, inst: GtspInstance
) -> GridResult:
    """Evaluate every (gamma, beta) cell, gamma-major.

    Each cell is scored by its shot-estimated mean energy. The timeout
    covers the whole call: on expiry the completed cells are returned, with
    failure=timeout only if none completed. A model whose N^K amplitudes
    exceed ``MAX_SUBSPACE_DIM`` runs no cell and fails as not_applicable.
    Cell c derives its seed as seed + c, so the search is reproducible. One
    decode of every cell's rows gives each cell's feasible shot fraction and
    each row's node order; the search's shots are pooled by the order's flat
    subspace tuple index.
    """
    try:
        layout = PartitionLayout(model.n, model.k)
    except StateTooLargeError:
        return GridResult((), SampleSet.failed(Backend.QAOA, Failure.NOT_APPLICABLE, 0))
    diagonal = cost_diagonal(model)
    started = time.monotonic()
    runs: list[tuple[float, float, float, SampleSet]] = []  # gamma, beta, score, shots
    for gamma in grid.gammas():
        for beta in grid.betas():
            if time.monotonic() - started > grid.timeout_s:
                break
            params = QaoaParams(
                gamma=float(gamma), beta=float(beta), layers=grid.layers
            )
            cell_seed = seed + len(runs)
            state = run_qaoa(model, layout, params, cell_seed, diagonal=diagonal)
            samples = sample_shots(state, diagonal, grid.shots, cell_seed)
            score = sum((samples.energies * samples.counts).tolist()) / grid.shots
            runs.append((float(gamma), float(beta), score, samples))
        else:
            continue
        break

    if not runs:
        return GridResult((), SampleSet.failed(Backend.QAOA, Failure.TIMEOUT, 0))
    cell_sets = [samples for *_, samples in runs]
    rows = np.concatenate([s.entries for s in cell_sets])
    violations, order = qubo.decode_rows(model, inst, rows)
    feasible = np.array([v is None for v in violations], dtype=bool)
    counts = np.concatenate([s.counts for s in cell_sets])
    starts = np.cumsum([0] + [len(s.counts) for s in cell_sets[:-1]])
    fractions = (np.add.reduceat(counts * feasible, starts) / grid.shots).tolist()
    cells = tuple(
        CellSummary(gamma, beta, score, fraction, float(samples.energies[0]))
        for (gamma, beta, score, samples), fraction in zip(runs, fractions)
    )
    flat, first, inverse = np.unique(
        np.ravel_multi_index(tuple(order.T), layout.shape),
        return_index=True,
        return_inverse=True,
    )
    search_samples = SampleSet.from_rows(
        Backend.QAOA,
        grid.shots * len(runs),
        rows[first],
        np.bincount(inverse, weights=counts, minlength=len(flat)),
        diagonal.reshape(-1)[flat],
    )
    return GridResult(cells, search_samples)


def grid_summary_csv(result: GridResult) -> str:
    """Per-cell CSV: gamma, beta, mean_energy, feasible_shot_fraction,
    best_shot_energy."""
    lines = ["gamma,beta,mean_energy,feasible_shot_fraction,best_shot_energy"]
    for cell in result.cells:
        lines.append(
            f"{cell.gamma!r},{cell.beta!r},{cell.mean_energy!r},"
            f"{cell.feasible_shot_fraction!r},{cell.best_shot_energy!r}"
        )
    return "\n".join(lines) + "\n"
