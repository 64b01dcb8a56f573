"""Classical samplers over a QuboModel.

Three backends: an exhaustive ground-state scan (small models), multi-restart
single-bit-flip simulated annealing (the stand-in for annealer sampling, 1500
reads by default), and an adapter that ships the exported model to an external
sampler endpoint. Each builds its set with ``SampleSet.from_reads``, which
recomputes every energy against the model (``report`` keeps stored energies).

Each annealing sweep visits the variables class by class, in greedy colour
order: a class holds uncoupled variables, reads their fields from the spins
s in one product, ``coef @ [s; 1]`` (exact on integer weights), and flips in
one array step, so the sweep is a single-flip Metropolis sweep in that order.
"""

from __future__ import annotations

import enum
import http.client
import json
import math
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import qubo
from .qubo import QuboModel

EXHAUSTIVE_CAP = 24
DEFAULT_NUM_READS = 1500
DEFAULT_SWEEPS = 1000
EXTERNAL_TIMEOUT_S = 30.0  # per HTTP request to the external sampler
_TIMEOUT_STATUSES = (408, 504)  # request timeout, gateway timeout
JSON_CHUNK_ENTRIES = 4096  # sample entries per chunk of a set's JSON text
_JSON_ENTRY = '    {\n      "bits": "%s",\n      "count": %d,\n      "energy": %s\n    }'


class Backend(enum.Enum):
    EXHAUSTIVE = "exhaustive"
    SIMULATED_ANNEALING = "sa"
    QAOA = "qaoa"
    EXTERNAL = "external"


class Failure(enum.Enum):
    INVALID_TOUR = "invalid_tour"
    TIMEOUT = "timeout"
    COULD_NOT_EMBED = "could_not_embed"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Multiset of sampled bit rows.

    ``entries`` is a read-only (m, num_vars) uint8 array of distinct rows,
    with ``counts`` and ``energies`` aligned to it, sorted by (energy, bits).
    Constructors order the rows they make: ``from_reads`` and ``from_json_dict``
    sort rows in bit order stably by energy, ``failed`` has none, and QAOA's
    ``sample_shots`` builds its set in order. Bit strings exist only in JSON.
    """

    backend: Backend
    num_reads: int
    entries: np.ndarray
    counts: np.ndarray
    energies: np.ndarray
    failure: Failure | None = None

    def __post_init__(self):
        for arr in (self.entries, self.counts, self.energies):
            arr.setflags(write=False)

    @classmethod
    def failed(cls, backend: Backend, failure: Failure, num_reads: int) -> "SampleSet":
        """An empty set that records the backend's failure."""
        rows = np.zeros((0, 0), dtype=np.uint8)
        return cls(backend, num_reads, rows, np.zeros(0, dtype=np.int64), np.zeros(0), failure)

    def json_chunks(self):
        """The set's JSON text, in chunks of at most JSON_CHUNK_ENTRIES
        entries: ``{backend, entries: [{bits, count, energy}], failure,
        num_reads}`` byte for byte as ``json.dump`` writes it with indent 2
        and sorted keys, plus a final newline. Each entry is written from
        one template, so no per-entry object is built."""
        yield '{\n  "backend": %s,\n  "entries": [' % json.dumps(self.backend.value)
        for start in range(0, len(self.counts), JSON_CHUNK_ENTRIES):
            part = slice(start, start + JSON_CHUNK_ENTRIES)
            # json's own float text (repr, NaN, Infinity), from its C encoder
            energies = json.dumps(self.energies[part].tolist())[1:-1].split(", ")
            entries = zip(
                qubo.rows_to_strs(self.entries[part]), self.counts[part].tolist(), energies
            )
            yield ",\n" if start else "\n"
            yield ",\n".join(_JSON_ENTRY % entry for entry in entries)
        failure = self.failure.value if self.failure else None
        yield '%s,\n  "failure": %s,\n  "num_reads": %s\n}\n' % (
            "\n  ]" if len(self.counts) else "]", json.dumps(failure), json.dumps(self.num_reads)
        )

    @classmethod
    def from_reads(cls, backend: Backend, model: QuboModel, rows, counts=None) -> "SampleSet":
        """The set of (m, num_vars) 0/1 ``rows``, each read once or ``counts[i]``
        times: equal rows merge, counts summed exactly in int64; ``num_reads``
        is their sum, and every energy is recomputed against ``model``."""
        rows, _, inverse = _unique_rows(qubo.as_rows(rows, model.num_vars), return_inverse=True)
        merged = np.zeros(len(rows), dtype=np.int64)
        np.add.at(merged, inverse.reshape(-1), 1 if counts is None else counts)
        energies = qubo.energies(model, rows)
        order = np.argsort(energies, kind="stable")
        return cls(backend, int(merged.sum()), rows[order], merged[order], energies[order])

    @classmethod
    def from_json_dict(cls, data: dict, num_vars: int) -> "SampleSet":
        """The set, stored energies and all, whose ``json_chunks`` text parses
        to ``data``; ValueError if ``_read_entries`` rejects its entries, an
        energy is not a JSON number (a string or bool; NaN and Infinity load),
        ``num_reads`` is no int in [0, 2**63), a bit string is listed twice, or
        a set without a failure has counts that do not sum to ``num_reads``."""
        entries, num_reads = data["entries"], data["num_reads"]
        rows, counts = _read_entries(entries, num_vars)
        failure = Failure(data["failure"]) if data.get("failure") else None
        if type(num_reads) is not int or not 0 <= num_reads < 2**63:
            raise ValueError(f"num_reads {num_reads!r} is not a non-negative integer below 2**63")
        rows, first = _unique_rows(rows)
        if len(rows) != len(entries):
            raise ValueError("a bit string is listed more than once")
        if failure is None and counts.sum() != num_reads:
            raise ValueError(f"sample counts sum to {counts.sum()}, not num_reads {num_reads}")
        for entry in entries:
            if type(entry["energy"]) not in (int, float):
                raise ValueError(f"sample energy {entry['energy']!r} is not a number")
        energies = np.array([float(e["energy"]) for e in entries])[first]
        order = np.argsort(energies, kind="stable")
        backend = Backend(data["backend"])
        return cls(backend, num_reads, rows[order], counts[first[order]], energies[order], failure)


def _unique_rows(rows: np.ndarray, **kwargs):
    """``np.unique(rows, axis=0, return_index=True, **kwargs)`` of 0/1 uint8
    rows, sorted as their packed bytes (bit 0 the top bit), so in bit order."""
    _, first, *rest = np.unique(np.packbits(rows, axis=1), axis=0, return_index=True, **kwargs)
    return rows[first], first, *rest


def _read_entries(entries, num_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint8 rows and int64 counts of ``{bits, count}`` objects from
    outside; ValueError unless ``entries`` is a list of objects whose bit
    strings are ``num_vars`` characters 0 or 1 and whose counts are positive
    ints (no bool) summing below 2**63, so every merge of them is exact."""
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("sample entries are not a list of objects")
    bits, counts = [e.get("bits") for e in entries], [e.get("count") for e in entries]
    for entry, b in zip(entries, bits):
        if type(b) is not str:
            raise ValueError(f"sample entry {entry!r} lacks a bit string")
        if len(b) != num_vars:
            raise ValueError(f"bitstring length {len(b)} != {num_vars} variables")
    # one '?' per character outside ASCII; below '0' wraps past 1 in uint8
    text = "".join(bits).encode("ascii", "replace")
    rows = (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(len(bits), num_vars)
    bad = (rows > 1).any(axis=1)
    if bad.any():
        raise ValueError(f"bitstring {bits[bad.argmax()]!r} holds a character other than 0/1")
    for count in counts:
        if type(count) is not int or count < 1:
            raise ValueError(f"sample count {count!r} is not a positive integer")
    if sum(counts) >= 2**63:
        raise ValueError(f"sample counts sum to {sum(counts)}, not below 2**63")
    return rows, np.array(counts, dtype=np.int64)


@dataclass(frozen=True)
class AnnealSchedule:
    sweeps: int
    beta_initial: float
    beta_final: float

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if not (0 < self.beta_initial < self.beta_final < math.inf):
            raise ValueError("need 0 < beta_initial < beta_final < inf")

    def betas(self) -> np.ndarray:
        if self.sweeps == 1:
            return np.array([self.beta_final])
        return np.geomspace(self.beta_initial, self.beta_final, self.sweeps)


def _max_flip_delta(model: QuboModel) -> float:
    """Largest possible |energy change| of any single bit flip."""
    a = np.abs(model.q)
    delta = a.sum(axis=0) + np.triu(a, 1).sum(axis=1)  # row v plus column v of |q|
    return float(delta.max()) if model.num_vars else 0.0


def _min_coefficient(model: QuboModel) -> float:
    """Smallest nonzero |coefficient| of the model (1.0 when all are zero)."""
    coeffs = np.abs(model.q[model.q != 0.0])
    return float(coeffs.min()) if coeffs.size else 1.0


def default_schedule(model: QuboModel, sweeps: int = DEFAULT_SWEEPS) -> AnnealSchedule:
    """Geometric schedule after dwave-neal's ``default_beta_range``: the worst
    uphill flip is accepted w.p. ~0.5 at the start, and a flip that costs the
    smallest nonzero |coefficient| w.p. ~0.01 at the end."""
    d_max = _max_flip_delta(model) or 1.0
    return AnnealSchedule(
        sweeps=sweeps,
        beta_initial=math.log(2.0) / d_max,
        beta_final=math.log(100.0) / _min_coefficient(model),
    )


# --- exhaustive scan ---------------------------------------------------------


def _all_rows(width: int) -> np.ndarray:
    """Every bit row of the given width, in index order (bit 0 most significant)."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((np.arange(1 << width, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.float64)


def exhaustive_ground_state(model: QuboModel) -> SampleSet:
    """The global minimum-energy row as a one-entry set of one read; ties go
    to the lexicographically smallest row (bit 0 most significant). Above
    ``EXHAUSTIVE_CAP`` variables the set is a ``not_applicable`` failure.

    Split-half scan: with H the rows of the leading variables and L those of
    the trailing ones, the energies of all states H x L are
    e_hi[:, None] + e_lo[None, :] + (H @ Q_hl) @ L.T, taken in blocks of at
    most 2^16 states in index order.
    """
    n = model.num_vars
    if n > EXHAUSTIVE_CAP:
        return SampleSet.failed(Backend.EXHAUSTIVE, Failure.NOT_APPLICABLE, 0)
    q, offset = model.q, model.offset
    n_lo = min((n + 1) // 2, 16)
    n_hi = n - n_lo
    hi, lo = _all_rows(n_hi), _all_rows(n_lo)
    e_hi = offset + np.einsum("ij,ij->i", hi @ q[:n_hi, :n_hi], hi)
    e_lo = np.einsum("ij,ij->i", lo @ q[n_hi:, n_hi:], lo)
    cross = hi @ q[:n_hi, n_hi:]

    best_e = math.inf
    best_m = 0
    block = max(1, (1 << 16) >> n_lo)  # leading-half rows per block
    for start in range(0, len(hi), block):
        stop = min(start + block, len(hi))
        energies = e_hi[start:stop, None] + e_lo[None, :] + cross[start:stop] @ lo.T
        idx = int(np.argmin(energies))  # first minimum in C order = smallest index
        if energies.flat[idx] < best_e:
            best_e = float(energies.flat[idx])
            best_m = (start << n_lo) + idx
    row = np.array([[(best_m >> (n - 1 - j)) & 1 for j in range(n)]], dtype=np.uint8)
    return SampleSet.from_reads(Backend.EXHAUSTIVE, model, row)


# --- simulated annealing -----------------------------------------------------


def _colour_classes(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy colouring of the coupling graph, in which u != v are coupled
    when ``q[u, v]`` or ``q[v, u]`` is nonzero (for the model's upper
    triangular ``q``: when ``(q + q.T)[u, v]`` is): variables in index
    order, each taking the smallest colour none of its neighbours has.

    Returns ``order``, the variables sorted stably by colour, and ``bounds``:
    colour class c is ``order[bounds[c]:bounds[c + 1]]``, and no two of its
    variables are coupled.
    """
    n = len(q)
    coupled = (q != 0.0) | (q.T != 0.0)
    colour = np.zeros(n, dtype=np.int64)
    for v in range(n):
        taken = np.zeros(v + 1, dtype=bool)  # v earlier variables use colours <= v - 1
        taken[colour[:v][coupled[v, :v]]] = True
        colour[v] = int(np.argmin(taken))
    order = np.argsort(colour, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(colour))))
    return order, bounds


def sa_sample(
    model: QuboModel,
    num_reads: int = DEFAULT_NUM_READS,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
) -> SampleSet:
    """Independent Metropolis restarts, each from a random bitstring.

    All restarts are evolved as one array program; the result is fully
    determined by (model, num_reads, schedule, seed). Each read reports its
    final state after the last sweep.

    Each sweep visits the variables class by class, in the greedy colour
    order of ``_colour_classes``. The variables of one class are uncoupled,
    so flipping one leaves the others' local fields as they were, and the
    whole class reads its fields from the spins s = 1 - 2b in one product,
    ``coef @ [s; 1]`` (Isakov et al., Comput. Phys. Commun. 192:265, 2015;
    exact on integer weights), then takes its accept tests and flips in one
    array step: a sequential single-flip Metropolis sweep in colour order
    (Gonzalez, Low, Gretton & Guestrin, AISTATS 2011). The initial bits and
    each sweep's uniform draws are indexed by the original variable.
    """
    if num_reads < 1:
        raise ValueError("num_reads must be >= 1")
    schedule = schedule or default_schedule(model)
    n = model.num_vars
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order, bounds = _colour_classes(model.q)
    # coef = [-qsym / 2 | diag(q) + rowsum(qsym) / 2], qsym = q + q.T with a zero
    # diagonal, in colour order so that each class is a contiguous row block
    coef = np.empty((n, n + 1))
    qsym = coef[:, :n]
    qsym[...] = model.q[np.ix_(order, order)]
    qsym += qsym.T  # diagonal 2 q_vv, so half a row sum is q_vv + half the rest
    coef[:, n] = qsym.sum(axis=1) / 2.0
    np.fill_diagonal(qsym, 0.0)
    qsym *= -0.5
    spins = np.ones((n + 1, num_reads))  # rows: 1 - 2 b (a flip's sign), then ones
    spins[:n] = 1.0 - 2.0 * rng.integers(0, 2, size=(num_reads, n)).T[order]
    thresholds = np.empty((n, num_reads))
    # per class, views of its rows: state, thresholds and field coefficients
    blocks = zip(bounds[:-1].tolist(), bounds[1:].tolist())
    classes = [(spins[a:b], thresholds[a:b], coef[a:b]) for a, b in blocks]
    for beta in schedule.betas():
        # accept iff u < exp(-beta * delta), i.e. delta < -log(u) / beta
        draws = -np.log(rng.random((num_reads, n)) + 1e-300) / beta
        np.take(draws.T, order, axis=0, out=thresholds)  # in place: the class views read it
        # Until the first flip the state is the sweep's start state, so a
        # variable no read accepts now is rejected in the sweep too.
        live = (spins[:n] * (coef @ spins) < thresholds).any(axis=1)
        if not live.any():
            continue
        first = int(np.searchsorted(bounds, np.argmax(live), side="right")) - 1
        for s, thr, rows in classes[first:]:
            delta = rows @ spins  # the class's fields from the current state
            delta *= s
            np.negative(s, out=s, where=delta < thr)

    bits = np.empty((num_reads, n), dtype=np.uint8)
    bits[:, order] = (spins[:n].T < 0)
    return SampleSet.from_reads(Backend.SIMULATED_ANNEALING, model, bits)


# --- external sampler adapter -------------------------------------------------


class ExternalSamplerError(RuntimeError):
    """The remote sampler returned something outside the agreed schema."""


def http_transport(url: str) -> Callable[[dict], dict]:
    """A transport that POSTs the request dict to ``url`` as JSON and returns
    the decoded response. An error status is an ExternalSamplerError, except
    408 and 504, which say the request timed out and stay transport errors;
    so is a body that is not UTF-8 JSON."""

    def send(payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=EXTERNAL_TIMEOUT_S) as resp:
                text = resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code in _TIMEOUT_STATUSES:
                raise
            raise ExternalSamplerError(
                f"endpoint answered HTTP {exc.code} {exc.reason}"
            ) from None
        try:
            return json.loads(text.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise ExternalSamplerError(f"response is not JSON: {exc}") from None

    return send


_FAILURE_KEYWORDS = (
    ("embed", Failure.COULD_NOT_EMBED),
    ("timeout", Failure.TIMEOUT),
    ("invalid", Failure.INVALID_TOUR),
)


def _map_remote_failure(reason: str) -> Failure:
    lowered = reason.lower()
    for needle, failure in _FAILURE_KEYWORDS:
        if needle in lowered:
            return failure
    return Failure.NOT_APPLICABLE


def external_sampler_submit(
    model: QuboModel, num_reads: int, transport: Callable[[dict], dict]
) -> SampleSet:
    """Ship the exported model, ingest (bits, count) pairs, recompute energies.

    ``transport`` takes the JSON-able request dict and returns the response
    dict (``http_transport`` sends it to an endpoint). A bit string listed
    more than once counts once, with the counts summed.

    Remote failure strings map onto the failure taxonomy; transport errors
    and malformed HTTP replies count as a timeout; schema violations raise,
    as do ``http_transport``'s error statuses other than 408 and 504.
    """
    payload = {"model": qubo.to_json_dict(model), "num_reads": num_reads}
    try:
        response = transport(payload)
    except (OSError, http.client.HTTPException):  # URLError and timeouts are OSErrors
        return SampleSet.failed(Backend.EXTERNAL, Failure.TIMEOUT, num_reads)

    if not isinstance(response, dict):
        raise ExternalSamplerError("response is not a JSON object")
    reason = response.get("failure")
    if reason:
        failure = _map_remote_failure(str(reason))
        return SampleSet.failed(Backend.EXTERNAL, failure, num_reads)
    try:
        rows, counts = _read_entries(response.get("entries"), model.num_vars)
    except ValueError as exc:
        raise ExternalSamplerError(str(exc)) from None
    return SampleSet.from_reads(Backend.EXTERNAL, model, rows, counts)
