from __future__ import annotations

import dataclasses
import itertools
import json
import math
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from gtspq.baseline import exact_solve
from gtspq.bench import build_report
from gtspq.instance import GtspInstance
from gtspq.qubo import as_rows, build_qubo, decode, energies, energy, from_terms, rows_to_strs
from gtspq.sampler import (
    AnnealSchedule,
    Backend,
    ExternalSamplerConfig,
    ExternalSamplerError,
    Failure,
    SampleSet,
    default_schedule,
    exhaustive_ground_state,
    external_sampler_submit,
    sa_sample,
)

import gen


def _ground(model):
    """The exhaustive set's one row as a bit string, and its energy."""
    result = exhaustive_ground_state(model)
    return rows_to_strs(result.entries)[0], float(result.energies[0])


def test_exhaustive_toy_ground_state(toy_instance):
    model = build_qubo(toy_instance)
    bits, e = _ground(model)
    verdict = decode(model, toy_instance, bits)
    assert verdict.feasible
    assert e == pytest.approx(10.0)


def test_exhaustive_tie_breaks_lexicographically():
    model = from_terms(3, 1, [], [], offset=2.0, lam=1.0)
    bits, e = _ground(model)
    assert bits == "000"
    assert e == 2.0


def _brute_force(model):
    """Reference scan: every state's energy summed term by term over the
    dicts, first minimum in index order."""
    n = model.num_vars
    states = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    e = np.full(len(states), model.offset)
    for v, c in model.linear.items():
        e += c * states[:, v]
    for (u, v), c in model.quadratic.items():
        e += c * states[:, u] * states[:, v]
    best = int(np.argmin(e))
    return "".join(map(str, states[best])), float(e[best])


@pytest.mark.parametrize("num_vars", [1, 2, 3, 5, 8, 11, 13])
def test_exhaustive_split_half_matches_brute_force(num_vars):
    rng = np.random.default_rng(num_vars)
    for _ in range(5):
        # small integer coefficients: many ties, all sums exact
        model = from_terms(
            num_vars,
            1,
            [(v, float(rng.integers(-3, 4))) for v in range(num_vars)],
            [
                (u, v, float(rng.integers(-3, 4)))
                for u in range(num_vars)
                for v in range(u + 1, num_vars)
                if rng.random() < 0.5
            ],
            offset=float(rng.integers(-5, 6)),
            lam=1.0,
        )
        assert _ground(model) == _brute_force(model)


def test_exhaustive_all_tie_and_cross_block_tie():
    model = from_terms(7, 3, [], [], offset=-1.5, lam=1.0)
    assert _ground(model) == ("0" * 21, -1.5)
    # 18 variables make four blocks of 2^16 states; the minimum -1 is reached
    # in several of them, and the smallest index wins
    tied = from_terms(18, 1, [(0, -1.0), (17, -1.0)], [(0, 17, 1.0)], offset=0.0, lam=1.0)
    assert _ground(tied) == ("0" * 17 + "1", -1.0)
    later = from_terms(18, 1, [(0, -2.0), (17, -1.0)], [(0, 17, 1.0)], offset=0.0, lam=1.0)
    assert _ground(later) == ("1" + "0" * 17, -2.0)


def test_exhaustive_cap():
    """At 24 variables the scan returns one read of its one row; at 25 it
    returns a not_applicable failure with no reads."""
    at_cap = exhaustive_ground_state(from_terms(8, 3, [(5, -1.0)], [], offset=0.0, lam=1.0))
    assert at_cap.backend is Backend.EXHAUSTIVE and at_cap.failure is None
    assert at_cap.num_reads == 1 and at_cap.counts.tolist() == [1]
    assert at_cap.entries.tolist() == [[int(v == 5) for v in range(24)]]
    assert at_cap.energies.tolist() == [-1.0]
    over = exhaustive_ground_state(from_terms(5, 5, [], [], offset=0.0, lam=1.0))
    assert over.backend is Backend.EXHAUSTIVE
    assert over.failure is Failure.NOT_APPLICABLE
    assert over.num_reads == 0 and len(over.counts) == 0


def test_exhaustive_matches_exact_baseline():
    for seed in (1, 2, 3):
        inst = gen.make_random_instance(seed=seed, n=4, k=3)
        model = build_qubo(inst)
        bits, e = _ground(model)
        verdict = decode(model, inst, bits)
        assert verdict.feasible
        assert e == pytest.approx(exact_solve(inst).cost, abs=1e-9)


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(sweeps=0, beta_initial=0.1, beta_final=1.0)
    with pytest.raises(ValueError):
        AnnealSchedule(sweeps=10, beta_initial=1.0, beta_final=0.1)
    geo = AnnealSchedule(sweeps=3, beta_initial=1.0, beta_final=4.0)
    assert geo.betas().tolist() == [1.0, 2.0, 4.0]
    assert AnnealSchedule(sweeps=1, beta_initial=1.0, beta_final=4.0).betas().tolist() == [4.0]


def test_default_schedule_feasible_on_medium_fixtures():
    """At 300 reads the default schedule ends cold enough to settle into
    valid tours near the optimum on benchmark-shaped fixtures (20 and 52
    variables)."""
    for name, n, k in (("20gr96_nodes_5", 5, 4), ("11ft53_nodes_13", 13, 4)):
        inst = gen.subsample_instance(name, n, k)
        model = build_qubo(inst)
        sched = default_schedule(model)
        assert sched.sweeps == 1000
        coeffs = [abs(c) for c in [*model.linear.values(), *model.quadratic.values()] if c]
        assert sched.beta_final == math.log(100.0) / min(coeffs)
        samples = sa_sample(model, num_reads=300, schedule=sched, seed=0)
        report = build_report(inst, model, {"sa": samples}, exact_solve(inst), [1.0])
        backend = report.backends["sa"]
        assert backend.feasible_shot_rate >= 0.9, name
        assert backend.best_shot_ar >= 0.95, name


def _sa_reference_entries(model, num_reads, schedule, seed):
    """Reference sweep: reads as rows, every variable tested in every sweep,
    accepted flips applied with per-read masks."""
    n = model.num_vars
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    q = model.q.copy()
    linear = np.diagonal(q).copy()
    np.fill_diagonal(q, 0.0)
    qsym = q + q.T
    bits = rng.integers(0, 2, size=(num_reads, n)).astype(np.float64)
    fields = bits @ qsym
    for beta in schedule.betas():
        thresholds = -np.log(rng.random((num_reads, n)) + 1e-300) / beta
        for v in range(n):
            sign = 1.0 - 2.0 * bits[:, v]
            delta = sign * (linear[v] + fields[:, v])
            accept = delta < thresholds[:, v]
            if not accept.any():
                continue
            coef = np.where(accept, sign, 0.0)
            fields += coef[:, None] * qsym[v][None, :]
            bits[:, v] = np.where(accept, 1.0 - bits[:, v], bits[:, v])
    rows, counts = np.unique(bits.astype(np.uint8), axis=0, return_counts=True)
    return SampleSet.from_rows(
        Backend.SIMULATED_ANNEALING, num_reads, rows, counts, energies(model, rows)
    )



def _decimal_model(seed, n, k):
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 100_000, size=(n, n)) / 1000.0
    np.fill_diagonal(w, 0.0)
    inst = GtspInstance(f"d{seed}", gen.random_partition(n, k, rng), w, symmetric=False)
    return build_qubo(inst)


@pytest.mark.parametrize("num_reads", [1, 7, 64])
@pytest.mark.parametrize("sweeps", [1, 13, 200])
def test_sa_matches_reference_sweep(num_reads, sweeps):
    """Bit-identical to the reference sweep on non-integer weights."""
    for seed, (n, k) in enumerate([(2, 2), (3, 3), (4, 3), (5, 2), (6, 4)]):
        model = _decimal_model(seed, n, k)
        for schedule in (
            default_schedule(model, sweeps=sweeps),
            AnnealSchedule(sweeps, 0.01, 5.0),
        ):
            got = sa_sample(model, num_reads, schedule, seed=seed + 10)
            want = _sa_reference_entries(model, num_reads, schedule, seed + 10)
            assert got.to_json_dict() == want.to_json_dict()


def test_sa_downhill_only_single_variable():
    model = from_terms(1, 1, [(0, 5.0)], [], offset=0.0, lam=1.0)
    result = sa_sample(model, num_reads=64, seed=0)
    assert result.entries.tolist() == [[0]]
    assert result.counts.tolist() == [64]
    assert result.backend is Backend.SIMULATED_ANNEALING


def test_sa_deterministic_for_fixed_seed():
    inst = gen.make_random_instance(seed=6, n=4, k=2)
    model = build_qubo(inst)
    a = sa_sample(model, num_reads=50, seed=123)
    b = sa_sample(model, num_reads=50, seed=123)
    assert a.to_json_dict() == b.to_json_dict()
    c = sa_sample(model, num_reads=50, seed=124)
    assert a.to_json_dict() != c.to_json_dict()


def test_sa_counts_sum_to_num_reads():
    inst = gen.make_random_instance(seed=7, n=3, k=2)
    model = build_qubo(inst)
    result = sa_sample(model, num_reads=200, seed=5)
    assert result.counts.sum() == 200
    assert result.failure is None


def test_sa_energy_honesty():
    inst = gen.make_random_instance(seed=8, n=4, k=3)
    model = build_qubo(inst)
    result = sa_sample(model, num_reads=100, seed=2)
    for row, e in zip(result.entries, result.energies):
        assert e == pytest.approx(energy(model, row), abs=1e-9)


def test_sa_entries_sorted_by_energy_then_bits():
    inst = gen.make_random_instance(seed=9, n=4, k=3)
    model = build_qubo(inst)
    result = sa_sample(model, num_reads=300, seed=4)
    keys = [(e, row) for e, row in zip(result.energies.tolist(), result.entries.tolist())]
    assert keys == sorted(keys)
    assert len(set(map(tuple, result.entries.tolist()))) == len(keys)  # distinct rows
    assert not result.entries.flags.writeable


def test_sa_best_read_hits_ground_state():
    inst = gen.make_random_instance(seed=10, n=5, k=3)  # 15 vars
    model = build_qubo(inst)
    _, gs = _ground(model)
    result = sa_sample(model, num_reads=1500, seed=0)
    assert result.energies[0] == pytest.approx(gs, abs=1e-9)


def test_sa_more_sweeps_help_on_average():
    inst = gen.make_random_instance(seed=11, n=8, k=2)  # 16 vars
    model = build_qubo(inst)
    short, long = [], []
    for seed in range(30):
        short.append(
            sa_sample(model, 4, default_schedule(model, sweeps=20), seed).energies[0]
        )
        long.append(
            sa_sample(model, 4, default_schedule(model, sweeps=2000), seed).energies[0]
        )
    assert np.mean(long) <= np.mean(short)


# --- external sampler adapter --------------------------------------------------


def _toy_model(toy_instance):
    return build_qubo(toy_instance)


def test_external_echo_ground_state(toy_instance):
    model = _toy_model(toy_instance)
    gs_bits, gs_energy = _ground(model)

    def transport(payload):
        assert payload["model"]["n_vars"] == model.num_vars
        return {"entries": [{"bits": gs_bits, "count": 3}]}

    result = external_sampler_submit(model, ExternalSamplerConfig(transport=transport))
    assert result.backend is Backend.EXTERNAL
    assert result.num_reads == 3
    assert result.entries.tolist() == as_rows([gs_bits], model.num_vars).tolist()
    assert result.counts.tolist() == [3]
    assert result.energies.tolist() == [gs_energy]


def test_external_never_trusts_remote_energy(toy_instance):
    model = _toy_model(toy_instance)

    def transport(payload):
        return {"entries": [{"bits": "1001", "count": 1, "energy": -999.0}]}

    result = external_sampler_submit(model, ExternalSamplerConfig(transport=transport))
    assert result.energies[0] == pytest.approx(energy(model, "1001"))


def test_external_embedding_failure(toy_instance):
    model = _toy_model(toy_instance)
    result = external_sampler_submit(
        model,
        ExternalSamplerConfig(transport=lambda payload: {"failure": "embedding failed"}),
    )
    assert result.failure is Failure.COULD_NOT_EMBED
    assert len(result.entries) == len(result.counts) == 0
    assert result.num_reads == 1500


def test_external_wrong_length_is_schema_error(toy_instance):
    model = _toy_model(toy_instance)
    with pytest.raises(ExternalSamplerError):
        external_sampler_submit(
            model,
            ExternalSamplerConfig(
                transport=lambda payload: {"entries": [{"bits": "101", "count": 1}]}
            ),
        )


@pytest.mark.parametrize(
    "item, message",
    [
        ({"bits": "1001", "count": 2.7}, "count 2.7 is not a positive integer"),
        ({"bits": "1001", "count": True}, "count True is not a positive integer"),
        ({"bits": "1001", "count": 0}, "count 0 is not a positive integer"),
        ({"bits": "1001", "count": "3"}, "count '3' is not a positive integer"),
        ({"bits": "1001"}, "count None is not a positive integer"),
        ({"bits": "1x01", "count": 1}, "'1x01' holds a character other than 0/1"),
        ({"bits": "10 1", "count": 1}, "'10 1' holds a character other than 0/1"),
        ({"bits": 1001, "count": 1}, "lacks a bit string"),
        ("1001", "lacks a bit string"),
    ],
)
def test_external_malformed_entry_names_its_fault(toy_instance, item, message):
    model = _toy_model(toy_instance)
    config = ExternalSamplerConfig(transport=lambda payload: {"entries": [item]})
    with pytest.raises(ExternalSamplerError, match=message):
        external_sampler_submit(model, config)


def test_external_merges_repeated_bitstrings(toy_instance):
    model = _toy_model(toy_instance)
    entries = [{"bits": "1001", "count": 2}, {"bits": "0000", "count": 1}, {"bits": "1001", "count": 3}]
    result = external_sampler_submit(
        model, ExternalSamplerConfig(transport=lambda payload: {"entries": entries})
    )
    assert result.num_reads == 6
    assert result.entries.tolist() == [[1, 0, 0, 1], [0, 0, 0, 0]]  # by energy
    assert result.counts.tolist() == [5, 1]


def test_external_transport_error_is_timeout(toy_instance):
    model = _toy_model(toy_instance)

    def broken(payload):
        raise urllib.error.URLError("down")

    result = external_sampler_submit(model, ExternalSamplerConfig(transport=broken))
    assert result.failure is Failure.TIMEOUT


def test_external_http_round_trip(toy_instance):
    model = _toy_model(toy_instance)
    gs_bits, _ = _ground(model)

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            assert body["model"]["layout"] == {"n": 2, "k": 2}
            payload = json.dumps({"entries": [{"bits": gs_bits, "count": 2}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/"
        result = external_sampler_submit(model, ExternalSamplerConfig(url=url))
        assert result.num_reads == 2
        assert result.entries.tolist() == as_rows([gs_bits], model.num_vars).tolist()
    finally:
        server.shutdown()


def test_sampleset_json_round_trip(toy_instance):
    model = _toy_model(toy_instance)
    result = sa_sample(model, num_reads=20, seed=1)
    data = result.to_json_dict()
    again = SampleSet.from_json_dict(json.loads(json.dumps(data)))
    assert again.to_json_dict() == data
    for name in ("entries", "counts", "energies"):
        assert getattr(again, name).dtype == getattr(result, name).dtype
        assert np.array_equal(getattr(again, name), getattr(result, name))
    timed = dataclasses.replace(result, backend=Backend.QAOA, wall_time_s=1.25)
    assert timed.to_json_dict()["wall_time_s"] == 1.25
    assert SampleSet.from_json_dict(data).wall_time_s is None
    failed = SampleSet.failed(Backend.EXTERNAL, Failure.TIMEOUT, 7)
    assert SampleSet.from_json_dict(failed.to_json_dict()).to_json_dict() == failed.to_json_dict()
    assert failed.num_reads == 7 and failed.entries.shape == (0, 0)
