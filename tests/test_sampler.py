from __future__ import annotations

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
from gtspq import qubo
from gtspq.instance import GtspInstance
from gtspq.qubo import as_rows, build_qubo, decode, energies, energy, rows_to_strs
from gtspq.sampler import (
    JSON_CHUNK_ENTRIES,
    AnnealSchedule,
    Backend,
    _colour_classes,
    ExternalSamplerError,
    Failure,
    SampleSet,
    default_schedule,
    exhaustive_ground_state,
    external_sampler_submit,
    http_transport,
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
    model = gen.from_terms(3, 1, [], [], offset=2.0, lam=1.0)
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
        model = gen.from_terms(
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
    model = gen.from_terms(7, 3, [], [], offset=-1.5, lam=1.0)
    assert _ground(model) == ("0" * 21, -1.5)
    # 18 variables make four blocks of 2^16 states; the minimum -1 is reached
    # in several of them, and the smallest index wins
    tied = gen.from_terms(18, 1, [(0, -1.0), (17, -1.0)], [(0, 17, 1.0)], offset=0.0, lam=1.0)
    assert _ground(tied) == ("0" * 17 + "1", -1.0)
    later = gen.from_terms(18, 1, [(0, -2.0), (17, -1.0)], [(0, 17, 1.0)], offset=0.0, lam=1.0)
    assert _ground(later) == ("1" + "0" * 17, -2.0)


def test_exhaustive_cap():
    """At 24 variables the scan returns one read of its one row; at 25 it
    returns a not_applicable failure with no reads."""
    at_cap = exhaustive_ground_state(gen.from_terms(8, 3, [(5, -1.0)], [], offset=0.0, lam=1.0))
    assert at_cap.backend is Backend.EXHAUSTIVE and at_cap.failure is None
    assert at_cap.num_reads == 1 and at_cap.counts.tolist() == [1]
    assert at_cap.entries.tolist() == [[int(v == 5) for v in range(24)]]
    assert at_cap.energies.tolist() == [-1.0]
    over = exhaustive_ground_state(gen.from_terms(5, 5, [], [], offset=0.0, lam=1.0))
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
        report = build_report(inst, model, {"sa": samples}, exact_solve(inst).cost, [1.0])
        backend = report["backends"]["sa"]
        assert backend["feasible_shot_rate"] >= 0.9, name
        assert backend["best_shot_ar"] >= 0.95, name


def _sa_reference_entries(model, num_reads, schedule, seed, order):
    """Reference sweep: reads as rows, every variable tested in every sweep
    in the visiting ``order``, accepted flips applied with per-read masks."""
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
        for v in order:
            sign = 1.0 - 2.0 * bits[:, v]
            delta = sign * (linear[v] + fields[:, v])
            accept = delta < thresholds[:, v]
            if not accept.any():
                continue
            coef = np.where(accept, sign, 0.0)
            fields += coef[:, None] * qsym[v][None, :]
            bits[:, v] = np.where(accept, 1.0 - bits[:, v], bits[:, v])
    rows, counts = np.unique(bits.astype(np.uint8), axis=0, return_counts=True)
    return gen.from_rows(
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
    """Bit-identical to the reference sweep taken in colour order, on
    non-integer weights and on integer-weight shapes with K >= 4, whose
    colour classes have several members."""
    models = [_decimal_model(seed, n, k) for seed, (n, k) in
              enumerate([(2, 2), (3, 3), (4, 3), (5, 2), (6, 4)])]
    models += [build_qubo(gen.make_random_instance(seed=20 + k, n=n, k=k))
               for n, k in [(8, 5), (12, 7)]]
    for seed, model in enumerate(models):
        order, _ = _colour_classes(model.q)
        for schedule in (
            default_schedule(model, sweeps=sweeps),
            AnnealSchedule(sweeps, 0.01, 5.0),
        ):
            got = sa_sample(model, num_reads, schedule, seed=seed + 10)
            want = _sa_reference_entries(model, num_reads, schedule, seed + 10, order)
            assert gen.sample_text(got) == gen.sample_text(want)


def _classes(model):
    order, bounds = _colour_classes(model.q)
    return [order[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("n, k", [(2, 2), (5, 3), (8, 4), (12, 7), (9, 9)])
def test_colour_classes_partition_uncoupled_variables(n, k):
    """The classes partition the variables, no class holds two coupled
    variables, and the colouring depends on q alone. With K >= 4 some
    variables share a class; with K <= 3 the step and cluster one-hot
    cliques and the tour's edges couple every pair, so each class is one
    variable."""
    model = build_qubo(gen.make_random_instance(seed=n * k, n=n, k=k))
    classes = _classes(model)
    assert sorted(v for c in classes for v in c) == list(range(model.num_vars))
    for c in classes:
        assert c == sorted(c)
        assert not np.any(model.q[np.ix_(c, c)][~np.eye(len(c), dtype=bool)])
    assert _classes(build_qubo(gen.make_random_instance(seed=n * k, n=n, k=k))) == classes
    if k >= 4:
        assert len(classes) < model.num_vars
    else:
        assert classes == [[v] for v in range(model.num_vars)]


def test_sa_downhill_only_single_variable():
    model = gen.from_terms(1, 1, [(0, 5.0)], [], offset=0.0, lam=1.0)
    result = sa_sample(model, num_reads=64, seed=0)
    assert result.entries.tolist() == [[0]]
    assert result.counts.tolist() == [64]
    assert result.backend is Backend.SIMULATED_ANNEALING


def test_sa_deterministic_for_fixed_seed():
    inst = gen.make_random_instance(seed=6, n=4, k=2)
    model = build_qubo(inst)
    a = sa_sample(model, num_reads=50, seed=123)
    b = sa_sample(model, num_reads=50, seed=123)
    assert gen.sample_text(a) == gen.sample_text(b)
    c = sa_sample(model, num_reads=50, seed=124)
    assert gen.sample_text(a) != gen.sample_text(c)


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

    result = external_sampler_submit(model, 1500, transport)
    assert result.backend is Backend.EXTERNAL
    assert result.num_reads == 3
    assert result.entries.tolist() == as_rows([gs_bits], model.num_vars).tolist()
    assert result.counts.tolist() == [3]
    assert result.energies.tolist() == [gs_energy]


def test_external_never_trusts_remote_energy(toy_instance):
    model = _toy_model(toy_instance)

    def transport(payload):
        return {"entries": [{"bits": "1001", "count": 1, "energy": -999.0}]}

    result = external_sampler_submit(model, 1500, transport)
    assert result.energies[0] == pytest.approx(energy(model, "1001"))


def test_external_embedding_failure(toy_instance):
    model = _toy_model(toy_instance)
    result = external_sampler_submit(model, 1500, lambda payload: {"failure": "embedding failed"})
    assert result.failure is Failure.COULD_NOT_EMBED
    assert len(result.entries) == len(result.counts) == 0
    assert result.num_reads == 1500


def test_external_wrong_length_is_schema_error(toy_instance):
    model = _toy_model(toy_instance)
    with pytest.raises(ExternalSamplerError):
        external_sampler_submit(
            model, 1500, lambda payload: {"entries": [{"bits": "101", "count": 1}]}
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
        ("1001", "not a list of objects"),
    ],
)
def test_external_malformed_entry_names_its_fault(toy_instance, item, message):
    model = _toy_model(toy_instance)
    with pytest.raises(ExternalSamplerError, match=message):
        external_sampler_submit(model, 1500, lambda payload: {"entries": [item]})


def test_external_merges_repeated_bitstrings(toy_instance):
    model = _toy_model(toy_instance)
    entries = [{"bits": "1001", "count": 2}, {"bits": "0000", "count": 1}, {"bits": "1001", "count": 3}]
    result = external_sampler_submit(model, 1500, lambda payload: {"entries": entries})
    assert result.num_reads == 6
    assert result.entries.tolist() == [[1, 0, 0, 1], [0, 0, 0, 0]]  # by energy
    assert result.counts.tolist() == [5, 1]


def test_external_merges_counts_exactly(toy_instance):
    """Counts 2**53 and 1 on one bit string merge to 2**53 + 1, which a
    float64 sum rounds away, and the set's file reads back to its text."""
    model = _toy_model(toy_instance)
    entries = [{"bits": "1001", "count": 2**53}, {"bits": "1001", "count": 1}]
    result = external_sampler_submit(model, 1500, lambda payload: {"entries": entries})
    assert result.counts.tolist() == [2**53 + 1]
    assert result.num_reads == 2**53 + 1
    text = gen.sample_text(result)
    assert gen.sample_text(SampleSet.from_json_dict(json.loads(text), model.num_vars)) == text


@pytest.mark.parametrize(
    "bits, counts",
    [(["1001", "1001"], [2**62, 2**62]), (["1001", "0110"], [2**63 - 1, 1]), (["1001"], [2**63])],
)
def test_external_counts_summing_to_2_63_are_schema_errors(toy_instance, bits, counts):
    """Counts are int64, so counts that sum to 2**63 or more cannot be
    merged; the response is rejected rather than wrapped to a negative."""
    model = _toy_model(toy_instance)
    entries = [{"bits": b, "count": c} for b, c in zip(bits, counts)]
    with pytest.raises(ExternalSamplerError, match=r"not below 2\*\*63"):
        external_sampler_submit(model, 1500, lambda payload: {"entries": entries})


def test_external_transport_error_is_timeout(toy_instance):
    model = _toy_model(toy_instance)

    def broken(payload):
        raise urllib.error.URLError("down")

    result = external_sampler_submit(model, 1500, broken)
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
        result = external_sampler_submit(model, 1500, http_transport(url))
        assert result.num_reads == 2
        assert result.entries.tolist() == as_rows([gs_bits], model.num_vars).tolist()
    finally:
        server.shutdown()


def test_sampleset_json_round_trip(toy_instance):
    model = _toy_model(toy_instance)
    result = sa_sample(model, num_reads=20, seed=1)
    text = gen.sample_text(result)
    data = json.loads(text)
    again = SampleSet.from_json_dict(data, model.num_vars)
    assert gen.sample_text(again) == text
    for name in ("entries", "counts", "energies"):
        assert getattr(again, name).dtype == getattr(result, name).dtype
        assert np.array_equal(getattr(again, name), getattr(result, name))
    assert sorted(data) == ["backend", "entries", "failure", "num_reads"]
    failed = SampleSet.failed(Backend.EXTERNAL, Failure.TIMEOUT, 7)
    text = gen.sample_text(failed)
    assert gen.sample_text(SampleSet.from_json_dict(json.loads(text), model.num_vars)) == text
    assert failed.num_reads == 7 and failed.entries.shape == (0, 0)


def _by_hand(samples):
    """The dict a sample set's JSON text holds, built here field by field."""
    return {
        "backend": samples.backend.value,
        "num_reads": samples.num_reads,
        "failure": samples.failure.value if samples.failure else None,
        "entries": [
            {"bits": "".join(str(b) for b in row), "count": int(count), "energy": float(e)}
            for row, count, e in zip(samples.entries.tolist(), samples.counts, samples.energies)
        ],
    }


@pytest.mark.parametrize(
    "energies",
    [[1e-05, -0.0, 1e16, 0.1 + 0.2], [0.0, math.inf, -math.inf, 2.5]],
    ids=["finite", "infinite"],
)
@pytest.mark.parametrize("size", [0, 1, 4, JSON_CHUNK_ENTRIES + 3])
def test_sampleset_json_text_is_json_dump_indent_2(size, energies):
    """The streamed text is ``json.dumps`` of the hand-built dict with
    indent 2 and sorted keys, plus a newline: for no entry, one entry, and
    more entries than one chunk holds, with float energies whose text is
    easy to get wrong."""
    width = max(size - 1, 0).bit_length() + 2
    rows = (np.arange(size)[:, None] >> np.arange(width)[::-1] & 1).astype(np.uint8)
    samples = gen.from_rows(
        Backend.QAOA, 3 * size, rows, np.arange(size) % 3 + 1, np.resize(energies, size)
    )
    want = json.dumps(_by_hand(samples), indent=2, sort_keys=True) + "\n"
    assert gen.sample_text(samples) == want
    assert len(list(samples.json_chunks())) == 2 + 2 * -(-size // JSON_CHUNK_ENTRIES)


@pytest.mark.parametrize("failure", list(Failure))
def test_failed_sampleset_json_text_is_json_dump_indent_2(failure):
    samples = SampleSet.failed(Backend.EXTERNAL, failure, 0)
    want = json.dumps(_by_hand(samples), indent=2, sort_keys=True) + "\n"
    assert gen.sample_text(samples) == want
    assert '"entries": [],' in want


def _bit_column_order(rows, energies):
    """The (energy, bits) order as one lexsort key per bit column."""
    return np.lexsort((*rows.T[::-1], energies))


# ties, both zeros, both infinities and NaN, none of which may break bit order
_AWKWARD_ENERGIES = [0.0, -0.0, 1.0, 1.0, math.inf, -math.inf, math.nan]


def _assert_same_set(got, want):
    """Equal sets down to the bytes of each array (NaN and -0.0 included)."""
    assert (got.backend, got.num_reads, got.failure) == (want.backend, want.num_reads, want.failure)
    for name in ("entries", "counts", "energies"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _orders_of_every_constructor(monkeypatch, rows, counts, energies):
    """The reference ``gen.from_rows`` set of distinct ``rows``, after
    checking it against the bit-column order and checking that
    ``from_json_dict`` on its entries shuffled, and ``from_reads`` on the rows
    shuffled and each read twice with half its (even) count, give it too.
    ``from_reads`` takes its energies from a stand-in for ``qubo.energies``
    that looks each row up."""
    width = rows.shape[1]
    num_reads = int(counts.sum())
    want = gen.from_rows(Backend.EXTERNAL, num_reads, rows, counts, energies)
    order = _bit_column_order(rows, energies)
    assert want.entries.tobytes() == rows[order].tobytes()
    assert np.array_equal(want.counts, counts[order])
    assert want.energies.tobytes() == energies[order].tobytes()

    rng = np.random.default_rng(len(rows) + width)
    data = json.loads(gen.sample_text(want))
    data["entries"] = [data["entries"][i] for i in rng.permutation(len(rows))]
    _assert_same_set(SampleSet.from_json_dict(data, width), want)

    table = {row.tobytes(): e for row, e in zip(rows, energies)}
    monkeypatch.setattr(
        qubo, "energies", lambda model, rs: np.array([table[r.tobytes()] for r in rs])
    )
    model = gen.from_terms(width, 1, [], [], offset=0.0, lam=1.0)
    shuffle = rng.permutation(2 * len(rows))
    reads = np.concatenate([rows, rows])[shuffle]
    halves = (np.concatenate([counts, counts]) // 2)[shuffle]
    _assert_same_set(SampleSet.from_reads(Backend.EXTERNAL, model, reads, halves), want)
    return want


@pytest.mark.parametrize("width", [1, 7, 8, 9, 60, 64, 65, 140])
def test_from_rows_orders_as_one_key_per_bit(monkeypatch, width):
    """The reference order, rows packed to bytes, is the order bit by bit:
    by energy, then by bits with bit 0 first; ``from_json_dict`` and
    ``from_reads`` give it too. Few distinct energies force the bit keys,
    and zeros of both signs, infinities and NaN tie among themselves."""
    rng = np.random.default_rng(width)
    rows = np.unique(rng.integers(0, 2, size=(300, width), dtype=np.uint8), axis=0)
    rows = rows[rng.permutation(len(rows))]
    energies = rng.choice(_AWKWARD_ENERGIES, size=len(rows))
    counts = 2 * np.arange(1, len(rows) + 1)
    _orders_of_every_constructor(monkeypatch, rows, counts, energies)


@pytest.mark.parametrize("size", [0, 1])
def test_from_rows_orders_zero_width_rows(monkeypatch, size):
    """The failed set's (0, 0) rows, and the one empty row of a model
    without variables, come out as the bit-column order has them, from
    every constructor."""
    rows, energies = np.zeros((size, 0), dtype=np.uint8), np.zeros(size)
    got = _orders_of_every_constructor(monkeypatch, rows, np.full(size, 2), energies)
    assert got.entries.shape == (size, 0) and got.entries.dtype == np.uint8
    assert _bit_column_order(rows, energies).tolist() == list(range(size))
    failed = SampleSet.failed(Backend.QAOA, Failure.TIMEOUT, 0)
    assert failed.entries.shape == (0, 0) and failed.entries.dtype == np.uint8
    assert failed.counts.shape == (0,) and failed.counts.dtype == np.int64
    assert failed.energies.shape == (0,) and failed.energies.dtype == np.float64
    _assert_same_set(failed, gen.from_rows(Backend.QAOA, 0, rows[:0], [], [], Failure.TIMEOUT))


def _reference_sa(model, rows):
    """The SA tail before ``from_reads``: one read per row."""
    distinct, counts = np.unique(rows, axis=0, return_counts=True)
    return gen.from_rows(
        Backend.SIMULATED_ANNEALING, len(rows), distinct, counts, energies(model, distinct)
    )


def _reference_exhaustive(model, row):
    """The exhaustive scan's tail before ``from_reads``: one row, one read."""
    return gen.from_rows(Backend.EXHAUSTIVE, 1, row, [1], energies(model, row))


def _reference_external(model, rows, counts):
    """The external adapter's tail before ``from_reads``: counts merged as
    float64 weights, exact while they stay below 2**53."""
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    merged = np.bincount(inverse.reshape(-1), weights=counts, minlength=len(distinct))
    return gen.from_rows(
        Backend.EXTERNAL, sum(counts), distinct, merged, energies(model, distinct)
    )


@pytest.mark.parametrize("seed", range(16))
def test_from_reads_equals_the_former_constructions(seed):
    """On a random model and a random multiset of rows (few distinct ones,
    so rows repeat; few coefficient values, so energies tie), ``from_reads``
    writes the same text as each backend's former construction."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 8)), int(rng.integers(1, 12))
    width = n * k
    pairs = rng.integers(0, width, size=(3 * width, 2))
    model = gen.from_terms(
        n, k,
        [(v, int(rng.integers(-3, 4))) for v in range(width)],
        [(u, v, int(rng.integers(-2, 3))) for u, v in pairs if u != v],
        offset=float(rng.integers(0, 5)), lam=10.0,
    )
    pool = rng.integers(0, 2, size=(int(rng.integers(1, 30)), width), dtype=np.uint8)
    rows = pool[rng.integers(0, len(pool), size=int(rng.integers(1, 300)))]
    counts = rng.integers(1, 2**40, size=len(rows)).tolist()
    text = gen.sample_text
    assert text(SampleSet.from_reads(Backend.SIMULATED_ANNEALING, model, rows)) == text(
        _reference_sa(model, rows)
    )
    assert text(SampleSet.from_reads(Backend.EXTERNAL, model, rows, counts)) == text(
        _reference_external(model, rows, counts)
    )
    assert text(SampleSet.from_reads(Backend.EXHAUSTIVE, model, rows[:1])) == text(
        _reference_exhaustive(model, rows[:1])
    )
    if width <= 16:
        got = exhaustive_ground_state(model)
        assert text(got) == text(_reference_exhaustive(model, got.entries))


_THREE_READS = [("1001", 1), ("0110", 2)]


@pytest.mark.parametrize(
    "entries, num_reads, message",
    [
        ([("1001", 2), ("1001", 1)], 3, "listed more than once"),
        ([("1001", -1), ("0110", 4)], 3, "count -1 is not a positive integer"),
        ([("1001", 0), ("0110", 3)], 3, "count 0 is not a positive integer"),
        ([("1001", True), ("0110", 2)], 3, "count True is not a positive integer"),
        ([("1001", 1.5), ("0110", 1.5)], 3, "count 1.5 is not a positive integer"),
        (_THREE_READS, 4, "sum to 3, not num_reads 4"),
        (_THREE_READS, 3.0, "num_reads 3.0 is not a non-negative integer"),
        (_THREE_READS, "3", "num_reads '3' is not a non-negative integer"),
        ([("1001", 2**62), ("0110", 2**62)], 2**63 - 1, r"sum to \d+, not below 2\*\*63"),
        (_THREE_READS, 2**63, r"num_reads \d+ is not a non-negative integer below 2\*\*63"),
        ([("1001", 1), ("01101", 2)], 3, "bitstring length 5 != 4 variables"),
        ([("1001", 1), ("01\u00e91", 2)], 3, "'01\u00e91' holds a character other than 0/1"),
    ],
)
def test_sampleset_from_json_rejects_malformed_counts(entries, num_reads, message):
    data = {
        "backend": "sa",
        "num_reads": num_reads,
        "failure": None,
        "entries": [{"bits": b, "count": c, "energy": 0.0} for b, c in entries],
    }
    with pytest.raises(ValueError, match=message):
        SampleSet.from_json_dict(data, 4)


@pytest.mark.parametrize("entries", [[1], ["1001"], [None], {"bits": "1001"}, "1001"])
def test_sampleset_from_json_rejects_entries_that_are_not_objects(entries):
    data = {"backend": "sa", "num_reads": 1, "failure": None, "entries": entries}
    with pytest.raises(ValueError, match="not a list of objects"):
        SampleSet.from_json_dict(data, 4)
