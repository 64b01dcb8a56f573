from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from gtspq import bench
from gtspq.baseline import random_tours
from gtspq.cli import main, stage_seed
from gtspq.instance import GtspInstance, parse_gtsplib

import gen


def _dir_snapshot(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_parse_prints_dimensions(write_instance, capsys):
    inst = gen.preprocess_original("3burma14", 3, 14, 3)
    path = write_instance(inst)
    assert main(["parse", str(path)]) == 0
    out = capsys.readouterr().out
    assert "N=14, K=3" in out


def test_parse_subsample_fixture(write_instance, capsys):
    inst = gen.subsample_instance("4ulysses16_nodes_4", 4, 2)
    path = write_instance(inst)
    assert main(["parse", str(path)]) == 0
    assert "N=4, K=2" in capsys.readouterr().out


def test_usage_error_exit_1(capsys):
    assert main(["parse"]) == 1
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_instance_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.gtsp"
    bad.write_text("NAME: nope\nTYPE: GTSP\nEOF\n")
    assert main(["parse", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["parse", str(tmp_path / "missing.gtsp")]) == 2


def test_bench_over_exact_cap_exit_2(write_instance, tmp_path, capsys):
    """K=21 needs 2^20 * 20 exact-table entries, over the solver's cap."""
    w = np.ones((21, 21)) - np.eye(21)
    path = write_instance(GtspInstance("ring21", [[v] for v in range(21)], w, symmetric=True))
    out = tmp_path / "run"
    assert main(["bench", str(path), "--backend", "sa", "--out", str(out)]) == 2
    assert "cap" in capsys.readouterr().err


def test_qubo_reports_variables(write_instance, tmp_path, capsys):
    inst = gen.subsample_instance("20gr96_nodes_5", 5, 4)
    path = write_instance(inst)
    out = tmp_path / "q"
    assert main(["qubo", str(path), "--out", str(out)]) == 0
    assert "variables=20" in capsys.readouterr().out
    model = json.loads((out / "20gr96_nodes_5_model.json").read_text())
    assert model["n_vars"] == 20
    assert (out / "20gr96_nodes_5_model.coo").exists()


def test_reduce_nn2c_writes_instance_and_record(write_instance, tmp_path, capsys):
    inst = gen.preprocess_original("4br17", 4, 17, 4)
    path = write_instance(inst)
    out = tmp_path / "r"
    assert main(["reduce", str(path), "--reduce", "nn2c", "--out", str(out)]) == 0
    reduced = parse_gtsplib((out / "4br17_nn2c.gtsp").read_text())
    assert (reduced.n, reduced.k) == (4, 4)
    record = json.loads((out / "4br17_nn2c.json").read_text())
    assert record["method"] == "nn2c"
    assert record["original_instance_name"] == "4br17"
    assert record["seed"] is None


def test_reduce_subsample_names_output_by_size(write_instance, tmp_path):
    inst = gen.preprocess_original("5ulysses22", 5, 22, 5)
    path = write_instance(inst)
    out = tmp_path / "r"
    assert main(
        ["reduce", str(path), "--reduce", "subsample:8", "--seed", "3", "--out", str(out)]
    ) == 0
    written = list(out.glob("*_nodes_*.gtsp"))
    assert len(written) == 1
    reduced = parse_gtsplib(written[0].read_text())
    assert reduced.n <= 8 or reduced.k == 2
    record = json.loads(written[0].with_suffix(".json").read_text())
    assert record["method"] == "subsample" and record["seed"] == 3


@pytest.mark.parametrize("spec", ["nn2c", "subsample:8"])
def test_reduce_writes_the_instance_and_record_bench_writes(write_instance, tmp_path, spec):
    """``gtspq reduce`` writes the instance and the reduction record that
    ``bench`` stores under ``raw/000_*/`` for the same reduction, byte for
    byte; the record holds ``original_n``."""
    path = write_instance(gen.preprocess_original("5ulysses22", 5, 22, 5))
    seed = str(stage_seed(2, 0, "subsample"))
    out = tmp_path / "r"
    assert main(["reduce", str(path), "--reduce", spec, "--seed", seed, "--out", str(out)]) == 0
    run = tmp_path / "run"
    args = ["bench", str(path), "--reduce", spec, "--seed", "2", "--reads", "5", "--out", str(run)]
    assert main(args) == 0
    (raw,) = (run / "raw").iterdir()
    (record,) = out.glob("*.json")
    assert record.read_bytes() == (raw / "reduction.json").read_bytes()
    assert record.with_suffix(".gtsp").read_bytes() == (raw / "instance.gtsp").read_bytes()
    assert json.loads(record.read_text())["original_n"] == 22


def test_reduce_requires_method(write_instance):
    inst = gen.subsample_instance("6fri26_nodes_3", 3, 2)
    path = write_instance(inst)
    assert main(["reduce", str(path), "--reduce", "bogus"]) == 1
    out = path.parent / "r"
    assert main(["reduce", str(path), "--reduce", "subsample:0", "--out", str(out)]) == 1
    assert not out.exists()


def test_solve_writes_samples(write_instance, tmp_path, capsys):
    inst = gen.subsample_instance("6fri26_nodes_3", 3, 2)
    path = write_instance(inst)
    out = tmp_path / "s"
    code = main(
        [
            "solve",
            str(path),
            "--backend",
            "exhaustive,sa",
            "--reads",
            "50",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    sa = json.loads((out / "6fri26_nodes_3_samples_sa.json").read_text())
    assert sa["backend"] == "sa"
    assert sum(e["count"] for e in sa["entries"]) == 50
    ex = json.loads((out / "6fri26_nodes_3_samples_exhaustive.json").read_text())
    assert ex["entries"][0]["energy"] <= sa["entries"][0]["energy"] + 1e-9
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": best_energy=")[0] for line in lines] == [
        "6fri26_nodes_3 exhaustive",
        "6fri26_nodes_3 sa",
    ]
    assert all(" failure=None wall=" in line and line.endswith("s") for line in lines)


def test_solve_all_backends_failed_exit_3(write_instance, tmp_path):
    inst = gen.subsample_instance("6fri26_nodes_3", 3, 2)
    path = write_instance(inst)
    code = main(
        [
            "solve",
            str(path),
            "--backend",
            "external",
            "--external-url",
            "http://127.0.0.1:9/nope",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 3


def test_bench_malformed_external_response_exit_2(write_instance, tmp_path, capsys):
    """An endpoint that answers with a bit string of the wrong length is an
    error of the model's sampler, not of the usage: exit 2, no traceback."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            payload = json.dumps({"entries": [{"bits": "01", "count": 1}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    path = write_instance(gen.subsample_instance("9p43_nodes_5", 5, 3))
    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/"
        args = ["bench", str(path), "--backend", "external", "--external-url", url]
        assert main(args + ["--reads", "20", "--out", str(tmp_path / "run")]) == 2
    finally:
        server.shutdown()
    assert "error: bitstring length 2 != 15 variables" in capsys.readouterr().err


@contextlib.contextmanager
def _endpoint(reply: bytes):
    """A loopback endpoint that reads each request whole and answers with
    the raw bytes ``reply``, status line and headers included; yields its
    URL."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()


def _http_reply(body: bytes, length: int | None = None) -> bytes:
    """An HTTP/1.0 200 reply of ``body`` whose Content-Length is ``length``
    (the body's own length by default)."""
    length = len(body) if length is None else length
    return b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (length, body)


def test_bench_external_counts_summing_to_2_63_exit_2(write_instance, tmp_path, capsys):
    """Counts that sum to 2**63 cannot be int64 counts: exit 2 before any
    sample file is written, not a count wrapped to -2**63."""
    path = write_instance(gen.subsample_instance("9p43_nodes_5", 5, 3))
    entries = [{"bits": "1" * 15, "count": 2**62}, {"bits": "1" * 15, "count": 2**62}]
    with _endpoint(_http_reply(json.dumps({"entries": entries}).encode())) as url:
        args = ["bench", str(path), "--backend", "external", "--external-url", url]
        assert main(args + ["--reads", "20", "--out", str(tmp_path / "run")]) == 2
    assert "not below 2**63" in capsys.readouterr().err
    assert not list((tmp_path / "run").rglob("samples_external.json"))


@pytest.mark.parametrize(
    "reply",
    [b"GARBAGE\r\n\r\n", _http_reply(b'{"entries": []}', length=100)],
    ids=["status-line", "body-short"],
)
def test_solve_external_malformed_http_reply_is_timeout(write_instance, tmp_path, reply):
    """A reply that is not HTTP, or whose body ends before its
    Content-Length, is a transport error: a timeout failure, exit 3, no
    traceback."""
    path = write_instance(gen.subsample_instance("9p43_nodes_5", 5, 3))
    with _endpoint(reply) as url:
        args = ["solve", str(path), "--backend", "external", "--external-url", url]
        assert main(args + ["--reads", "20", "--out", str(tmp_path)]) == 3
    samples = json.loads((tmp_path / "9p43_nodes_5_samples_external.json").read_text())
    assert samples["failure"] == "timeout"


def _http_status(status: bytes) -> bytes:
    """An HTTP/1.0 reply with the status line ``status`` and an empty
    entry list as its body."""
    body = b'{"entries": []}'
    return b"HTTP/1.0 %s\r\nContent-Length: %d\r\n\r\n%s" % (status, len(body), body)


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize(
    "status", [b"500 Internal Server Error", b"404 Not Found", b"429 Too Many Requests"]
)
def test_external_http_error_status_exit_2(write_instance, tmp_path, capsys, command, status):
    """An endpoint that answers with an error status did not run out of
    time: exit 2 with the status named, and no sample file written."""
    path = write_instance(gen.subsample_instance("9p43_nodes_5", 5, 3))
    out = tmp_path / "run"
    with _endpoint(_http_status(status)) as url:
        args = [command, str(path), "--backend", "external", "--external-url", url]
        assert main(args + ["--reads", "20", "--out", str(out)]) == 2
    assert f"error: endpoint answered HTTP {status.decode()}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*samples_external.json"))


@pytest.mark.parametrize("status", [b"504 Gateway Timeout", b"408 Request Timeout"])
def test_solve_external_timeout_status_is_timeout(write_instance, tmp_path, status):
    """408 and 504 say the request timed out: a timeout failure, exit 3."""
    path = write_instance(gen.subsample_instance("9p43_nodes_5", 5, 3))
    with _endpoint(_http_status(status)) as url:
        args = ["solve", str(path), "--backend", "external", "--external-url", url]
        assert main(args + ["--reads", "20", "--out", str(tmp_path)]) == 3
    samples = json.loads((tmp_path / "9p43_nodes_5_samples_external.json").read_text())
    assert samples["failure"] == "timeout"


@pytest.mark.parametrize("body", [b"not json", b'{"entries": "\xff"}'], ids=["text", "not-utf-8"])
def test_solve_external_body_not_json_exit_2(write_instance, tmp_path, capsys, body):
    """A body that is not UTF-8 JSON is a malformed response: exit 2, with
    an error that says so."""
    path = write_instance(gen.subsample_instance("9p43_nodes_5", 5, 3))
    with _endpoint(_http_reply(body)) as url:
        args = ["solve", str(path), "--backend", "external", "--external-url", url]
        assert main(args + ["--reads", "20", "--out", str(tmp_path)]) == 2
    assert "error: response is not JSON: " in capsys.readouterr().err


def test_bench_over_sampler_caps_not_applicable_exit_3(write_instance, tmp_path):
    """56 variables exceed the exhaustive cap and 8^7 amplitudes the QAOA
    simulator's; the exact baseline still runs. Both cells read
    not_applicable, so every backend failed."""
    path = write_instance(gen.make_random_instance(seed=3, n=8, k=7, name="big8x7"))
    out = tmp_path / "run"
    args = ["bench", str(path), "--backend", "exhaustive,qaoa", "--reads", "20"]
    assert main(args + ["--out", str(out)]) == 3
    rows = (out / "report" / "feasibility.csv").read_text().splitlines()
    assert rows[1:] == [
        "big8x7,exhaustive,0.0,not_applicable",
        "big8x7,qaoa,0.0,not_applicable",
    ]
    assert (out / "report" / "violin.csv").read_text() == "index,instance,backend,ar,count\n"
    assert not (out / "raw" / "000_big8x7" / "qaoa_grid.csv").exists()


def test_external_backend_requires_url(write_instance, tmp_path):
    inst = gen.subsample_instance("6fri26_nodes_3", 3, 2)
    path = write_instance(inst)
    assert main(["solve", str(path), "--backend", "external"]) == 1


@pytest.mark.parametrize(
    "flag,value",
    [("--grid", "0x10"), ("--shots", "0"), ("--reads", "0"), ("--layers", "0"), ("--jobs", "0")],
)
def test_bench_rejects_counts_below_one(write_instance, tmp_path, capsys, flag, value):
    """A grid axis, shot, read, layer or job count below 1 is a usage error:
    no cell runs and nothing is written."""
    path = write_instance(gen.subsample_instance("6fri26_nodes_3", 3, 2))
    out = tmp_path / "run"
    args = ["bench", str(path), "--backend", "qaoa", "--reads", "20", "--shots", "20"]
    assert main(args + ["--grid", "2x2", flag, value, "--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--reduce", "bogus"),
        ("--reduce", "subsample:0"),
        ("--reduce", "subsample:-2"),
        ("--timeout-s", "nan"),
        ("--timeout-s", "-1"),
    ],
)
def test_bench_rejects_bad_reduce_and_timeout(write_instance, tmp_path, capsys, flag, value):
    """A reduce spec that does not parse, a subsample target below 1 and a
    timeout that is not >= 0 (NaN would never expire) are usage errors
    raised before anything is written."""
    path = write_instance(gen.subsample_instance("6fri26_nodes_3", 3, 2))
    out = tmp_path / "run"
    assert main(["bench", str(path), "--reads", "20", flag, value, "--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    ["[1, 2]", '{"grid": 5}', '{"reads": null}', '{"read": 30}', '{"seed": "5"}', "{", None],
    ids=["list", "grid-int", "reads-null", "unknown-key", "seed-str", "not-json", "missing"],
)
def test_bench_malformed_config_file_is_usage_error(write_instance, tmp_path, capsys, content):
    path = write_instance(gen.subsample_instance("6fri26_nodes_3", 3, 2))
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    out = tmp_path / "run"
    assert main(["bench", str(path), "--config", str(cfg), "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "solve", "reduce", "config"])
def test_negative_seed_is_usage_error(write_instance, tmp_path, capsys, command):
    """A seed below 0, as a flag or in a --config file, is a usage error
    found before anything is written: stage seeds below 0 would reach
    numpy's default_rng, which rejects them mid-run."""
    path = str(write_instance(gen.subsample_instance("6fri26_nodes_3", 3, 2)))
    out = tmp_path / "run"
    args = {
        "bench": ["bench", path, "--backend", "sa", "--reads", "5", "--seed", "-5"],
        "solve": ["solve", path, "--backend", "sa", "--reads", "5", "--seed", "-5"],
        "reduce": ["reduce", path, "--reduce", "nn2c", "--seed", "-5"],
        "config": ["bench", path, "--reads", "5", "--config", str(tmp_path / "cfg.json")],
    }[command]
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}))
    assert main(args + ["--out", str(out)]) == 1
    assert "usage error: --seed must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def _bench_args(paths, out, seed="7"):
    return [
        "bench",
        *[str(p) for p in paths],
        "--backend",
        "exhaustive,sa,qaoa",
        "--reads",
        "60",
        "--shots",
        "40",
        "--grid",
        "3x3",
        "--seed",
        seed,
        "--out",
        str(out),
    ]


@pytest.fixture
def bench_paths(write_instance):
    return [
        write_instance(gen.subsample_instance("6fri26_nodes_3", 3, 2)),
        write_instance(gen.subsample_instance("5ulysses22_nodes_4", 4, 3)),
    ]


def test_bench_byte_identical_across_runs(bench_paths, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(_bench_args(bench_paths, out_a)) == 0
    assert main(_bench_args(bench_paths, out_b)) == 0
    snap_a = _dir_snapshot(out_a)
    snap_b = _dir_snapshot(out_b)
    # config.json embeds the out directory path; everything else is identical
    del snap_a["config.json"], snap_b["config.json"]
    assert snap_a == snap_b
    assert any(name.startswith("report/") for name in snap_a)


def test_bench_seed_changes_outputs(bench_paths, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(_bench_args(bench_paths, out_a, seed="7")) == 0
    assert main(_bench_args(bench_paths, out_b, seed="8")) == 0
    a_sa = (out_a / "raw" / "000_6fri26_nodes_3" / "samples_sa.json").read_bytes()
    b_sa = (out_b / "raw" / "000_6fri26_nodes_3" / "samples_sa.json").read_bytes()
    assert a_sa != b_sa


def test_bench_report_roundtrip(bench_paths, tmp_path):
    out = tmp_path / "run"
    assert main(_bench_args(bench_paths, out)) == 0
    original = _dir_snapshot(out / "report")
    target = tmp_path / "again"
    assert main(["report", str(out), "--out", str(target)]) == 0
    assert _dir_snapshot(target) == original


def test_bench_reports_are_the_json_objects_group_json_lists(write_instance, tmp_path, monkeypatch):
    """Each instance's report is made of plain JSON values (a round trip
    through JSON gives it back, down to its repr: no tuple, no numpy scalar)
    and is, as it is, that instance's entry in group.json. The run has a
    feasible backend (sa), an invalid_tour one (an endpoint answering the
    all-zero string) and a not_applicable one (exhaustive over 24
    variables); its backends come out sorted."""
    paths = [
        write_instance(gen.make_random_instance(seed=seed, n=5, k=5, name=f"r{seed}"))
        for seed in (3, 4)
    ]
    reports, build_report = [], bench.build_report

    def recording(*args, **kwargs):
        reports.append(build_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(bench, "build_report", recording)
    out = tmp_path / "run"
    entries = [{"bits": "0" * 25, "count": 20}]
    with _endpoint(_http_reply(json.dumps({"entries": entries}).encode())) as url:
        args = ["bench", *map(str, paths), "--backend", "sa,external,exhaustive"]
        assert main(args + ["--external-url", url, "--reads", "50", "--out", str(out)]) == 0
    group = json.loads((out / "report" / "group.json").read_text())
    assert len(reports) == len(group["instances"]) == 2
    for report, entry in zip(reports, group["instances"]):
        assert report == json.loads(json.dumps(report)) == entry
        assert repr(report) == repr(json.loads(json.dumps(report)))
        assert list(report["backends"]) == ["exhaustive", "external", "sa"]
        failures = {key: b["failure"] for key, b in report["backends"].items()}
        assert failures == {"exhaustive": "not_applicable", "external": "invalid_tour", "sa": None}
        assert report["backends"]["sa"]["ar_values"]


def test_main_builds_one_parser_that_keeps_nothing_between_calls(bench_paths, tmp_path, capsys):
    """In one process: bench, report, a usage error, then a bench without
    the first one's flags. Each call parses as a fresh parser would, and
    the last run's config holds the defaults, not the first run's values."""
    from gtspq import cli

    out, plain = tmp_path / "run", tmp_path / "plain"
    calls = [
        (_bench_args(bench_paths, out), 0),
        (["report", str(out), "--out", str(tmp_path / "again")], 0),
        (["bench", "--grid", "2x2"], 1),
        (["bench", str(bench_paths[0]), "--reads", "5", "--out", str(plain)], 0),
    ]
    for argv, code in calls:
        if code == 0:
            fresh = cli._make_parser.__wrapped__().parse_args(argv)
            assert vars(cli._make_parser().parse_args(argv)) == vars(fresh)
        assert main(argv) == code
    assert cli._make_parser() is cli._make_parser()
    assert "usage error: bench needs at least one instance file" in capsys.readouterr().err
    assert _dir_snapshot(tmp_path / "again") == _dir_snapshot(out / "report")
    written = json.loads((plain / "config.json").read_text())
    assert (written["seed"], written["backends"], written["grid"]) == (0, ["sa"], [10, 10])
    assert (written["shots"], written["reads"]) == (1500, 5)


def test_bench_raw_artifacts_present(bench_paths, tmp_path):
    out = tmp_path / "run"
    assert main(_bench_args(bench_paths, out)) == 0
    raw = out / "raw" / "000_6fri26_nodes_3"
    assert sorted(p.name for p in raw.iterdir()) == [
        "exact.json",
        "instance.gtsp",
        "model.coo",
        "qaoa_grid.csv",
        "samples_exhaustive.json",
        "samples_qaoa.json",
        "samples_sa.json",
    ]
    assert sorted(json.loads((raw / "exact.json").read_text())) == ["cost", "tour"]
    for key in ("exhaustive", "sa", "qaoa"):
        samples = json.loads((raw / f"samples_{key}.json").read_text())
        assert sorted(samples) == ["backend", "entries", "failure", "num_reads"]
    group = json.loads((out / "report" / "group.json").read_text())
    assert group["schema"] == "v4"
    for rep in group["instances"]:
        for cell in rep["backends"].values():
            assert sorted(cell) == [
                "ar_counts",
                "ar_values",
                "best_shot_ar",
                "failure",
                "feasible_shot_rate",
                "mean_solver_cost",
            ]
    grid_lines = (raw / "qaoa_grid.csv").read_text().splitlines()
    assert grid_lines[0] == "gamma,beta,mean_energy,feasible_shot_fraction,best_shot_energy"
    assert len(grid_lines) == 1 + 9


def test_bench_qaoa_grid_feasible_fraction_is_filled(bench_paths, tmp_path):
    """Each grid cell's feasible_shot_fraction is the decoded share of that
    cell's shots, redrawn here from the cell's seed."""
    from gtspq.qaoa import PartitionLayout, QaoaParams, cost_diagonal, run_qaoa, sample_shots
    from gtspq.qubo import build_qubo, decode

    out = tmp_path / "run"
    assert main(_bench_args(bench_paths, out)) == 0
    for index, raw in enumerate(sorted((out / "raw").iterdir())):
        inst = parse_gtsplib((raw / "instance.gtsp").read_text())
        model = build_qubo(inst)
        layout = PartitionLayout(inst.n, inst.k)
        diagonal = cost_diagonal(model)
        lines = (raw / "qaoa_grid.csv").read_text().splitlines()[1:]
        assert len(lines) == 9
        for cell, line in enumerate(lines):
            gamma, beta, _, fraction, _ = line.split(",")
            assert fraction != ""
            seed = stage_seed(7, index, "qaoa") + cell
            state = run_qaoa(model, layout, QaoaParams(float(gamma), float(beta)))
            shots = sample_shots(state, diagonal, 40, seed)
            good = sum(
                int(count)
                for row, count in zip(shots.entries, shots.counts)
                if decode(model, inst, row).feasible
            )
            assert float(fraction) == good / 40


def test_bench_writes_one_violin_file_per_raw_dir(write_instance, tmp_path):
    """Two instances of one name get two raw directories, and the report's
    one violin.csv keeps their rows apart by the raw directory's index."""
    first = gen.subsample_instance("6fri26_nodes_3", 3, 2)
    second = gen.subsample_instance("5ulysses22_nodes_4", 4, 3)
    paths = [
        write_instance(GtspInstance("demo", inst.clusters, inst.weights, inst.symmetric), stem)
        for inst, stem in ((first, "d1"), (second, "d2"))
    ]
    out = tmp_path / "run"
    assert main(["bench", *map(str, paths), "--reads", "20", "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "raw").iterdir()) == ["000_demo", "001_demo"]
    assert not (out / "report" / "violin").exists()
    rows = (out / "report" / "violin.csv").read_text().splitlines()
    assert rows[0] == "index,instance,backend,ar,count"
    assert sorted({row.split(",")[0] for row in rows[1:]}) == ["0", "1"]
    assert all(row.split(",")[1:3] == ["demo", "sa"] for row in rows[1:])
    assert len((out / "report" / "ar.csv").read_text().splitlines()) == 1 + 2


@pytest.mark.parametrize("name", ["../../escaped", "a/b", "nul\0byte"], ids=["dotdot", "slash", "nul"])
def test_bench_rejects_an_instance_name_that_is_no_file_name(write_instance, tmp_path, capsys, name):
    """A NAME with '/' or NUL is an instance error, found before any raw
    file is written, inside --out or outside it."""
    text = (write_instance(gen.subsample_instance("6fri26_nodes_3", 3, 2))).read_text()
    path = tmp_path / "named.gtsp"
    path.write_text(text.replace("NAME: 6fri26_nodes_3", f"NAME: {name}"))
    out = tmp_path / "deep" / "run"
    capsys.readouterr()
    assert main(["bench", str(path), "--reads", "20", "--out", str(out)]) == 2
    assert "holds '/' or NUL" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["config.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["6fri26_nodes_3.gtsp", "deep", "named.gtsp"]


def test_bench_parallel_jobs_match_serial(bench_paths, tmp_path):
    out_serial = tmp_path / "s"
    out_par = tmp_path / "p"
    assert main(_bench_args(bench_paths, out_serial)) == 0
    assert main(_bench_args(bench_paths, out_par) + ["--jobs", "2"]) == 0
    snap_s = _dir_snapshot(out_serial)
    snap_p = _dir_snapshot(out_par)
    del snap_s["config.json"], snap_p["config.json"]
    assert snap_s == snap_p


def test_solve_writes_the_samples_bench_writes(write_instance, tmp_path):
    """With one seed and a subsample reduce, ``solve`` writes the sample
    files and QAOA grid that ``bench`` writes into instance 0's raw dir."""
    path = write_instance(gen.subsample_instance("5ulysses22_nodes_4", 4, 3))
    flags = "--backend exhaustive,sa,qaoa --reads 60 --shots 40 --grid 3x3 --seed 7".split()
    flags += ["--reduce", "subsample:3"]
    assert main(["bench", str(path), *flags, "--out", str(tmp_path / "b")]) == 0
    assert main(["solve", str(path), *flags, "--out", str(tmp_path / "s")]) == 0
    [raw] = (tmp_path / "b" / "raw").iterdir()
    name = raw.name.removeprefix("000_")  # the reduced instance's name
    files = ["samples_exhaustive.json", "samples_sa.json", "samples_qaoa.json", "qaoa_grid.csv"]
    written = sorted(p.name for p in (tmp_path / "s").iterdir())
    assert written == sorted(f"{name}_{f}" for f in files)
    for f in files:
        assert (tmp_path / "s" / f"{name}_{f}").read_bytes() == (raw / f).read_bytes(), f


@pytest.mark.parametrize("zero_is_edge", [False, True])
def test_bench_exact_baseline_reads_zero_weights_as_the_model_does(
    write_instance, tmp_path, zero_is_edge
):
    """On an instance whose cheapest triangle takes a zero-weight leg, the
    exact tour avoids that leg unless zero weights are edges, as the model
    does; either way the exhaustive ground state is optimal, AR 1."""
    out = tmp_path / "run"
    args = ["bench", str(write_instance(gen.one_absent_edge())), "--backend", "exhaustive"]
    args += ["--out", str(out)] + ["--zero-is-edge"] * zero_is_edge
    assert main(args) == 0
    exact = json.loads((out / "raw" / "000_absent" / "exact.json").read_text())
    tour, cost = ([0, 2, 4], 2.0) if zero_is_edge else ([0, 3, 4], 21.0)
    assert exact == {"tour": tour, "cost": cost}
    report = json.loads((out / "report" / "group.json").read_text())["instances"][0]
    assert report["optimal_cost"] == exact["cost"]
    assert report["backends"]["exhaustive"]["best_shot_ar"] == 1.0
    # the random baseline averages the draws that are tours: at this seed 374
    # of the 1500 draws take the zero leg 0-2 (in a 3-cycle every two nodes
    # are adjacent), which is an edge only by flag
    orders, costs = random_tours(gen.one_absent_edge(), 1500, stage_seed(0, 0, "random"))
    zero_leg = (orders == 0).any(axis=1) & (orders == 2).any(axis=1)
    tours = np.ones(1500, dtype=bool) if zero_is_edge else ~zero_leg
    assert int(zero_leg.sum()) == 374
    assert report["mean_random_cost"] == sum(costs[tours].tolist()) / int(tours.sum())
    assert report["mean_random_cost"] >= exact["cost"]


def test_report_random_baseline_without_a_tour_is_null(write_instance, tmp_path):
    """A run whose every random draw takes an absent edge reports no mean
    random cost and no mean random AR, where the mean over the draws would
    fall below the optimum."""
    inst = gen.one_absent_edge()
    seed = next(
        s for s in range(100)  # the one draw takes the zero leg 0-2
        if set(random_tours(inst, 1, stage_seed(s, 0, "random"))[0][0].tolist()) >= {0, 2}
    )
    out = tmp_path / "run"
    args = ["bench", str(write_instance(inst)), "--backend", "exhaustive", "--reads", "1"]
    assert main(args + ["--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads((out / "report" / "group.json").read_text())["instances"][0]
    assert report["mean_random_cost"] is None
    ar = (out / "report" / "ar.csv").read_text().splitlines()
    assert ar[1] == "absent,exhaustive,1.0,1.0,"


def test_report_rejects_an_exact_tour_over_an_absent_edge(write_instance, tmp_path, capsys):
    """An exact.json whose tour takes a zero-weight leg, as the exact
    baseline once chose, is no tour of the run's model."""
    out = tmp_path / "run"
    args = ["bench", str(write_instance(gen.one_absent_edge())), "--backend", "exhaustive"]
    assert main(args + ["--reads", "5", "--out", str(out)]) == 0
    exact = out / "raw" / "000_absent" / "exact.json"
    exact.write_text(json.dumps({"tour": [0, 2, 4], "cost": 2.0}))
    _assert_report_names_the_fault(out, "000_absent/exact.json", tmp_path, capsys)


@pytest.mark.parametrize(
    "stored", [{"tour": [True, 2], "cost": 1.0}, {"tour": [1, 2], "cost": True}],
    ids=["tour-true", "cost-true"],
)
def test_report_rejects_a_bool_in_exact_json(write_instance, tmp_path, capsys, stored):
    """A JSON true is no node id and no cost, though Python reads it as 1:
    on an instance whose exact tour is [1, 2] at cost 1.0, the same record
    with a true in place of either is rejected."""
    w = np.array([[0.0, 3.0, 3.0], [3.0, 0.0, 0.5], [3.0, 0.5, 0.0]])
    inst = GtspInstance("unit", [[0, 1], [2]], w, symmetric=True)
    out = tmp_path / "run"
    args = ["bench", str(write_instance(inst)), "--backend", "exhaustive"]
    assert main(args + ["--reads", "5", "--out", str(out)]) == 0
    exact = out / "raw" / "000_unit" / "exact.json"
    assert json.loads(exact.read_text()) == {"tour": [1, 2], "cost": 1.0}
    exact.write_text(json.dumps(stored))
    _assert_report_names_the_fault(out, "000_unit/exact.json", tmp_path, capsys)


def test_bench_without_a_tour_of_edges_exit_2(write_instance, tmp_path, capsys):
    inst = GtspInstance("noway", [[0], [1]], [[0, 0], [7, 0]], symmetric=False)
    out = tmp_path / "run"
    assert main(["bench", str(write_instance(inst)), "--out", str(out)]) == 2
    assert "every tour uses an absent (zero-weight) edge" in capsys.readouterr().err
    assert main(["bench", str(write_instance(inst)), "--out", str(out), "--zero-is-edge"]) == 0


def test_bench_with_nn2c_reduction(write_instance, tmp_path):
    path = write_instance(gen.preprocess_original("3burma14", 3, 14, 3))
    out = tmp_path / "run"
    code = main(
        [
            "bench",
            str(path),
            "--backend",
            "sa",
            "--reads",
            "40",
            "--reduce",
            "nn2c",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report" / "group.json").read_text())
    instance = report["instances"][0]["instance"]
    assert instance["n"] == 3 and instance["original_n"] == 14
    assert instance["qubits"] == 9


def test_console_script_entry_point(write_instance):
    inst = gen.subsample_instance("9p43_nodes_5", 5, 3)
    path = write_instance(inst)
    proc = subprocess.run(
        [sys.executable, "-m", "gtspq.cli", "parse", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "N=5, K=3" in proc.stdout


def test_config_file_precedence(bench_paths, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backends": "sa", "reads": 30, "seed": 5}))
    out = tmp_path / "out"
    code = main(
        ["bench", str(bench_paths[0]), "--config", str(cfg), "--reads", "25", "--out", str(out)]
    )
    assert code == 0
    written = json.loads((out / "config.json").read_text())
    assert written["reads"] == 25  # flag beats config file
    assert written["seed"] == 5  # config file beats default
    assert written["backends"] == ["sa"]


def _json(edit):
    """A text edit that applies ``edit`` to the JSON value the text holds."""
    return lambda text: json.dumps(edit(json.loads(text)))


@pytest.mark.parametrize(
    "edit",
    [
        _json(lambda c: [c]),
        _json(lambda c: {**c, "grid": 5}),
        _json(lambda c: {**c, "reads": None}),
        _json(lambda c: {**c, "extra": 1}),
        lambda text: text[:-3],
    ],
    ids=["list", "grid-int", "reads-null", "unknown-key", "not-json"],
)
def test_report_malformed_config_exit_2(bench_paths, tmp_path, capsys, edit):
    """``report`` rejects a config.json it cannot read as a run's settings,
    with an error that names the file."""
    out = tmp_path / "run"
    assert main(["bench", str(bench_paths[0]), "--reads", "20", "--out", str(out)]) == 0
    cfg = out / "config.json"
    cfg.write_text(edit(cfg.read_text()))
    capsys.readouterr()
    assert main(["report", str(out), "--out", str(tmp_path / "again")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
    assert not (tmp_path / "again").exists()


def _one_entry_one_bit_short(data):
    """One distinct entry, holding every read, one bit shorter than the model."""
    first = data["entries"][0]
    data["entries"] = [{**first, "bits": first["bits"][:-1], "count": data["num_reads"]}]


def _bits_as_json_integer(data):
    """A bit string written as the JSON integer of the same digits."""
    entry = next(e for e in data["entries"] if e["bits"].startswith("1"))
    entry["bits"] = int(entry["bits"])


def _count_2_to_the_70(data):
    data["entries"][0]["count"] += 2**70
    data["num_reads"] += 2**70


def _edit_first_entry(key, value):
    def edit(data):
        data["entries"][0][key] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["entries"].append(dict(d["entries"][0])),
        _edit_first_entry("count", -1),
        _edit_first_entry("count", 0),
        _edit_first_entry("count", True),
        _edit_first_entry("count", 1.5),
        _edit_first_entry("count", "1"),
        lambda d: d.update(num_reads=d["num_reads"] + 1),
        lambda d: d["entries"].__setitem__(0, 1),
        lambda d: d["entries"].__setitem__(0, d["entries"][0]["bits"]),
        lambda d: d.update(entries={}),
        lambda d: d["entries"][0].pop("energy"),
        lambda d: d["entries"][0].pop("bits"),
        lambda d: d["entries"][0].pop("count"),
        lambda d: d.pop("num_reads"),
        _edit_first_entry("energy", [1.0]),
        _edit_first_entry("energy", "8.0"),
        _edit_first_entry("energy", True),
        _edit_first_entry("energy", None),
        _one_entry_one_bit_short,
        _bits_as_json_integer,
        _count_2_to_the_70,
    ],
    ids=[
        "listed-twice",
        "count-negative",
        "count-0",
        "count-true",
        "count-1.5",
        "count-str",
        "sum",
        "entry-int",
        "entry-str",
        "entries-object",
        "no-energy",
        "no-bits",
        "no-count",
        "no-num-reads",
        "energy-list",
        "energy-str",
        "energy-true",
        "energy-null",
        "bits-short",
        "bits-int",
        "count-2-70",
    ],
)
def test_report_malformed_samples_exit_2(bench_paths, tmp_path, capsys, edit):
    """``report`` rejects a raw sample file whose counts could not have come
    from a run (a bit string listed twice, a count that is not a positive
    integer below 2**63, or counts that do not add up to the reads), whose
    bit strings are not strings of the model's width, whose energies are not
    JSON numbers (a string, a bool or null), an entry that is not an
    object, and an entry or file without one of its keys, with an error
    that names the file."""
    out = tmp_path / "run"
    assert main(["bench", str(bench_paths[0]), "--reads", "20", "--out", str(out)]) == 0
    samples = out / "raw" / "000_6fri26_nodes_3" / "samples_sa.json"
    data = json.loads(samples.read_text())
    edit(data)
    samples.write_text(json.dumps(data))
    _assert_report_names_the_fault(out, "000_6fri26_nodes_3/samples_sa.json", tmp_path, capsys)


def _assert_report_names_the_fault(out, file, tmp_path, capsys):
    """``report`` of ``out`` exits 2 with an error that starts with
    ``file``, and writes no report."""
    capsys.readouterr()
    assert main(["report", str(out), "--out", str(tmp_path / "again")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {file}: ")
    assert not (tmp_path / "again").exists()


def _without(key):
    return _json(lambda d: {k: v for k, v in d.items() if k != key})


def _ragged(d):
    d["tour"][0] = [d["tour"][0], d["tour"][0]]
    return d


@pytest.mark.parametrize(
    "name, edit",
    [
        ("instance.gtsp", None),
        ("instance.gtsp", lambda text: text.replace("DIMENSION", "DIMENSIONX")),
        ("exact.json", _json(lambda d: {**d, "cost": 2 * d["cost"]})),
        ("exact.json", _json(lambda d: {**d, "tour": [d["tour"][0]] * len(d["tour"])})),
        ("exact.json", _json(lambda d: {**d, "tour": d["tour"][:-1]})),
        ("exact.json", _json(lambda d: {**d, "tour": None})),
        ("exact.json", _json(lambda d: {**d, "cost": None})),
        ("exact.json", _without("tour")),
        ("exact.json", _without("cost")),
        ("exact.json", _json(_ragged)),
        ("exact.json", _json(lambda d: {**d, "tour": [v + 0.5 for v in d["tour"]]})),
        ("exact.json", _json(lambda d: {**d, "tour": [-1] + d["tour"][1:]})),
        ("exact.json", _json(lambda d: {**d, "tour": [9] + d["tour"][1:]})),
        ("exact.json", _json(lambda d: {**d, "tour": [d["tour"]]})),
        ("exact.json", _json(lambda d: [])),
        ("exact.json", _json(lambda d: 7.0)),
        ("exact.json", lambda text: text[:-3]),
        ("reduction.json", None),
        ("reduction.json", _json(lambda d: {**d, "original_n": "foo"})),
        ("reduction.json", _json(lambda d: {**d, "original_n": 3})),
        ("reduction.json", _json(lambda d: [d])),
        ("reduction.json", lambda text: text[:-3]),
        ("samples_sa.json", None),
        ("samples_sa.json", _json(lambda d: {**d, "backend": "qaoa"})),
        ("samples_sa.json", _json(lambda d: [d])),
        ("samples_sa.json", _json(lambda d: "entries")),
        ("samples_sa.json", lambda text: text[:-3]),
    ],
    ids=[
        "no-instance",
        "instance-header",
        "cost-doubled",
        "wrong-cluster",
        "short-tour",
        "tour-null",
        "cost-null",
        "no-tour",
        "no-cost",
        "ragged-tour",
        "float-ids",
        "negative-id",
        "id-beyond-n",
        "batch-of-one",
        "exact-list",
        "exact-number",
        "exact-not-json",
        "no-reduction",
        "original-n-str",
        "original-n-below-n",
        "reduction-list",
        "reduction-not-json",
        "no-samples",
        "samples-backend",
        "samples-list",
        "samples-str",
        "samples-not-json",
    ],
)
def test_report_malformed_raw_exit_2(write_instance, tmp_path, capsys, name, edit):
    """``report`` rejects a raw file that is missing (``edit`` None), does
    not parse, or fails its check, with an error that names the file. The
    checks: exact.json holds a tour of integer ids, one node per cluster,
    and its cost (ids are not truncated: 0.5 is no 0);
    reduction.json, which an nn2c run needs, an integer original_n at least
    the reduced n (4 here); samples_sa.json a sample set of backend sa; and
    every JSON file an object."""
    path = write_instance(gen.preprocess_original("4br17", 4, 17, 4))
    out = tmp_path / "run"
    args = ["bench", str(path), "--reduce", "nn2c", "--backend", "sa", "--reads", "20"]
    assert main(args + ["--out", str(out)]) == 0
    raw = out / "raw" / "000_4br17" / name
    if edit is None:
        raw.unlink()
    else:
        raw.write_text(edit(raw.read_text()))
    _assert_report_names_the_fault(out, f"000_4br17/{name}", tmp_path, capsys)


def test_report_needs_each_configured_instance_raw_dir(bench_paths, tmp_path, capsys):
    """A run whose raw directory of a configured instance is gone does not
    report the instances left."""
    out = tmp_path / "run"
    assert main(_bench_args(bench_paths, out)) == 0
    shutil.rmtree(out / "raw" / "001_5ulysses22_nodes_4")
    capsys.readouterr()
    assert main(["report", str(out), "--out", str(tmp_path / "again")]) == 2
    assert capsys.readouterr().err.startswith("error: raw/001_*: 0 matches")
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("swapped", [False, True], ids=["fewer-instances", "other-instance"])
def test_bench_into_a_used_out_rejects_the_stale_raw_dirs(bench_paths, tmp_path, capsys, swapped):
    """bench into an --out a run of both instances left behind reports
    neither the stale instance nor a second directory of the same index.
    A stale index is found before anything is written, so the first run's
    config.json and raw files stay as they were; a second directory of a
    run's own index is found when the raw files are read."""
    out = tmp_path / "run"
    assert main(_bench_args(bench_paths, out)) == 0
    first = _dir_snapshot(out)
    capsys.readouterr()
    assert main(_bench_args(bench_paths[::-1] if swapped else bench_paths[:1], out)) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    if swapped:
        assert err.startswith("error: raw/000_*: 2 matches")
    else:
        assert err.startswith("error: raw/001_5ulysses22_nodes_4: not one of")
        assert _dir_snapshot(out) == first


def test_report_ignores_a_stored_random_cost_list(bench_paths, tmp_path):
    """A run directory that still holds a random.json, as bench once wrote
    it, re-reports to the same bytes as the run without one: once with a
    stored cost list and once with a seed not the run's. The random tours
    are drawn from config.json."""
    out = tmp_path / "run"
    assert main(_bench_args(bench_paths, out)) == 0
    report = _dir_snapshot(out / "report")
    raws = sorted((out / "raw").iterdir())
    for case in ("costs", "seed"):
        for index, raw in enumerate(raws):
            seed = stage_seed(7, index, "random")
            stored = {"seed": seed, "count": 60, "costs": [1.0] * 60}
            if case == "seed":
                stored = {"seed": seed + 1, "count": 60}
            (raw / "random.json").write_text(json.dumps(stored))
        target = tmp_path / case
        assert main(["report", str(out), "--out", str(target)]) == 0
        assert _dir_snapshot(target) == report


def test_report_reads_a_run_in_the_v2_layout(bench_paths, tmp_path):
    """A run directory as bench once wrote it, with a model.json export,
    explored_orderings in exact.json and a null wall_time_s in each sample
    file, re-reports to the same bytes as the run without them."""
    from gtspq.qubo import build_qubo, to_json_dict

    out = tmp_path / "run"
    assert main(_bench_args(bench_paths, out)) == 0
    for raw in sorted((out / "raw").iterdir()):
        inst = parse_gtsplib((raw / "instance.gtsp").read_text())
        (raw / "model.json").write_text(json.dumps(to_json_dict(build_qubo(inst))))
        exact = json.loads((raw / "exact.json").read_text())
        exact["explored_orderings"] = math.factorial(inst.k - 1)
        (raw / "exact.json").write_text(json.dumps(exact))
        for path in raw.glob("samples_*.json"):
            samples = json.loads(path.read_text())
            path.write_text(json.dumps({**samples, "wall_time_s": None}))
    target = tmp_path / "again"
    assert main(["report", str(out), "--out", str(target)]) == 0
    assert _dir_snapshot(target) == _dir_snapshot(out / "report")


def test_report_random_baseline_is_drawn_from_the_config(bench_paths, tmp_path):
    """Each instance's mean_random_cost is the mean of the run's reads
    random tours drawn with the instance's "random" stage seed, and bench
    stores no random baseline of its own."""
    out = tmp_path / "run"
    assert main(_bench_args(bench_paths, out)) == 0
    group = json.loads((out / "report" / "group.json").read_text())
    raws = sorted((out / "raw").iterdir())
    assert len(raws) == len(group["instances"]) == 2
    for index, (raw, rep) in enumerate(zip(raws, group["instances"])):
        assert not (raw / "random.json").exists()
        inst = parse_gtsplib((raw / "instance.gtsp").read_text())
        costs = random_tours(inst, 60, stage_seed(7, index, "random"))[1].tolist()
        assert rep["mean_random_cost"] == sum(costs) / len(costs)
