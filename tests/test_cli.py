from __future__ import annotations

import json
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from gtspq.cli import main
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
    assert not (out / "raw" / "000_big8x7" / "qaoa_grid.csv").exists()


def test_external_backend_requires_url(write_instance, tmp_path):
    inst = gen.subsample_instance("6fri26_nodes_3", 3, 2)
    path = write_instance(inst)
    assert main(["solve", str(path), "--backend", "external"]) == 1


@pytest.mark.parametrize(
    "flag,value", [("--grid", "0x10"), ("--shots", "0"), ("--reads", "0"), ("--layers", "0")]
)
def test_bench_rejects_counts_below_one(write_instance, tmp_path, capsys, flag, value):
    """A grid axis, shot, read or layer count below 1 is a usage error: no
    cell runs and nothing is written."""
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


def test_bench_raw_artifacts_present(bench_paths, tmp_path):
    out = tmp_path / "run"
    assert main(_bench_args(bench_paths, out)) == 0
    raw = out / "raw" / "000_6fri26_nodes_3"
    for name in (
        "instance.gtsp",
        "model.json",
        "model.coo",
        "exact.json",
        "random.json",
        "samples_sa.json",
        "samples_exhaustive.json",
        "samples_qaoa.json",
        "qaoa_grid.csv",
    ):
        assert (raw / name).exists(), name
    sa = json.loads((raw / "samples_sa.json").read_text())
    assert sa["wall_time_s"] is None  # timing is stripped for reproducibility
    grid_lines = (raw / "qaoa_grid.csv").read_text().splitlines()
    assert grid_lines[0] == "gamma,beta,mean_energy,feasible_shot_fraction,best_shot_energy"
    assert len(grid_lines) == 1 + 9


def test_bench_qaoa_grid_feasible_fraction_is_filled(bench_paths, tmp_path):
    """Each grid cell's feasible_shot_fraction is the decoded share of that
    cell's shots, redrawn here from the cell's seed."""
    from gtspq.cli import stage_seed
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
            state = run_qaoa(model, layout, QaoaParams(float(gamma), float(beta)), seed)
            shots = sample_shots(state, diagonal, 40, seed)
            good = sum(
                int(count)
                for row, count in zip(shots.entries, shots.counts)
                if decode(model, inst, row).feasible
            )
            assert float(fraction) == good / 40


def test_bench_parallel_jobs_match_serial(bench_paths, tmp_path):
    out_serial = tmp_path / "s"
    out_par = tmp_path / "p"
    assert main(_bench_args(bench_paths, out_serial)) == 0
    assert main(_bench_args(bench_paths, out_par) + ["--jobs", "2"]) == 0
    snap_s = _dir_snapshot(out_serial)
    snap_p = _dir_snapshot(out_par)
    del snap_s["config.json"], snap_p["config.json"]
    assert snap_s == snap_p


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


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: [c],
        lambda c: {**c, "grid": 5},
        lambda c: {**c, "reads": None},
        lambda c: {**c, "extra": 1},
    ],
    ids=["list", "grid-int", "reads-null", "unknown-key"],
)
def test_report_malformed_config_exit_2(bench_paths, tmp_path, capsys, edit):
    out = tmp_path / "run"
    assert main(["bench", str(bench_paths[0]), "--reads", "20", "--out", str(out)]) == 0
    cfg = json.loads((out / "config.json").read_text())
    (out / "config.json").write_text(json.dumps(edit(cfg)))
    capsys.readouterr()
    assert main(["report", str(out), "--out", str(tmp_path / "again")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "again").exists()
