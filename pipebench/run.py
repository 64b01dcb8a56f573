"""End-to-end and per-layer benchmark of the ``gtspq bench`` pipeline.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; gtspq is imported from its
``src/`` tree. The benchmark writes GTSPLIB files generated from ``--seed``,
then drives ``gtspq.cli.main(["bench", ...])`` in this process with
``--jobs 1``, as a closed loop: one round runs the workload's invocations one
after the other, and rounds repeat until the run is as close to
``--seconds`` as whole rounds allow.

With ``--trace 0`` it reports setup_s, bench_s (each invocation's fastest
round, summed over the invocations) and peak_rss_mb. With ``--trace 1`` it
runs one untraced round, then traced rounds, and reports per-layer self
times and counters (see spans.py), the tracing overhead and the
output-quality figures. Either way it checks the outputs (exit codes,
``gtspq report`` reproduction, raw-directory digest, AR bounds, best
energies against the exported model), prints one line per metric with its
unit and base, and ends with one JSON line. It exits 1 when a check fails
and 2 when there is no gtspq source to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import outputs
import spans
from stub import StubServer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench_work"

# reads and shots keep a round short enough for a run to hold several; an SA
# read costs little next to SA's per-sweep loop over the variables
SA_READS = 20
QAOA_FLAGS = ("--grid", "10x10", "--shots", "500")  # the paper's protocol grid
EXTERNAL_READS = 300
# qaoa.MAX_SUBSPACE_DIM when the workload was defined; fixed here so that a
# later change to the simulator's cap does not change the workload
SUBSPACE_CAP = 2_000_000
SETUP_REPEATS = 15
SUM_TOLERANCE = 1e-6  # relative, for layer self times adding up to bench_s


@dataclass(frozen=True)
class Invocation:
    label: str
    specs: list  # (name, (weights, clusters, symmetric)) per instance file
    backends: tuple[str, ...]
    flags: tuple[str, ...]


def _one_per_file(group: str, specs: list, backends: tuple[str, ...], flags: tuple[str, ...]):
    return [Invocation(f"{group}{i:02d}", [spec], backends, flags) for i, spec in enumerate(specs)]


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's ``gtspq bench`` invocations, inputs drawn from seed.

    qaoa-nn2c is the QAOA grid part followed by the nn2c/exact part, each
    run as one invocation per instance file, so that bench_s can take each
    short invocation's fastest round. anneal-medium stays one invocation:
    under the SA defect a file whose only cell fails would make
    ``gtspq bench`` exit 3 (every cell failed).
    """
    def subsample(table):
        return [(name, inputs.subsample_shape(name, n, k, seed)) for name, n, k in table]

    if workload == "anneal-medium":
        return [Invocation("medium", subsample(inputs.SUBSAMPLE_MEDIUM), ("sa",),
                           ("--reads", str(SA_READS)))]
    if workload == "qaoa-nn2c":
        medium = [row for row in inputs.SUBSAMPLE_MEDIUM if row[1] ** row[2] <= SUBSPACE_CAP]
        table = [row for row in inputs.PREPROCESS_SMALL + inputs.PREPROCESS_MEDIUM if row[3] <= 9]
        originals = [(name, inputs.preprocess_original(name, rn, on, k, seed)) for name, rn, on, k in table]
        return (_one_per_file("small", subsample(inputs.SUBSAMPLE_SMALL), ("exhaustive", "qaoa"), QAOA_FLAGS)
                + _one_per_file("medium", subsample(medium), ("qaoa",), QAOA_FLAGS)
                + _one_per_file("originals", originals, ("external",),
                                ("--reduce", "nn2c", "--reads", str(EXTERNAL_READS))))
    raise ValueError(f"unknown workload {workload!r}")


def fastest_sum(rounds: list[list[float]]) -> float:
    """bench_s: each invocation's fastest time over the rounds, summed.

    The host's speed swings by tens of percent over seconds to minutes. An
    invocation's fastest round is its cost at the host's full speed, and
    short invocations find such a moment in most runs, so the sum repeats
    better than a median round does.
    """
    return sum(min(times) for times in zip(*rounds))


WORKLOADS = ("anneal-medium", "qaoa-nn2c")


def import_gtspq():
    """Import gtspq afresh from the checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "gtspq" or m.startswith("gtspq.")]:
        del sys.modules[name]
    cli = importlib.import_module("gtspq.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"gtspq imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Bench:
    """One benchmark run's inputs and the pipeline it drives."""

    seed: int
    work: Path
    invocations: list[Invocation]
    files: dict[str, list[str]]
    cli: object
    server: StubServer | None
    setup_s: float


def set_up(workload: str, seed: int, work: Path) -> Bench:
    """Generate and write the inputs, start the stub, import gtspq; repeated
    SETUP_REPEATS times, the last set kept. setup_s is the median."""
    times = []
    for rep in range(SETUP_REPEATS):
        rep_dir = work / f"inputs{rep}"
        started = time.perf_counter()
        invs = invocations(workload, seed)
        files = {inv.label: inputs.write_instances(rep_dir / inv.label, inv.specs) for inv in invs}
        server = StubServer(seed) if any("external" in inv.backends for inv in invs) else None
        cli = import_gtspq()
        times.append(time.perf_counter() - started)
        if rep < SETUP_REPEATS - 1:
            if server is not None:
                server.close()
            shutil.rmtree(rep_dir)
    return Bench(seed, work, invs, files, cli, server, statistics.median(times))


@dataclass
class Round:
    seconds: float = 0.0
    times: list[float] = field(default_factory=list)  # per invocation
    exit_codes: list[int] = field(default_factory=list)
    out_dirs: list[Path] = field(default_factory=list)
    logs: list[str] = field(default_factory=list)
    runs: list[int] = field(default_factory=list)  # tracer run ids
    digest: str = ""
    bytes_written: int = 0
    stub_bytes: int = 0


def run_round(b: Bench, index: int, tracer: spans.Tracer | None) -> Round:
    rnd = Round()
    for inv in b.invocations:
        out = b.work / f"round{index}" / inv.label
        argv = ["bench", *b.files[inv.label], "--backend", ",".join(inv.backends), *inv.flags,
                "--seed", str(b.seed), "--jobs", "1", "--out", str(out)]
        if b.server is not None:
            argv += ["--external-url", b.server.url]
        stub_before = b.server.bytes if b.server is not None else 0
        if tracer is not None:
            tracer.run = len(tracer.bounds)
            rnd.runs.append(tracer.run)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            started = time.perf_counter()
            code = b.cli.main(argv)
            ended = time.perf_counter()
        rnd.seconds += ended - started
        rnd.times.append(ended - started)
        if tracer is not None:
            tracer.bounds[tracer.run] = (started, ended)
        rnd.exit_codes.append(code)
        rnd.out_dirs.append(out)
        rnd.logs.append(sink.getvalue())
        rnd.stub_bytes += (b.server.bytes if b.server is not None else 0) - stub_before
        rnd.bytes_written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for out in rnd.out_dirs:
        if (out / "raw").is_dir():
            h.update(outputs.tree_digest(out / "raw").encode("ascii"))
    rnd.digest = h.hexdigest()
    return rnd


def check_round_outputs(b: Bench, rnd: Round) -> list[str]:
    """``gtspq report`` reproduces each report/ byte for byte; output checks."""
    errors = []
    for inv, out, code, log in zip(b.invocations, rnd.out_dirs, rnd.exit_codes, rnd.logs):
        if code != 0:
            errors.append(f"{inv.label}: gtspq bench exited {code}: {log.strip()[-2000:]}")
            continue
        again = b.work / "report_check" / inv.label
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = b.cli.main(["report", str(out), "--out", str(again)])
        if code != 0:
            errors.append(f"{inv.label}: gtspq report exited {code}: {sink.getvalue().strip()[-2000:]}")
        else:
            errors += [f"{inv.label}: report {d}" for d in outputs.tree_differences(out / "report", again)]
        errors += [f"{inv.label}: {e}" for e in outputs.output_errors(out)]
    return errors


def layer_metrics(tracer: spans.Tracer, rnd: Round) -> tuple[dict[str, float], Counter]:
    """One traced round's self time per layer (plus cli.self_s) and counts."""
    own = spans.self_times(tracer.spans)
    times: Counter = Counter()
    counts: Counter = Counter()
    for run in rnd.runs:
        times.update(own.get(run, Counter()))
        counts.update(tracer.counts.get(run, Counter()))
        times["cli.self_s"] += spans.uncovered(tracer.spans, run, *tracer.bounds[run])
    return {name: float(times[name]) for name in (*tracer.names, "cli.self_s")}, counts


def measure(args, work: Path) -> int:
    b = set_up(args.workload, args.seed, work)
    try:
        return report(args, b)
    finally:
        if b.server is not None:
            b.server.close()


def traced_metrics(tracer: spans.Tracer, rounds: list[Round], errors: list[str]):
    """Per-layer metrics from the traced rounds, plus share lines; appends
    any inconsistency in the spans to ``errors``."""
    traced = [r for r in rounds if r.runs]
    per_round = [layer_metrics(tracer, r) for r in traced]
    counts = per_round[0][1]
    if any(c != counts for _, c in per_round):
        errors.append("layer counts differ between traced rounds")
    errors += spans.nesting_errors(tracer.spans, tracer.bounds)
    for (times, _), r in zip(per_round, traced):
        total = sum(times.values())
        if abs(total - r.seconds) > SUM_TOLERANCE * r.seconds:
            errors.append(f"layer self times sum to {total!r} s, traced bench_s is {r.seconds!r} s")

    traced_s = statistics.median(r.seconds for r in traced)
    base = f"median of {len(traced)} traced rounds"
    metrics = {}
    for name in (*tracer.names, "cli.self_s"):
        value = statistics.median(times[name] for times, _ in per_round)
        metrics[name] = (value, "s", f"{base}, {100.0 * value / traced_s:.1f}% of traced bench_s")
    for name in ("instance.calls", "qubo.terms", "qubo.energy_calls", "qubo.decode_calls",
                 "sampler.sa_flip_attempts", "sampler.exhaustive_states", "qaoa.cells",
                 "qaoa.amplitudes", "baseline.exact_orderings"):
        metrics[name] = (counts[name], "count", "per round")
    rows, reads = counts["sampler.sa_unique_rows"], counts["sampler.sa_reads"]
    metrics["sampler.sa_unique_frac"] = (rows / reads if reads else 0.0, "ratio",
                                         f"{rows} unique rows / {reads} reads")
    unique, shots = counts["qaoa.unique_shots"], counts["qaoa.shots"]
    metrics["qaoa.unique_shot_frac"] = (unique / shots if shots else 0.0, "ratio",
                                        f"{unique} unique / {shots} shots, summed over cells")
    metrics["sampler.external_bytes"] = (traced[0].stub_bytes, "bytes", "request + response, per round")
    metrics["cli.bytes_written"] = (traced[0].bytes_written, "bytes", "run directories, per round")
    metrics["trace.bench_s"] = (traced_s, "s", base)
    metrics["trace.overhead_s"] = (traced_s - rounds[0].seconds, "s", "traced minus untraced bench_s")

    inclusive: Counter = Counter()
    traced_runs = {run for r in traced for run in r.runs}
    for s in tracer.spans:
        if s.run in traced_runs and s.parent is None:
            inclusive[s.name] += (s.end - s.start) / len(traced)
    lines = [f"inclusive {name}: {100.0 * t / traced_s:.1f}% of traced bench_s"
             for name, t in inclusive.most_common()]
    return metrics, lines


def report(args, b: Bench) -> int:
    rounds: list[Round] = []
    tracer = None
    started = now = time.perf_counter()
    last = 0.0  # the previous round's duration, bookkeeping included
    # the traced run starts with one untraced round, the overhead baseline;
    # a round starts if, taking as long as the last, it ends the run closer
    # to --seconds than stopping now would
    while len(rounds) < 1 + args.trace or now - started + last / 2 <= args.seconds:
        if args.trace and rounds and tracer is None:
            tracer = spans.Tracer()
            spans.install(tracer)
        rounds.append(run_round(b, len(rounds), tracer))
        if len(rounds) > 1:  # round 0 stays for the output checks
            shutil.rmtree(b.work / f"round{len(rounds) - 1}")
        last, now = time.perf_counter() - now, time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.unwrap_all()

    errors = check_round_outputs(b, rounds[0])
    errors += [f"round {i}: exit codes {r.exit_codes}" for i, r in enumerate(rounds) if i and any(r.exit_codes)]
    digests = sorted({r.digest for r in rounds})
    if len(digests) != 1:
        errors.append(f"raw-directory digest differs between rounds: {digests}")
    tally = outputs.Tally()
    for inv, out, code in zip(b.invocations, rounds[0].out_dirs, rounds[0].exit_codes):
        outputs.tally_run(tally, out, list(inv.backends), code, len(inv.specs))
    quality = outputs.quality_metrics(tally)

    lines = [f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
             f"{len(b.invocations)} invocation(s), raw-directory digest {digests[0]}"]
    if args.trace:
        metrics, share_lines = traced_metrics(tracer, rounds, errors)
        metrics.update(quality)
        lines += share_lines
    else:
        metrics = {
            "setup_s": (b.setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
            "bench_s": (fastest_sum([r.times for r in rounds]), "s",
                        f"fastest of {len(rounds)} rounds per invocation, summed over "
                        f"{len(b.invocations)}; median round "
                        f"{statistics.median(r.seconds for r in rounds):.3f} s"),
            "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of the benchmark process"),
        }
        lines += [f"{k} = {v!r} {u} ({base})" for k, (v, u, base) in quality.items()]
    lines += [f"{k} = {v!r} {u} ({base})" for k, (v, u, base) in metrics.items()]
    lines += [f"CHECK FAILED: {e}" for e in errors]
    lines.append(f"{len(errors)} check(s) failed" if errors else "all output checks passed")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(r.exit_codes) for r in rounds),
        "failed": sum(1 for r in rounds for c in r.exit_codes if c != 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "gtspq" / "cli.py").is_file():
        print(f"no gtspq source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
