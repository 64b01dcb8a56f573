"""Command-line pipeline: parse -> reduce -> qubo -> solve -> bench -> report.

One ``--seed`` determines every stochastic stage. Stage seeds derive as
``seed + 1_000_003 * instance_index + STAGE`` with STAGE codes subsample=1,
sa=2, qaoa=3, random=4, so runs are reproducible instance by instance and
stage by stage regardless of --jobs scheduling.

Exit codes: 0 success, 1 usage error (flags or a --config file), 2
instance/model error, a malformed external-sampler response or a malformed
``config.json`` or raw file read by ``report``, 3 when every requested
backend reported a failure. Diagnostics go to stderr; all output files are
written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import baseline, bench, preprocess, qaoa, qubo, sampler
from .instance import GtsplibError, GtspInstance, parse_gtsplib, serialize_gtsplib, tour_cost

_STAGE = {"subsample": 1, "sa": 2, "qaoa": 3, "random": 4}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INSTANCE = 2
EXIT_ALL_FAILED = 3


def stage_seed(seed: int, instance_index: int, stage: str) -> int:
    return seed + 1_000_003 * instance_index + _STAGE[stage]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract says 1
        raise _UsageError(message)


def _read_instance(path: str) -> GtspInstance:
    return parse_gtsplib(Path(path).read_text(encoding="utf-8"))


@dataclasses.dataclass
class RunConfig:
    """One run's settings, as its ``config.json`` holds them.

    Construction takes the JSON forms too (a comma list of backends, a "GxG"
    string or a list for the grid, an integer timeout) and raises ValueError
    on the first field of the wrong type or out of range.
    """

    instances: list[str] = dataclasses.field(default_factory=list)
    backends: list[str] = dataclasses.field(default_factory=lambda: ["sa"])
    reduce: str = "none"  # none | nn2c | subsample:<target>
    seed: int = 0
    reads: int = sampler.DEFAULT_NUM_READS
    shots: int = 1500
    grid: tuple[int, int] = (10, 10)
    timeout_s: float = 300.0
    layers: int = 1
    zero_is_edge: bool = False
    jobs: int = 1
    out: str = "out"
    group: str = "custom"
    external_url: str | None = None

    def __post_init__(self):
        if isinstance(self.backends, str):
            self.backends = [b.strip() for b in self.backends.split(",") if b.strip()]
        if isinstance(self.grid, str):
            ga, _, gb = self.grid.lower().partition("x")
            try:
                self.grid = (int(ga), int(gb))
            except ValueError:
                raise ValueError(f"bad --grid value {self.grid!r}, expected GxG") from None
        if isinstance(self.grid, list):
            self.grid = tuple(self.grid)
        if type(self.timeout_s) is int:
            self.timeout_s = float(self.timeout_s)
        for key, ok in (
            ("instances", _is_list_of(self.instances, str)),
            ("backends", _is_list_of(self.backends, str)),
            ("grid", _is_list_of(self.grid, int, tuple) and len(self.grid) == 2),
            ("external_url", self.external_url is None or type(self.external_url) is str),
            *(
                (key, type(getattr(self, key)) is kind)
                for key, kind in typing.get_type_hints(type(self)).items()
                if kind in (str, int, float, bool)  # the fields that hold one JSON scalar
            ),
        ):
            if not ok:
                raise ValueError(f"bad {key} value {getattr(self, key)!r}")
        known = {b.value for b in sampler.Backend}
        for b in self.backends:
            if b not in known:
                raise ValueError(f"unknown backend {b!r}")
        if not self.backends:
            raise ValueError("at least one backend is required")
        for flag, value, least in (
            ("--seed", self.seed, 0),  # stage seeds feed default_rng, which takes none below 0
            ("--reads", self.reads, 1),
            ("--shots", self.shots, 1),
            ("--grid", min(self.grid), 1),
            ("--layers", self.layers, 1),
            ("--jobs", self.jobs, 1),
        ):
            if value < least:
                raise ValueError(f"{flag} must be at least {least}")
        if not self.timeout_s >= 0:  # NaN too: no elapsed time exceeds it
            raise ValueError(f"--timeout-s must be at least 0, got {self.timeout_s!r}")
        preprocess.parse_spec(self.reduce)
        if "external" in self.backends and not self.external_url:
            raise ValueError("backend 'external' needs --external-url")

    @classmethod
    def from_dict(cls, data, **overrides) -> "RunConfig":
        """The config a JSON object describes, with ``overrides`` on top;
        ValueError if it is not an object or has a key that is not a field."""
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, not {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**{**data, **overrides})


def _is_list_of(value, kind: type, container: type = list) -> bool:
    return isinstance(value, container) and all(type(v) is kind for v in value)


def _build_config(args) -> RunConfig:
    """The --config file's values, overridden by the flags given; the
    instances are the command line's. A bad value, or a config file that
    cannot be read or is not a JSON object of known keys, is a usage error."""
    flags = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if f.name != "instances" and getattr(args, f.name) is not None
    }
    instances = [args.instance] if isinstance(args.instance, str) else args.instance
    try:
        file_cfg = {}
        if args.config:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        return RunConfig.from_dict(file_cfg, **flags, instances=instances)
    except (OSError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


# --- per-instance pipeline ----------------------------------------------------


def _run_backend(
    key: str, model: qubo.QuboModel, cfg: RunConfig, index: int, prefix: str
) -> sampler.SampleSet:
    """Run backend ``key`` on instance ``index``'s model with its stage seed,
    write its set to ``<prefix>samples_<key>.json`` (and QAOA's grid to
    ``<prefix>qaoa_grid.csv``) and return the set."""
    backend = sampler.Backend(key)
    if backend is sampler.Backend.EXHAUSTIVE:
        samples = sampler.exhaustive_ground_state(model)
    elif backend is sampler.Backend.SIMULATED_ANNEALING:
        samples = sampler.sa_sample(
            model, num_reads=cfg.reads, seed=stage_seed(cfg.seed, index, "sa")
        )
    elif backend is sampler.Backend.QAOA:
        grid_result = qaoa.grid_search(
            model,
            stage_seed(cfg.seed, index, "qaoa"),
            grid=cfg.grid,
            shots=cfg.shots,
            timeout_s=cfg.timeout_s,
            layers=cfg.layers,
        )
        samples = grid_result.samples  # the chosen cell's shots
        if grid_result.cells:
            bench.atomic_write(Path(f"{prefix}qaoa_grid.csv"), bench.grid_csv(grid_result))
    else:
        transport = sampler.http_transport(cfg.external_url)
        samples = sampler.external_sampler_submit(model, cfg.reads, transport)
    bench.atomic_write(Path(f"{prefix}samples_{key}.json"), samples.json_chunks())
    return samples


def _bench_instance(payload: tuple) -> None:
    """Solve one instance end to end and persist its raw artifacts; the
    random baseline is not one of them (``report`` draws it from the config)."""
    cfg, index, path = payload
    inst, record = preprocess.reduce(
        _read_instance(path), cfg.reduce, stage_seed(cfg.seed, index, "subsample")
    )
    model = qubo.build_qubo(inst, zero_is_edge=cfg.zero_is_edge)
    raw_dir = Path(cfg.out) / "raw" / f"{index:03d}_{inst.name}"

    bench.atomic_write(raw_dir / "instance.gtsp", serialize_gtsplib(inst))
    if record is not None:
        bench.atomic_write(raw_dir / "reduction.json", record)
    bench.atomic_write(raw_dir / "model.coo", qubo.to_coo_text(model))

    exact = baseline.exact_solve(inst, zero_is_edge=cfg.zero_is_edge)
    bench.atomic_write(raw_dir / "exact.json", {"tour": list(exact.tour), "cost": exact.cost})

    for key in cfg.backends:
        started = time.monotonic()
        samples = _run_backend(key, model, cfg, index, f"{raw_dir}/")
        print(f"[{inst.name}] {_outcome(key, samples, started)}", file=sys.stderr)


def _check_no_stale_raw_dirs(out_dir: Path, count: int) -> None:
    """ValueError if ``raw/`` holds a directory whose name does not start
    with ``<i:03d>_`` for one of the run's ``count`` instance indices."""
    raw_root = out_dir / "raw"
    if not raw_root.is_dir():
        return
    indices = {f"{index:03d}" for index in range(count)}
    for path in sorted(raw_root.iterdir()):
        head, sep, _ = path.name.partition("_")
        if path.is_dir() and not (sep and head in indices):
            raise ValueError(f"raw/{path.name}: not one of the run's {count} instances")


def _aggregate_raw(out_dir: Path, cfg: RunConfig) -> dict:
    """Rebuild all reports from persisted raw artifacts only: the one
    ``raw/<i:03d>_*`` directory of each configured instance i, and no other.
    The group is ``group.json``'s object: ``{schema, name, instances}``."""
    raw_dirs = []
    for index in range(len(cfg.instances)):
        pattern = f"raw/{index:03d}_*"
        found = sorted(out_dir.glob(pattern))
        if len(found) != 1:
            raise ValueError(f"{pattern}: {len(found)} matches, expected one raw directory")
        raw_dirs.append(found[0])
    _check_no_stale_raw_dirs(out_dir, len(raw_dirs))
    reports = [_read_raw_dir(raw_dir, cfg, index) for index, raw_dir in enumerate(raw_dirs)]
    return {"schema": bench.SCHEMA_VERSION, "name": cfg.group, "instances": reports}


def _read_raw_dir(raw_dir: Path, cfg: RunConfig, index: int) -> dict:
    """Instance ``index``'s report, from the files of its raw directory that
    ``cfg`` implies: instance.gtsp, exact.json, reduction.json exactly when the
    run reduced, and samples_<key>.json per backend; any fault in one is a
    ValueError that starts with ``<raw dir>/<file>: ``. The random baseline
    is drawn from ``cfg``'s reads and seed and averages the draws that are
    tours of the model; an older run's random.json is ignored."""

    def read(name: str, check=lambda value: value):
        with _fault_names(f"{raw_dir.name}/{name}"):
            text = (raw_dir / name).read_text(encoding="utf-8")
            if name.endswith(".gtsp"):
                return check(parse_gtsplib(text))
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
            return check(data)

    def check_exact(data: dict) -> float:
        tour, cost = data["tour"], data["cost"]
        if not isinstance(tour, list) or not all(type(v) is int for v in tour):
            raise ValueError(f"tour {tour!r} is not a list of integer node ids")
        if type(cost) is bool:
            raise ValueError(f"cost {cost!r} is not a number")
        violations, _ = qubo.decode_rows(model, inst, qubo.encode_rows(inst.n, [tour]))
        if violations[0] is not None or tour_cost(inst, tour) != cost:
            raise ValueError("not a tour (one node per cluster, over edges) with its cost")
        return float(cost)

    def check_reduction(data: dict) -> int:
        if type(data["original_n"]) is not int or data["original_n"] < inst.n:
            raise ValueError("original_n is not an integer >= n")
        return data["original_n"]

    def check_samples(key: str, data: dict) -> sampler.SampleSet:
        samples = sampler.SampleSet.from_json_dict(data, model.num_vars)
        if samples.backend.value != key:
            raise ValueError(f"backend {samples.backend.value!r} is not {key!r}")
        return samples

    inst = read("instance.gtsp")
    model = qubo.build_qubo(inst, zero_is_edge=cfg.zero_is_edge)
    cost = read("exact.json", check_exact)
    seed = stage_seed(cfg.seed, index, "random")
    orders, costs = baseline.random_tours(inst, cfg.reads, seed)
    random_costs = costs[qubo.order_checks(model, inst, orders)[1]].tolist()
    original_n = read("reduction.json", check_reduction) if cfg.reduce != "none" else None
    sample_sets = {
        key: read(f"samples_{key}.json", lambda data: check_samples(key, data))
        for key in cfg.backends
    }
    return bench.build_report(inst, model, sample_sets, cost, random_costs, original_n=original_n)


@contextlib.contextmanager
def _fault_names(file: str):
    """Re-raise a fault met in reading, parsing or checking ``file`` as a
    ValueError that starts with ``file: ``."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{file}: missing key {exc}") from None
    except (OSError, ValueError, TypeError) as exc:
        raise ValueError(f"{file}: {exc}") from None


def _outcome(key: str, samples: sampler.SampleSet, started: float) -> str:
    """One backend's best energy, failure and the seconds since ``started``."""
    best = samples.energies[0] if len(samples.energies) else None
    failure = samples.failure.value if samples.failure else None
    return f"{key}: best_energy={best} failure={failure} wall={time.monotonic() - started:.2f}s"


def _write_report(out: Path, cfg: RunConfig, target: Path) -> int:
    """Aggregate the run in ``out`` into the report directory ``target``;
    the run's exit code, 3 when every backend of every instance failed."""
    group = _aggregate_raw(out, cfg)
    bench.emit(group, target)
    print(f"report written to {target}")
    cells = [b for rep in group["instances"] for b in rep["backends"].values()]
    return EXIT_ALL_FAILED if cells and all(b["failure"] is not None for b in cells) else EXIT_OK


# --- subcommands ----------------------------------------------------------------


def cmd_parse(args) -> int:
    inst = _read_instance(args.instance)
    sizes = ",".join(str(len(c)) for c in inst.clusters)
    print(
        f"{inst.name}: N={inst.n}, K={inst.k}, "
        f"symmetric={inst.symmetric}, cluster_sizes=[{sizes}]"
    )
    return EXIT_OK


def cmd_reduce(args) -> int:
    try:
        method, _ = preprocess.parse_spec(args.reduce)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if method == "none":
        raise _UsageError("--reduce must be nn2c or subsample:TARGET")
    if args.seed < 0:
        raise _UsageError("--seed must be at least 0")
    reduced, record = preprocess.reduce(_read_instance(args.instance), args.reduce, args.seed)
    stem = reduced.name if method == preprocess.METHOD_SUBSAMPLE else f"{reduced.name}_nn2c"
    out = Path(args.out)
    bench.atomic_write(out / f"{stem}.gtsp", serialize_gtsplib(reduced))
    bench.atomic_write(out / f"{stem}.json", record)
    print(f"{reduced.name}: N={reduced.n}, K={reduced.k} -> {out / (stem + '.gtsp')}")
    return EXIT_OK


def cmd_qubo(args) -> int:
    inst = _read_instance(args.instance)
    model = qubo.build_qubo(inst, zero_is_edge=bool(args.zero_is_edge))
    out = Path(args.out)
    bench.atomic_write(out / f"{inst.name}_model.json", qubo.to_json_dict(model))
    bench.atomic_write(out / f"{inst.name}_model.coo", qubo.to_coo_text(model))
    print(
        f"{inst.name}: variables={model.num_vars}, lambda={model.lam}, "
        f"quadratic_terms={len(model.quadratic)}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _build_config(args)
    inst, _ = preprocess.reduce(
        _read_instance(args.instance), cfg.reduce, stage_seed(cfg.seed, 0, "subsample")
    )
    model = qubo.build_qubo(inst, zero_is_edge=cfg.zero_is_edge)
    out = Path(cfg.out)
    failures = []
    for key in cfg.backends:
        started = time.monotonic()
        samples = _run_backend(key, model, cfg, 0, f"{out / inst.name}_")
        print(f"{inst.name} {_outcome(key, samples, started)}")
        failures.append(samples.failure is not None)
    return EXIT_ALL_FAILED if all(failures) else EXIT_OK


def cmd_bench(args) -> int:
    cfg = _build_config(args)
    if not cfg.instances:
        raise _UsageError("bench needs at least one instance file")
    out = Path(cfg.out)
    _check_no_stale_raw_dirs(out, len(cfg.instances))  # before anything is overwritten
    out.mkdir(parents=True, exist_ok=True)
    bench.atomic_write(out / "config.json", dataclasses.asdict(cfg))
    payloads = [(cfg, index, path) for index, path in enumerate(cfg.instances)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            list(pool.map(_bench_instance, payloads))
    else:
        for payload in payloads:
            _bench_instance(payload)
    return _write_report(out, cfg, out / "report")


def cmd_report(args) -> int:
    out = Path(args.run_dir)
    config = out / "config.json"
    with _fault_names(str(config)):
        cfg = RunConfig.from_dict(json.loads(config.read_text(encoding="utf-8")))
    return _write_report(out, cfg, Path(args.out) if args.out else out / "report")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument(
        "--backend",
        dest="backends",
        type=str,
        default=None,
        help="comma list: exhaustive,sa,qaoa,external",
    )
    p.add_argument(
        "--reads", type=int, default=None, help=f"annealer-style reads (default {RunConfig.reads})"
    )
    p.add_argument(
        "--shots", type=int, default=None, help=f"QAOA shots per grid cell (default {RunConfig.shots})"
    )
    p.add_argument("--grid", type=str, default=None, help="QAOA grid, e.g. 10x10")
    p.add_argument("--timeout-s", dest="timeout_s", type=float, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--reduce", type=str, default=None, help="nn2c | subsample:TARGET")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--zero-is-edge", dest="zero_is_edge", action="store_true", default=None)
    p.add_argument("--external-url", dest="external_url", type=str, default=None)
    p.add_argument("--config", type=str, default=None, help="JSON config file (flags override it)")
    p.add_argument("--group", type=str, default=None, help="experiment group name")


@functools.cache
def _make_parser() -> _Parser:
    """The one parser of the process: argparse gives each parse_args call
    its own namespace, so a parser holds nothing of an earlier call."""
    parser = _Parser(prog="gtspq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate and summarize an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("reduce", help="write a reduced instance plus its record")
    p.add_argument("instance")
    p.add_argument("--reduce", type=str, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default="out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("qubo", help="build the model and export json + coo")
    p.add_argument("instance")
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--zero-is-edge", dest="zero_is_edge", action="store_true")
    p.set_defaults(func=cmd_qubo)

    p = sub.add_parser("solve", help="sample one instance with selected backends")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="full pipeline over an instance group")
    p.add_argument("instance", nargs="*")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="re-aggregate reports from raw shot files")
    p.add_argument("run_dir")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GtsplibError, sampler.ExternalSamplerError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTANCE


if __name__ == "__main__":
    sys.exit(main())
