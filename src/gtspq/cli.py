"""Command-line pipeline: parse -> reduce -> qubo -> solve -> bench -> report.

One ``--seed`` determines every stochastic stage. Stage seeds derive as
``seed + 1_000_003 * instance_index + STAGE`` with STAGE codes subsample=1,
sa=2, qaoa=3, random=4, so runs are reproducible instance by instance and
stage by stage regardless of --jobs scheduling.

Exit codes: 0 success, 1 usage error (flags or a --config file), 2
instance/model error, a malformed external-sampler response or a malformed
``config.json`` read by ``report``, 3 when every requested backend reported
a failure. Diagnostics go to stderr; all output files are written atomically
(temp + rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import baseline, bench, preprocess, qaoa, qubo, sampler
from .instance import GtsplibError, GtspInstance, parse_gtsplib, serialize_gtsplib

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


# the type of each field that holds one JSON scalar
_SCALAR_FIELDS = {
    "reduce": str,
    "seed": int,
    "reads": int,
    "shots": int,
    "timeout_s": float,
    "layers": int,
    "zero_is_edge": bool,
    "jobs": int,
    "out": str,
    "group": str,
}


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
            *((key, type(getattr(self, key)) is kind) for key, kind in _SCALAR_FIELDS.items()),
        ):
            if not ok:
                raise ValueError(f"bad {key} value {getattr(self, key)!r}")
        known = {b.value for b in sampler.Backend}
        for b in self.backends:
            if b not in known:
                raise ValueError(f"unknown backend {b!r}")
        if not self.backends:
            raise ValueError("at least one backend is required")
        for flag, value in (
            ("--reads", self.reads),
            ("--shots", self.shots),
            ("--grid", min(self.grid)),
            ("--layers", self.layers),
        ):
            if value < 1:
                raise ValueError(f"{flag} must be at least 1")
        if not self.timeout_s >= 0:  # NaN too: no elapsed time exceeds it
            raise ValueError(f"--timeout-s must be at least 0, got {self.timeout_s!r}")
        _parse_reduce_spec(self.reduce)
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


def _parse_reduce_spec(spec: str) -> tuple[str, int | None]:
    if spec == "none" or spec == "nn2c":
        return spec, None
    if spec.startswith("subsample:"):
        try:
            target = int(spec.removeprefix("subsample:"))
        except ValueError:
            target = 0
        if target >= 1:
            return "subsample", target
    raise ValueError(f"bad --reduce value {spec!r}, expected nn2c|subsample:TARGET, TARGET >= 1")


# --- per-instance pipeline ----------------------------------------------------


def _subsample(
    inst: GtspInstance, target: int, seed: int
) -> tuple[GtspInstance, preprocess.ReductionRecord]:
    """``cluster_subsample``, the result renamed ``<name>_nodes_<n>``."""
    reduced, record = preprocess.cluster_subsample(inst, target, seed)
    renamed = GtspInstance(
        name=f"{reduced.name}_nodes_{reduced.n}",
        clusters=reduced.clusters,
        weights=reduced.weights,
        symmetric=reduced.symmetric,
    )
    return renamed, record


def _apply_reduction(
    inst: GtspInstance, cfg: RunConfig, index: int
) -> tuple[GtspInstance, preprocess.ReductionRecord | None, int | None]:
    method, target = _parse_reduce_spec(cfg.reduce)
    if method == "none":
        return inst, None, None
    original_n = inst.n
    if method == "nn2c":
        reduced, record = preprocess.nn2c_reduce(inst)
        return reduced, record, original_n
    reduced, record = _subsample(inst, target, stage_seed(cfg.seed, index, "subsample"))
    return reduced, record, original_n


def _run_backend(
    key: str, inst: GtspInstance, model: qubo.QuboModel, cfg: RunConfig, index: int
) -> tuple[sampler.SampleSet, qaoa.GridResult | None]:
    started = time.monotonic()
    grid_result = None
    backend = sampler.Backend(key)
    if backend is sampler.Backend.EXHAUSTIVE:
        samples = sampler.exhaustive_ground_state(model)
    elif backend is sampler.Backend.SIMULATED_ANNEALING:
        samples = sampler.sa_sample(
            model, num_reads=cfg.reads, seed=stage_seed(cfg.seed, index, "sa")
        )
    elif backend is sampler.Backend.QAOA:
        grid_cfg = qaoa.GridConfig(
            gamma_points=cfg.grid[0],
            beta_points=cfg.grid[1],
            shots=cfg.shots,
            timeout_s=cfg.timeout_s,
            layers=cfg.layers,
        )
        grid_result = qaoa.grid_search(model, grid_cfg, stage_seed(cfg.seed, index, "qaoa"), inst)
        samples = grid_result.search_samples  # every shot drawn during the search
    else:
        config = sampler.ExternalSamplerConfig(url=cfg.external_url, num_reads=cfg.reads)
        samples = sampler.external_sampler_submit(model, config)
    samples = dataclasses.replace(samples, wall_time_s=time.monotonic() - started)
    return samples, grid_result


def _bench_instance(payload: tuple) -> dict:
    """Solve one instance end to end and persist its raw artifacts."""
    cfg, index, path = payload
    inst = _read_instance(path)
    inst, record, original_n = _apply_reduction(inst, cfg, index)
    model = qubo.build_qubo(inst, zero_is_edge=cfg.zero_is_edge)
    raw_dir = Path(cfg.out) / "raw" / f"{index:03d}_{inst.name}"

    bench.atomic_write(raw_dir / "instance.gtsp", serialize_gtsplib(inst))
    if record is not None:
        bench.atomic_write(
            raw_dir / "reduction.json", {**record.to_json_dict(), "original_n": original_n}
        )
    bench.atomic_write(raw_dir / "model.json", qubo.to_json_dict(model))
    bench.atomic_write(raw_dir / "model.coo", qubo.to_coo_text(model))

    exact = baseline.exact_solve(inst)
    bench.atomic_write(
        raw_dir / "exact.json",
        {
            "tour": list(exact.tour),
            "cost": exact.cost,
            "explored_orderings": exact.explored_orderings,
        },
    )
    rnd_seed = stage_seed(cfg.seed, index, "random")
    _, random_costs = baseline.random_tours(inst, cfg.reads, rnd_seed)
    bench.atomic_write(
        raw_dir / "random.json",
        {"seed": rnd_seed, "count": cfg.reads, "costs": random_costs.tolist()},
    )

    for key in cfg.backends:
        samples, grid_result = _run_backend(key, inst, model, cfg, index)
        print(
            f"[{inst.name}] backend={key} best="
            f"{samples.energies[0] if len(samples.energies) else None} "
            f"failure={samples.failure.value if samples.failure else None} "
            f"wall={samples.wall_time_s:.2f}s",
            file=sys.stderr,
        )
        samples = dataclasses.replace(samples, wall_time_s=None)  # keep runs byte-identical
        bench.atomic_write(raw_dir / f"samples_{key}.json", samples.to_json_dict())
        if grid_result is not None and grid_result.cells:
            bench.atomic_write(raw_dir / "qaoa_grid.csv", qaoa.grid_summary_csv(grid_result))
    return {"index": index, "raw_dir": str(raw_dir)}


def _aggregate_raw(out_dir: Path, cfg: RunConfig) -> bench.ExperimentGroup:
    """Rebuild all reports from persisted raw artifacts only."""
    reports = []
    raw_root = out_dir / "raw"
    for raw_dir in sorted(raw_root.iterdir()):
        if not raw_dir.is_dir():
            continue
        inst = parse_gtsplib((raw_dir / "instance.gtsp").read_text(encoding="utf-8"))
        model = qubo.build_qubo(inst, zero_is_edge=cfg.zero_is_edge)
        exact_data = json.loads((raw_dir / "exact.json").read_text(encoding="utf-8"))
        exact = baseline.ExactResult(
            tour=tuple(exact_data["tour"]),
            cost=float(exact_data["cost"]),
            explored_orderings=int(exact_data["explored_orderings"]),
        )
        random_costs = json.loads((raw_dir / "random.json").read_text(encoding="utf-8"))[
            "costs"
        ]
        original_n = None
        reduction_path = raw_dir / "reduction.json"
        if reduction_path.exists():
            original_n = json.loads(reduction_path.read_text(encoding="utf-8")).get(
                "original_n"
            )
        sample_sets = {}
        for key in cfg.backends:
            data = json.loads(
                (raw_dir / f"samples_{key}.json").read_text(encoding="utf-8")
            )
            sample_sets[key] = sampler.SampleSet.from_json_dict(data)
        reports.append(
            bench.build_report(
                inst, model, sample_sets, exact, random_costs, original_n=original_n
            )
        )
    return bench.ExperimentGroup(name=cfg.group, reports=tuple(reports))


def _all_failed(group: bench.ExperimentGroup) -> bool:
    cells = [b for rep in group.reports for b in rep.backends.values()]
    return bool(cells) and all(b.failure is not None for b in cells)


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
        method, target = _parse_reduce_spec(args.reduce)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if method == "none":
        raise _UsageError("--reduce must be nn2c or subsample:TARGET")
    inst = _read_instance(args.instance)
    if method == "nn2c":
        reduced, record = preprocess.nn2c_reduce(inst)
        stem = f"{reduced.name}_nn2c"
    else:
        seed = args.seed if args.seed is not None else 0
        reduced, record = _subsample(inst, target, seed)
        stem = reduced.name
    out = Path(args.out)
    bench.atomic_write(out / f"{stem}.gtsp", serialize_gtsplib(reduced))
    bench.atomic_write(out / f"{stem}.json", record.to_json_dict())
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
    inst = _read_instance(args.instance)
    inst, _, _ = _apply_reduction(inst, cfg, 0)
    model = qubo.build_qubo(inst, zero_is_edge=cfg.zero_is_edge)
    out = Path(cfg.out)
    failures = []
    for key in cfg.backends:
        samples, grid_result = _run_backend(key, inst, model, cfg, 0)
        bench.atomic_write(out / f"{inst.name}_samples_{key}.json", samples.to_json_dict())
        if grid_result is not None and grid_result.cells:
            bench.atomic_write(out / f"{inst.name}_qaoa_grid.csv", qaoa.grid_summary_csv(grid_result))
        print(
            f"{inst.name} {key}: best_energy="
            f"{samples.energies[0] if len(samples.energies) else None} "
            f"failure={samples.failure.value if samples.failure else None}"
        )
        failures.append(samples.failure is not None)
    return EXIT_ALL_FAILED if all(failures) else EXIT_OK


def cmd_bench(args) -> int:
    cfg = _build_config(args)
    if not cfg.instances:
        raise _UsageError("bench needs at least one instance file")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    bench.atomic_write(out / "config.json", dataclasses.asdict(cfg))
    payloads = [(cfg, index, path) for index, path in enumerate(cfg.instances)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            list(pool.map(_bench_instance, payloads))
    else:
        for payload in payloads:
            _bench_instance(payload)
    group = _aggregate_raw(out, cfg)
    bench.emit(group, out / "report")
    print(f"report written to {out / 'report'}")
    return EXIT_ALL_FAILED if _all_failed(group) else EXIT_OK


def cmd_report(args) -> int:
    out = Path(args.run_dir)
    cfg = RunConfig.from_dict(json.loads((out / "config.json").read_text(encoding="utf-8")))
    group = _aggregate_raw(out, cfg)
    target = Path(args.out) if args.out else out / "report"
    bench.emit(group, target)
    print(f"report written to {target}")
    return EXIT_ALL_FAILED if _all_failed(group) else EXIT_OK


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
    p.add_argument("--reads", type=int, default=None, help="annealer-style reads (default 1500)")
    p.add_argument("--shots", type=int, default=None, help="QAOA shots per grid cell (default 1500)")
    p.add_argument("--grid", type=str, default=None, help="QAOA grid, e.g. 10x10")
    p.add_argument("--timeout-s", dest="timeout_s", type=float, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--reduce", type=str, default=None, help="nn2c | subsample:TARGET")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--zero-is-edge", dest="zero_is_edge", action="store_true", default=None)
    p.add_argument("--external-url", dest="external_url", type=str, default=None)
    p.add_argument("--config", type=str, default=None, help="JSON config file (flags override it)")
    p.add_argument("--group", type=str, default=None, help="experiment group name")


def _make_parser() -> _Parser:
    parser = _Parser(prog="gtspq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate and summarize an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("reduce", help="write a reduced instance plus its record")
    p.add_argument("instance")
    p.add_argument("--reduce", type=str, required=True)
    p.add_argument("--seed", type=int, default=None)
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
