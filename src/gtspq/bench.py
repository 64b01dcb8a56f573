"""Per-instance metrics and experiment-group report files.

Feasibility ratio (``feasible_shot_rate``) counts the shots that decode to
valid tours; approximation ratio is optimal cost over achieved cost (1.0 is
optimal). AR distributions weight every shot by its multiplicity, so a
bitstring sampled 30 times contributes 30 points. Emission is deterministic:
fixed row order, repr float formatting, sorted JSON keys, schema tag "v1".
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import qubo
from .baseline import ExactResult
from .instance import GtspInstance, tour_costs
from .qubo import QuboModel
from .sampler import Failure, SampleSet

SCHEMA_VERSION = "v1"


def approximation_ratio(optimal: float, cost: float) -> float:
    """optimal / cost; undefined (raises) for degenerate zero-cost optima."""
    if optimal <= 0:
        raise ValueError("approximation ratio undefined for optimal <= 0")
    return optimal / cost


@dataclass(frozen=True)
class BackendReport:
    feasible_shot_rate: float
    ar_distribution: tuple[float, ...]
    best_shot_ar: float | None
    mean_solver_cost: float | None
    mean_random_cost: float
    optimal_cost: float
    wall_time_s: float | None
    failure: str | None


@dataclass(frozen=True)
class InstanceReport:
    name: str
    n: int
    k: int
    qubits: int
    original_n: int | None
    optimal_cost: float
    mean_random_cost: float
    backends: dict[str, BackendReport]

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "instance": {
                "name": self.name,
                "n": self.n,
                "k": self.k,
                "qubits": self.qubits,
                "original_n": self.original_n,
            },
            "optimal_cost": self.optimal_cost,
            "mean_random_cost": self.mean_random_cost,
            "backends": {
                # vars, not asdict: asdict copies ar_distribution float by float
                key: vars(rep) for key, rep in sorted(self.backends.items())
            },
        }


@dataclass(frozen=True)
class ExperimentGroup:
    """Named list of instance reports, in declared instance order."""

    name: str
    reports: tuple[InstanceReport, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "instances": [r.to_json_dict() for r in self.reports],
        }


def build_report(
    inst: GtspInstance,
    model: QuboModel,
    sample_sets: dict[str, SampleSet],
    exact: ExactResult,
    random_costs: list[float],
    original_n: int | None = None,
) -> InstanceReport:
    """Aggregate one instance's sample sets against the exact baseline.

    A backend with shots but no feasible one is reported as an invalid-tour
    failure with an empty AR distribution instead of fabricated metrics.
    """
    mean_random = sum(random_costs) / len(random_costs)
    optimal = exact.cost
    backends: dict[str, BackendReport] = {}
    for key, samples in sample_sets.items():
        failure = samples.failure.value if samples.failure else None
        ars: list[float] = []
        costs: list[float] = []
        if samples.failure is None and len(samples.counts):
            violations, order = qubo.decode_rows(model, inst, samples.entries)
            feasible = np.array([v is None for v in violations], dtype=bool)
            row_costs = tour_costs(inst, order[feasible]).tolist()
            for cost, count in zip(row_costs, samples.counts[feasible].tolist()):
                costs.extend([cost] * count)
                if optimal > 0:
                    ars.extend([approximation_ratio(optimal, cost)] * count)
        weight = len(costs)
        if samples.failure is None and weight == 0:
            failure = Failure.INVALID_TOUR.value
        reads = samples.num_reads
        backends[key] = BackendReport(
            feasible_shot_rate=(weight / reads) if reads else 0.0,
            ar_distribution=tuple(ars),
            best_shot_ar=max(ars) if ars else None,
            mean_solver_cost=(sum(costs) / weight) if weight else None,
            mean_random_cost=mean_random,
            optimal_cost=optimal,
            wall_time_s=samples.wall_time_s,
            failure=failure,
        )
    return InstanceReport(
        name=inst.name,
        n=inst.n,
        k=inst.k,
        qubits=model.num_vars,
        original_n=original_n,
        optimal_cost=optimal,
        mean_random_cost=mean_random,
        backends=backends,
    )


# --- deterministic file emission ---------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def instances_csv(group: ExperimentGroup) -> str:
    rows = [[r.name, r.n, r.k, r.qubits, r.original_n] for r in group.reports]
    return _csv_text(["name", "n", "k", "qubits", "original_n"], rows)


def feasibility_csv(group: ExperimentGroup) -> str:
    rows = []
    for rep in group.reports:
        for key, b in sorted(rep.backends.items()):
            rows.append([rep.name, key, 100.0 * b.feasible_shot_rate, b.failure])
    return _csv_text(["instance", "backend", "feasible_pct", "failure"], rows)


def ar_csv(group: ExperimentGroup) -> str:
    rows = []
    for rep in group.reports:
        for key, b in sorted(rep.backends.items()):
            mean_ar = (
                sum(b.ar_distribution) / len(b.ar_distribution)
                if b.ar_distribution
                else None
            )
            mean_random_ar = (
                approximation_ratio(b.optimal_cost, b.mean_random_cost)
                if b.optimal_cost > 0
                else None
            )
            rows.append([rep.name, key, b.best_shot_ar, mean_ar, mean_random_ar])
    return _csv_text(
        ["instance", "backend", "best_shot_ar", "mean_ar", "mean_random_ar"], rows
    )


def violin_csv(report: BackendReport) -> str:
    return "ar\n" + "".join(f"{ar!r}\n" for ar in report.ar_distribution)


def atomic_write(path: Path, content: str | dict) -> None:
    """Write via a temp file and rename, so readers never see a partial file.

    A dict is streamed as JSON (indent 2, sorted keys, final newline), so no
    copy of the whole text is held in memory.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as f:
        if isinstance(content, dict):
            json.dump(content, f, indent=2, sort_keys=True)
            f.write("\n")
        else:
            f.write(content)
    tmp.replace(path)


def emit(group: ExperimentGroup, out_dir) -> None:
    """Write the report files: group.json, the three CSVs and one violin CSV
    per instance and backend."""
    out = Path(out_dir)
    (out / "violin").mkdir(parents=True, exist_ok=True)
    atomic_write(out / "group.json", group.to_json_dict())
    atomic_write(out / "instances.csv", instances_csv(group))
    atomic_write(out / "feasibility.csv", feasibility_csv(group))
    atomic_write(out / "ar.csv", ar_csv(group))
    for rep in group.reports:
        for key, b in sorted(rep.backends.items()):
            atomic_write(out / "violin" / f"{rep.name}_{key}.csv", violin_csv(b))
