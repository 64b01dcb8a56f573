"""Per-instance metrics and experiment-group report files.

Feasibility ratio (``feasible_shot_rate``) counts the shots that decode to
valid tours; approximation ratio is optimal cost over achieved cost (1.0 is
optimal). An AR distribution holds each distinct AR once, with its shot count:
a bitstring sampled 30 times is one value counted 30 times. Emission is
deterministic: fixed row order, repr float formatting, sorted JSON keys, "v4".
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from pathlib import Path
from typing import Iterable

import numpy as np

from . import qubo
from .instance import GtspInstance, tour_costs
from .qaoa import CellSummary, GridResult
from .qubo import QuboModel
from .sampler import Failure, SampleSet

SCHEMA_VERSION = "v4"


def approximation_ratio(optimal: float, cost: float) -> float:
    """optimal / cost; undefined (raises) for degenerate zero-cost optima."""
    if optimal <= 0:
        raise ValueError("approximation ratio undefined for optimal <= 0")
    return optimal / cost


def build_report(
    inst: GtspInstance,
    model: QuboModel,
    sample_sets: dict[str, SampleSet],
    optimal_cost: float,
    random_costs: list[float],
    original_n: int | None = None,
) -> dict:
    """One instance's report, as the JSON object ``group.json`` lists:
    ``schema``, ``instance`` (name, n, k, qubits, original_n),
    ``optimal_cost``, ``mean_random_cost`` and ``backends``, which maps each
    key, in sorted order, to its ``feasible_shot_rate``, ``ar_values`` (the
    distinct feasible-shot ARs, ascending), ``ar_counts`` (shots per value),
    ``best_shot_ar``, ``mean_solver_cost`` and ``failure``. Every value is a
    plain JSON value.

    A backend with shots but no feasible one is reported as an invalid-tour
    failure with an empty AR distribution instead of fabricated metrics.
    ``random_costs`` holds the random tours' costs; with none, the mean
    random cost is None.
    """
    backends = {}
    for key, samples in sorted(sample_sets.items()):
        failure = samples.failure.value if samples.failure else None
        weight, mean_cost, values, counts = 0, None, [], []
        if samples.failure is None and len(samples.counts):
            violations, order = qubo.decode_rows(model, inst, samples.entries)
            feasible = np.array([v is None for v in violations], dtype=bool)
            row_costs = tour_costs(inst, order[feasible])
            row_counts = samples.counts[feasible]
            weight = int(row_counts.sum())
            mean_cost = float(row_costs @ row_counts) / weight if weight else None
            if weight and optimal_cost > 0:
                ars, inverse = np.unique(optimal_cost / row_costs, return_inverse=True)
                values = ars.tolist()
                ar_counts = np.zeros(len(ars), dtype=np.int64)
                np.add.at(ar_counts, inverse, row_counts)  # exact, unlike float weights
                counts = ar_counts.tolist()
        if samples.failure is None and weight == 0:
            failure = Failure.INVALID_TOUR.value
        reads = samples.num_reads
        backends[key] = {
            "feasible_shot_rate": (weight / reads) if reads else 0.0,
            "ar_values": values,
            "ar_counts": counts,
            "best_shot_ar": values[-1] if values else None,
            "mean_solver_cost": mean_cost,
            "failure": failure,
        }
    return {
        "schema": SCHEMA_VERSION,
        "instance": {
            "name": inst.name,
            "n": inst.n,
            "k": inst.k,
            "qubits": model.num_vars,
            "original_n": original_n,
        },
        "optimal_cost": float(optimal_cost),
        "mean_random_cost": sum(random_costs) / len(random_costs) if random_costs else None,
        "backends": backends,
    }


# --- deterministic file emission ---------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def instances_csv(group: dict) -> str:
    header = ["name", "n", "k", "qubits", "original_n"]
    rows = [[rep["instance"][key] for key in header] for rep in group["instances"]]
    return _csv_text(header, rows)


def feasibility_csv(group: dict) -> str:
    rows = (
        [rep["instance"]["name"], key, 100.0 * b["feasible_shot_rate"], b["failure"]]
        for rep in group["instances"]
        for key, b in rep["backends"].items()
    )
    return _csv_text(["instance", "backend", "feasible_pct", "failure"], rows)


def ar_csv(group: dict) -> str:
    rows = []
    for rep in group["instances"]:
        optimal, mean_random = rep["optimal_cost"], rep["mean_random_cost"]
        defined = optimal > 0 and mean_random is not None
        mean_random_ar = approximation_ratio(optimal, mean_random) if defined else None
        for key, b in rep["backends"].items():
            values, counts = b["ar_values"], b["ar_counts"]
            mean_ar = sum(v * c for v, c in zip(values, counts)) / sum(counts) if values else None
            rows.append([rep["instance"]["name"], key, b["best_shot_ar"], mean_ar, mean_random_ar])
    return _csv_text(["instance", "backend", "best_shot_ar", "mean_ar", "mean_random_ar"], rows)


def violin_csv(group: dict) -> str:
    """Every AR distribution in one table, a row per distinct AR, by instance
    ``index`` (two instances of one name stay apart), backend, then AR."""
    rows = (
        [index, rep["instance"]["name"], key, ar, count]
        for index, rep in enumerate(group["instances"])
        for key, b in rep["backends"].items()
        for ar, count in zip(b["ar_values"], b["ar_counts"])
    )
    return _csv_text(["index", "instance", "backend", "ar", "count"], rows)


def grid_csv(result: GridResult) -> str:
    """One row per QAOA grid cell in search order, one column per CellSummary field."""
    names = [f.name for f in fields(CellSummary)]
    return _csv_text(names, ([getattr(cell, name) for name in names] for cell in result.cells))


def atomic_write(path: Path, content: str | dict | Iterable[str]) -> None:
    """Write via a temp file and rename, so readers never see a partial file.

    ``content`` is a str, written as it is; a dict, streamed as JSON (indent
    2, sorted keys, final newline); or an iterable of text chunks, written
    one after the other. A dict or chunks hold no copy of the whole text in
    memory.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as f:
        if isinstance(content, dict):
            json.dump(content, f, indent=2, sort_keys=True)
            f.write("\n")
        elif isinstance(content, str):
            f.write(content)
        else:
            f.writelines(content)
    tmp.replace(path)


def emit(group: dict, out_dir) -> None:
    """Write ``group``, the ``{schema, name, instances}`` object of a group's
    reports, as group.json, and the four CSVs, into ``out_dir``, creating it."""
    out = Path(out_dir)
    atomic_write(out / "group.json", group)
    atomic_write(out / "instances.csv", instances_csv(group))
    atomic_write(out / "feasibility.csv", feasibility_csv(group))
    atomic_write(out / "ar.csv", ar_csv(group))
    atomic_write(out / "violin.csv", violin_csv(group))
