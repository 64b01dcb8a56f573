"""Reading a finished ``gtspq bench`` run directory: quality metrics and
output checks.

Quality comes from ``report/group.json`` (best_shot_ar, feasible_shot_rate),
``report/feasibility.csv`` (the failure column) and the raw sample files
(num_reads, the shot base). ``qaoa_grid.csv`` is not read: its
feasible_shot_fraction column is empty on every bench run.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

AR_TOLERANCE = 1e-9
SAMPLING_BACKENDS = ("sa", "qaoa", "external")  # reported even where a workload skips them


@dataclass
class BackendTally:
    """Pooled over every cell of one backend in a workload."""

    cells: int = 0
    failed_cells: int = 0
    shots: int = 0
    feasible_shots: int = 0
    ar_sum: float = 0.0  # best_shot_ar summed over cells, a failed cell adding 0


@dataclass
class Tally:
    backends: dict[str, BackendTally] = field(default_factory=dict)

    def backend(self, key: str) -> BackendTally:
        return self.backends.setdefault(key, BackendTally())

    @property
    def cells(self) -> int:
        return sum(b.cells for b in self.backends.values())

    @property
    def failed_cells(self) -> int:
        return sum(b.failed_cells for b in self.backends.values())


def _raw_dirs(run_dir: Path) -> list[Path]:
    return sorted(p for p in (run_dir / "raw").iterdir() if p.is_dir())


def tally_run(tally: Tally, run_dir: Path, backends: list[str], exit_code: int, instances: int) -> None:
    """Add one invocation's cells to ``tally``. A non-zero exit counts every
    cell it attempted as failed, with no shots."""
    if exit_code != 0:
        for key in backends:
            b = tally.backend(key)
            b.cells += instances
            b.failed_cells += instances
        return
    # both files list cells in instance order, backends sorted within one
    with open(run_dir / "report" / "feasibility.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    group = json.loads((run_dir / "report" / "group.json").read_text(encoding="utf-8"))
    raw_dirs = _raw_dirs(run_dir)
    if len(raw_dirs) != len(group["instances"]):
        raise ValueError(f"{run_dir}: {len(raw_dirs)} raw dirs for {len(group['instances'])} reports")
    cells = [
        (raw_dir, rep["instance"]["name"], key, cell)
        for raw_dir, rep in zip(raw_dirs, group["instances"])
        for key, cell in sorted(rep["backends"].items())
    ]
    if len(cells) != len(rows):
        raise ValueError(f"{run_dir}: {len(rows)} feasibility rows for {len(cells)} cells")
    for (raw_dir, name, key, cell), row in zip(cells, rows):
        if (row["instance"], row["backend"]) != (name, key):
            raise ValueError(f"{run_dir}: feasibility.csv row {row} out of step with group.json")
        samples = json.loads((raw_dir / f"samples_{key}.json").read_text(encoding="utf-8"))
        b = tally.backend(key)
        b.cells += 1
        if row["failure"]:
            b.failed_cells += 1
        b.shots += samples["num_reads"]
        b.feasible_shots += round(cell["feasible_shot_rate"] * samples["num_reads"])
        b.ar_sum += cell["best_shot_ar"] or 0.0


def quality_metrics(tally: Tally) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, base). A backend the workload does not run
    reads 0 over a base of 0."""
    out = {
        "failed_cell_frac": (
            tally.failed_cells / tally.cells if tally.cells else 0.0,
            "ratio",
            f"{tally.failed_cells}/{tally.cells} cells",
        )
    }
    for key in SAMPLING_BACKENDS:
        b = tally.backends.get(key, BackendTally())
        out[f"feasible_pct.{key}"] = (
            100.0 * b.feasible_shots / b.shots if b.shots else 0.0,
            "%",
            f"{b.feasible_shots}/{b.shots} shots",
        )
        out[f"best_ar.{key}"] = (
            b.ar_sum / b.cells if b.cells else 0.0,
            "ratio",
            f"mean over {b.cells} cells, {b.failed_cells} failed counted as 0",
        )
    return out


# --- checks ----------------------------------------------------------------------


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: relative path, then content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def tree_differences(expected: Path, actual: Path) -> list[str]:
    """Files missing, extra or not byte-identical between two trees."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    want, have = files(expected), files(actual)
    diffs = [f"missing {p}" for p in sorted(want - have)]
    diffs += [f"extra {p}" for p in sorted(have - want)]
    diffs += [
        f"differs {p}"
        for p in sorted(want & have)
        if (expected / p).read_bytes() != (actual / p).read_bytes()
    ]
    return diffs


def coo_energy(coo_text: str, bits: str) -> float:
    """Energy of ``bits`` by dense evaluation of a model.coo export:
    offset + x^T Q x, with linear terms on the diagonal (x_v^2 = x_v)."""
    lines = coo_text.splitlines()
    header = lines[1].split()  # "# n_vars N offset X lambda L n N k K"
    fields = dict(zip(header[1::2], header[2::2]))
    n_vars = int(fields["n_vars"])
    q = np.zeros((n_vars, n_vars))
    for line in lines[2:]:
        u, v, c = line.split()
        q[int(u), int(v)] += float(c)
    x = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    if x.shape != (n_vars,):
        raise ValueError(f"bitstring length {len(bits)} != {n_vars}")
    x = x.astype(np.float64)
    return float(fields["offset"]) + float(x @ q @ x)


def output_errors(run_dir: Path) -> list[str]:
    """Checks on one run directory's outputs: AR bounds, exhaustive
    optimality, and best-entry energies against the exported model."""
    errors = []
    group = json.loads((run_dir / "report" / "group.json").read_text(encoding="utf-8"))
    for rep in group["instances"]:
        name = rep["instance"]["name"]
        for key, cell in rep["backends"].items():
            ar = cell["best_shot_ar"]
            if ar is not None and ar > 1.0 + AR_TOLERANCE:
                errors.append(f"{name}/{key}: best_shot_ar {ar!r} > 1")
            if key == "exhaustive" and ar != 1.0:
                errors.append(f"{name}/exhaustive: best_shot_ar {ar!r} != 1.0")
    for raw_dir in _raw_dirs(run_dir):
        coo = (raw_dir / "model.coo").read_text(encoding="utf-8")
        for path in sorted(raw_dir.glob("samples_*.json")):
            entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
            if not entries:
                continue
            best = entries[0]
            dense = coo_energy(coo, best["bits"])
            if abs(dense - best["energy"]) > 1e-9 * max(1.0, abs(dense)):
                errors.append(
                    f"{raw_dir.name}/{path.name}: best energy {best['energy']!r}, "
                    f"dense model.coo evaluation {dense!r}"
                )
    return errors
