"""Shared benchmark plumbing: job factories and table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig
from repro.core.registry import build_engine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.sim.network import TimeModel

# Materialisation scale for benchmark jobs: small enough to stay fast, big
# enough that every tensor is non-degenerate.  Timing results come from the
# *logical* byte accounting and are scale-independent.
BENCH_SCALE = 2e-4

#: The paper's four engines, in its tables' column order.
ENGINES = ("base1", "base2", "base3", "eccheck")
#: ECCheck's coding shape on the 4-node testbed (``k = m = n/2``).
PAPER_CONFIG = ECCheckConfig(k=2, m=2)


def make_testbed_job(
    model: str = "gpt2-5.3B",
    num_nodes: int = 4,
    gpus_per_node: int = 4,
    tensor_parallel: int | None = None,
    pipeline_parallel: int | None = None,
    scale: float = BENCH_SCALE,
    seed: int = 0,
    time_model: TimeModel | None = None,
) -> TrainingJob:
    """The paper's testbed: 4 nodes x 4 A100s, TP within node, PP across."""
    tp = gpus_per_node if tensor_parallel is None else tensor_parallel
    pp = num_nodes if pipeline_parallel is None else pipeline_parallel
    return TrainingJob.create(
        model=model,
        cluster=ClusterSpec(num_nodes=num_nodes, gpus_per_node=gpus_per_node),
        strategy=ParallelismSpec(tensor_parallel=tp, pipeline_parallel=pp),
        scale=scale,
        seed=seed,
        time_model=time_model,
    )


def all_engines(job: TrainingJob) -> dict[str, Any]:
    """Fresh instances of the paper's four engines on the same job."""
    return {name: build_engine(name, job, PAPER_CONFIG) for name in ENGINES}


@dataclass
class ExperimentTable:
    """Paper-style results table with ASCII rendering.

    Example:
        >>> table = ExperimentTable("Fig. X", ["model", "time"])
        >>> table.add_row(model="gpt2", time=1.25)
        >>> print(table.render())  # doctest: +SKIP
    """

    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        missing = set(self.columns) - set(values)
        if missing:
            raise ReproError(f"row missing columns {sorted(missing)}")
        self.rows.append({col: values[col] for col in self.columns})

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ReproError(f"unknown column {name!r}")
        return [row[name] for row in self.rows]

    @staticmethod
    def _format(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.001:
                return f"{value:.3e}"
            return f"{value:.3f}"
        return str(value)

    def render(self) -> str:
        cells = [[self._format(row[col]) for col in self.columns] for row in self.rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(self.columns)
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(col.ljust(w) for col, w in zip(self.columns, widths))
        lines = [f"== {self.title} ==", header, sep]
        for row in cells:
            lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)
