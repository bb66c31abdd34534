"""Shared fixtures for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper.  The
moving parts shared by all of them:

* ``bench_config`` — the experiment configuration used by the run.  The
  preset is selected with the ``FREESKETCH_BENCH_PRESET`` environment
  variable (``quick`` by default so ``pytest benchmarks/ --benchmark-only``
  finishes in a few minutes; set it to ``full`` to regenerate the
  EXPERIMENTS.md numbers).
* ``save_table`` — writes the rendered result table to
  ``benchmarks/results/<name>.txt`` and echoes it to stdout, so the numbers
  survive after the run and can be diffed between configurations.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# Make the in-tree package importable when the project is not installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.report import Table  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _selected_config() -> ExperimentConfig:
    preset = os.environ.get("FREESKETCH_BENCH_PRESET", "quick").lower()
    if preset == "full":
        return ExperimentConfig.full()
    if preset == "default":
        return ExperimentConfig()
    return ExperimentConfig.quick()


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Experiment configuration shared by every benchmark in the session."""
    return _selected_config()


@pytest.fixture(scope="session")
def save_table():
    """Return a helper that persists a result table under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _save(name: str, table: Table) -> Table:
        rendered = table.render()
        (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")
        table.to_csv(RESULTS_DIR / f"{name}.csv")
        print(f"\n{rendered}\n")
        return table

    return _save
