"""Scenario-matrix DSL: declarative experiment grids + perturbations.

See :mod:`repro.scenarios.matrix` for the file format,
:mod:`repro.scenarios.fuzzbridge` for the fuzz-seed bridge, and
:mod:`repro.scenarios.runcheck` for sanitized conformance checking and
grid execution. CLI: ``python -m repro matrix {expand,check,run} FILE``.
"""

from repro.scenarios.fuzzbridge import fuzz_cells, workload_spec_for
from repro.scenarios.matrix import AXES, Cell, Matrix, load_matrix, parse_matrix
from repro.scenarios.runcheck import (
    CellCheck,
    check_cell,
    check_cells,
    identity_problems,
    run_cells,
)

__all__ = [
    "AXES",
    "Cell",
    "CellCheck",
    "Matrix",
    "check_cell",
    "check_cells",
    "fuzz_cells",
    "identity_problems",
    "load_matrix",
    "parse_matrix",
    "run_cells",
    "workload_spec_for",
]
