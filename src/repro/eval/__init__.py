"""Countermeasure evaluation: policy × world × fault matrix runs.

The harness behind ``repro evaluate`` (and the ported ablation
benchmarks): sweep IPAM DNS-update policies across world plans and
fault profiles, run the full collection + campaign pipeline per cell,
score privacy exposure against operational utility, and emit a ranked
report plus ``results/eval_matrix.json``.  See :mod:`repro.eval.matrix`
for cell identity (and why no two cells can share a cache entry),
:mod:`repro.eval.scoring` for the score definitions and
:mod:`repro.eval.report` for the output formats.
"""

from repro.eval.matrix import (
    MatrixCell,
    MatrixSpec,
    ablation_plan,
    campus_plan,
    default_worlds,
)
from repro.eval.report import (
    MATRIX_PAYLOAD_VERSION,
    matrix_payload,
    ranked,
    render_ranked_report,
    write_matrix_json,
)
from repro.eval.runner import CellResult, MatrixResult, run_matrix
from repro.eval.scoring import CellScore, score_cell, score_from_payload

__all__ = [
    "CellResult",
    "CellScore",
    "MATRIX_PAYLOAD_VERSION",
    "MatrixCell",
    "MatrixResult",
    "MatrixSpec",
    "ablation_plan",
    "campus_plan",
    "default_worlds",
    "matrix_payload",
    "ranked",
    "render_ranked_report",
    "run_matrix",
    "score_cell",
    "score_from_payload",
    "write_matrix_json",
]
