"""Serial and parallel matrix sweeps are byte-identical.

Cells fan out over one process pool (``run_pool``); since a
cell is scored from nothing but its own plan, windows and caches, and
results re-order by cell index, worker count must never change a byte
of the report or the JSON payload.
"""

import json

from repro.eval import matrix_payload, render_ranked_report, run_matrix
from repro.obs import Observability


class TestParallelIdentity:
    def test_parallel_matches_serial(self, campus_spec, campus_result):
        parallel = run_matrix(campus_spec, workers=2)
        assert parallel.workers == 2
        assert render_ranked_report(parallel) == render_ranked_report(campus_result)
        serial_payload = matrix_payload(campus_result)
        parallel_payload = matrix_payload(parallel)
        assert json.dumps(parallel_payload, sort_keys=True) == json.dumps(
            serial_payload, sort_keys=True
        )

    def test_results_follow_sweep_order(self, campus_spec, campus_result):
        assert [r.cell.index for r in campus_result.results] == [
            cell.index for cell in campus_spec.cells()
        ]

    def test_counters_deterministic_across_worker_counts(self, campus_spec):
        def eval_counters(workers):
            obs = Observability()
            run_matrix(campus_spec, workers=workers, obs=obs)
            counters = obs.manifest().deterministic_payload()["metrics"]["counters"]
            return json.dumps(
                {
                    name: value
                    for name, value in counters.items()
                    if name.startswith("eval_")
                },
                sort_keys=True,
            )

        serial = eval_counters(1)
        assert "eval_cells_total" in serial
        assert eval_counters(2) == serial
