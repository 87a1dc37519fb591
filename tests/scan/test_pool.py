"""The one process-pool primitive: ordering, cleanup on failure, guard rails.

Every fan-out goes through :func:`repro.scan.parallel.run_pool`.  These
tests pin its contract (state first, ``(header, blob)`` back, item
order), check that no shared-memory segment outlives a failed run —
a task that raises, an ``unpack`` that raises, a worker killed with
SIGKILL — and guard against a second pool launcher or a second
transport creeping back into ``src/repro``.
"""

import ast
import datetime as dt
import io
import os
import signal
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import Observability
from repro.scan import parallel
from repro.scan.parallel import PoolError, run_pool

SHM_DIR = Path("/dev/shm")
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_REAL_COLLECT_CHUNK = parallel._collect_chunk

#: The first snapshot day of ``StudyConfig.quick``.
_QUICK_FIRST_ORDINAL = dt.date(2021, 1, 1).toordinal()


def segments():
    return {path.name for path in SHM_DIR.glob("psm_*")}


needs_shm_dir = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="segment listing needs /dev/shm"
)


def _echo(state, item):
    """Header = item + offset; blob = ``item`` repeated ``item`` times."""
    if item == state.get("fail"):
        raise RuntimeError(f"task failed on item {item}")
    return item + state["offset"], bytes([item]) * item


def _sizes(view):
    return len(view)


def _kill_first_chunk(state, task):
    _, ordinals = task
    if ordinals[0] == _QUICK_FIRST_ORDINAL:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_COLLECT_CHUNK(state, task)


class TestContract:
    def test_headers_and_blobs_in_item_order(self):
        items = [5, 1, 4, 2, 3, 6]
        obs = Observability()
        results = run_pool(
            _echo, items, {"offset": 100}, 2,
            section="echo_pool", unpack=bytes, obs=obs,
        )
        assert results == [(item + 100, bytes([item]) * item) for item in items]
        shape = obs.execution["echo_pool"]
        assert shape["tasks"] == len(items)
        assert shape["pool_workers"] == 2
        assert shape["transport_bytes"] == sum(items)

    def test_metrics_receive_transport_bytes(self):
        class Counters:
            transport_bytes = 7

        counters = Counters()
        run_pool(
            _echo, [3, 4], {"offset": 0}, 2,
            section="echo_pool", unpack=_sizes, metrics=counters,
        )
        assert counters.transport_bytes == 7 + 3 + 4


@needs_shm_dir
class TestNoLeakedSegments:
    ITEMS = list(range(1, 9))

    def test_task_raising_on_item_k(self):
        before = segments()
        with pytest.raises(RuntimeError, match="task failed on item 5"):
            run_pool(
                _echo, self.ITEMS, {"offset": 0, "fail": 5}, 2,
                section="echo_pool", unpack=bytes,
            )
        assert segments() - before == set()

    def test_unpack_raising_on_blob_k(self):
        def unpack(view):
            if len(view) == 3:
                raise ValueError("corrupt blob 3")
            return bytes(view)

        before = segments()
        with pytest.raises(ValueError, match="corrupt blob 3"):
            run_pool(
                _echo, self.ITEMS, {"offset": 0}, 2,
                section="echo_pool", unpack=unpack,
            )
        assert segments() - before == set()


@needs_shm_dir
class TestKilledWorker:
    @pytest.fixture
    def killer(self, monkeypatch):
        # Patched before the pool forks, so the worker runs the killer.
        monkeypatch.setattr(parallel, "_collect_chunk", _kill_first_chunk)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")

    def test_study_fails_with_one_line_error(self, killer, capsys):
        before = segments()
        code = main(
            ["--quick", "--seed", "1", "--workers", "2", "study"], out=io.StringIO()
        )
        assert code != 0
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("rdns-privacy: error: snapshot_pool:")
        assert segments() - before == set()

    def test_run_pool_raises_pool_error(self, killer):
        ordinals = [_QUICK_FIRST_ORDINAL + offset for offset in range(4)]
        before = segments()
        with pytest.raises(PoolError, match="^kill_pool: a pool worker died"):
            run_pool(
                parallel._collect_chunk, [(None, ordinals[:2]), (None, ordinals[2:])], None, 2,
                section="kill_pool", unpack=bytes,
            )
        assert segments() - before == set()


class TestSinglePrimitive:
    @staticmethod
    def sources():
        return {
            path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
            for path in SRC.rglob("*.py")
        }

    def test_process_pool_executor_only_in_run_pool(self):
        users = sorted(
            name for name, text in self.sources().items()
            if "ProcessPoolExecutor" in text
        )
        assert users == ["scan/parallel.py"]
        tree = ast.parse((SRC / "scan" / "parallel.py").read_text(encoding="utf-8"))
        constructors = [
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for call in ast.walk(function)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "ProcessPoolExecutor"
        ]
        assert constructors == ["run_pool"]

    def test_worker_state_private_to_parallel(self):
        users = sorted(
            name for name, text in self.sources().items() if "_WORKER_STATE" in text
        )
        assert users == ["scan/parallel.py"]

    @pytest.mark.parametrize(
        "name",
        [
            "REPRO_POOL_TRANSPORT",
            "REPRO_POOL_SPILL_DIR",
            "SPILL_DIR_ENV",
            "spill_bytes",
            "TransportStats",
            "configured_transport",
        ],
    )
    def test_removed_transport_options_stay_gone(self, name):
        assert [path for path, text in self.sources().items() if name in text] == []
