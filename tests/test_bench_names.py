"""The names the benchmark harness resolves at run time still exist.

``bench/layers.py`` wraps functions by dotted name when ``--trace``
installs it, and ``bench/server.py`` boots the query service through
``build_app`` and ``serve_app``.  A rename in ``src/`` would otherwise
surface only on the first traced benchmark run; this fails it here.
"""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS_PATH = pathlib.Path(__file__).parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()


@pytest.mark.parametrize(
    "module_name, qualname",
    [(target.module, target.qualname) for target in layers.TARGETS]
    + [(layers.SERVE_ROOT.module, layers.SERVE_ROOT.qualname)]
    + list(layers.WORKER_TASKS),
)
def test_traced_name_resolves(module_name, qualname):
    layers._resolve(module_name, qualname)


@pytest.mark.parametrize(
    "module_name, name",
    [("repro.serve.app", "build_app"), ("repro.serve.http", "serve_app")],
)
def test_server_entry_point_exists(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))
