"""The import graph: a command loads only the modules it runs.

Package ``__init__``s are lazy re-export maps and CLI handlers import
their own subsystem (DESIGN.md section 5).  The module-set checks run
in a fresh interpreter, because in-process tests share every module an
earlier test imported.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).parents[1])

PACKAGES = [
    "repro", "repro.baselines", "repro.cache", "repro.core", "repro.eval",
    "repro.faults", "repro.hmc", "repro.isa", "repro.node", "repro.obs",
    "repro.sim", "repro.trace", "repro.workloads",
]


def _fresh(code: str):
    """Run ``code`` in a new interpreter; it must print one JSON line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _modules_after(statement: str):
    dump = "import json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return _fresh(f"{statement}\n{dump}")


def _offenders(modules, prefixes):
    """``modules`` that are one of ``prefixes`` or inside one of them."""
    inside = tuple(p + "." for p in prefixes)
    return [m for m in modules if m in prefixes or m.startswith(inside)]


def test_cli_import_loads_no_subsystem():
    modules = _modules_after("import repro.cli")
    ours = [m for m in modules if m.split(".")[0] == "repro"]
    assert len(ours) <= 5, ours
    assert not _offenders(modules, ["numpy", "multiprocessing"])
    assert not _offenders(
        modules, ["repro.eval.experiments", "repro.node", "repro.sim"]
    )


def test_runner_import_skips_the_sweep_and_node_layers():
    modules = _modules_after("from repro.eval import runner")
    ours = [m for m in modules if m.split(".")[0] == "repro"]
    assert len(ours) <= 65, len(ours)
    assert not _offenders(
        modules,
        [
            "repro.eval.experiments", "repro.eval.sweeps", "repro.eval.parallel",
            "repro.node", "repro.cache", "repro.isa",
        ],
    )


def test_serial_runs_import_nothing_while_they_run():
    """Imports belong to set-up, not to the timed simulation."""
    new = _fresh(
        """
import json, sys
from repro.eval.runner import numa_streams
from repro.node.node import Node
from repro.node.system import NUMASystem

node = Node(numa_streams("IS", 1, threads=2, ops_per_thread=40)[0])
system = NUMASystem(numa_streams("GUPS", 2, threads=2, ops_per_thread=40))
before = set(sys.modules)
node.run()
after_node = set(sys.modules)
system.run()
print(json.dumps({
    "node": sorted(after_node - before),
    "system": sorted(set(sys.modules) - after_node),
}))
"""
    )
    assert new == {"node": [], "system": []}


def test_workload_registry_loads_no_numpy():
    modules = _modules_after("import repro.workloads.registry")
    assert not _offenders(modules, ["numpy"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "SG", "--ops", "200"],
        ["run", "IS", "--ops", "200"],
        ["run", "GUPS", "--nodes", "4", "--threads", "2", "--ops", "100"],
    ],
)
def test_non_graph_runs_load_no_numpy(argv):
    """Thread streams draw from ``repro.workloads.rng``, not numpy."""
    modules = _modules_after(
        f"from repro.cli import main\nassert main({argv!r}) == 0"
    )
    assert not _offenders(modules, ["numpy"])


def test_graph_benchmark_loads_numpy_and_runs():
    modules = _modules_after(
        "from repro.workloads.registry import make\n"
        'assert len(make("BFS").generate(threads=2, ops_per_thread=50)) == 100'
    )
    assert "numpy" in modules


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    pkg = importlib.import_module(name)
    missing = [n for n in pkg.__all__ if getattr(pkg, n, None) is None]
    assert not missing
    assert set(pkg.__all__) <= set(dir(pkg))
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_name")


def test_star_import_of_the_top_package():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_every_submodule_imports():
    """No module is left broken because no command happens to load it."""
    names = [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    assert len(names) > len(PACKAGES)
    for name in names:
        importlib.import_module(name)
