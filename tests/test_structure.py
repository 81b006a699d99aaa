"""Module boundaries of the package itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import sta_otto

PACKAGE = Path(sta_otto.__file__).parent


def test_no_private_imports_between_modules():
    # a private name needed by a sibling module means a decision with two
    # owners: move it behind a public function of one module instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith(
                "sta_otto")
            found += [f"{path.name}: from {node.module} import {a.name}"
                      for a in node.names
                      if internal and a.name.startswith("_")
                      and not a.name.endswith("__")]
    assert not found, found


_IMPORT_PATH_SCRIPT = """
import sys
bare = set(sys.modules)
from sta_otto import cli
cli.load_config(sys.argv[2])
setup = sorted(set(sys.modules) - bare)
import json
import sta_otto
cli.load_config(None)
assert len(sta_otto.tau_grid(cli.load_config(sys.argv[2]))) == 2
codes = [cli.main(["protocol-dump", "--tau", "1", "--out", sys.argv[1]]),
         cli.main(["sweep", sys.argv[2], "--out", sys.argv[3]]),
         cli.main(["cycle", sys.argv[4], "--tau", "1"]),
         cli.main(["sweep", sys.argv[4], "--out", sys.argv[1]])]
print(json.dumps([codes, setup, sorted(m for m in sys.modules
                                       if m.split(".")[0] in ("numpy",
                                                              "scipy"))]))
"""


def test_no_numpy_or_scipy_on_import_path(tmp_path):
    # numpy and scipy cost most of the start-up time; the import, the
    # config, the log tau grid and every command path that solves nothing
    # must load neither, an absurd bath (refused when the config is
    # built) included.  The set-up path, importing the CLI and loading a
    # config file, loads nothing beyond the standard library and the
    # package itself
    cfg = tmp_path / "small.cfg"
    cfg.write_text("tau_count = 2\n")
    absurd = tmp_path / "absurd.cfg"
    absurd.write_text("beta2 = 1e-100\n")
    env = {k: v for k, v in os.environ.items() if k != "STA_OTTO_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_SCRIPT,
         str(tmp_path / "dump.csv"), str(cfg),
         str(tmp_path / "no" / "such" / "dir.csv"), str(absurd)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, setup, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 2, 2, 2], proc.stderr
    assert loaded == []
    assert "sta_otto.cli" in setup
    assert [m for m in setup if m.split(".")[0] != "sta_otto"
            and m.split(".")[0] not in sys.stdlib_module_names] == []


def test_no_module_imports_numpy():
    # numpy arrives only with scipy, at a routine that calls scipy; no
    # module of the package imports it itself, at any level
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "numpy"]
    assert not found, found


def _enclosing_functions(tree: ast.AST) -> dict:
    """node -> name of the function around it, or '<module>'."""
    scope = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            scope[child] = (node.name if isinstance(node, ast.FunctionDef)
                            else scope.get(node, "<module>"))
    return scope


def test_scipy_only_integrates():
    # scipy is imported where it integrates and nowhere else: solve_ivp
    # for every ODE and quad for the shortcut cost, each inside the one
    # function that calls it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.stem}.{scope[node]}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert sorted(found) == [
        "cost.sa_cost_time_average: scipy.integrate.quad",
        "dynamics._integrate: scipy.integrate.solve_ivp"]


@pytest.mark.parametrize("module", ["dynamics", "cost"])
def test_solvers_do_not_read_the_config(module):
    # the solvers take a protocol, times and a thermal start, and run
    # at their own fixed tolerances; nothing in them reads EngineConfig
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module == "config" and node.level == 1
                  or node.module == "sta_otto.config")]
    assert not found, found


def test_star_import_binds_no_modules():
    # __all__ lists the public API; the submodules that the package's own
    # imports bind are reached as sta_otto.<name>, not star-imported
    assert not [name for name in sta_otto.__all__
                if isinstance(getattr(sta_otto, name), ModuleType)]


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_has_one_owner():
    # pyproject.toml reads the version from the package, so a bump of
    # __version__ (printed in every CSV manifest) is the only bump
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    project = read_configuration(str(pyproject), expand=True)["project"]
    assert project["version"] == sta_otto.__version__


def test_occupation_factors_have_one_owner():
    # coth and csch of beta hbar omega / 2 are computed by the thermal
    # state (strokes) alone, from expm1; every other module reads them
    # from a state
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(
                fn, "attr", None)
            if name in ("coth", "csch", "expm1"):
                found.append(f"{path.name}: {name}()")
    assert found == ["strokes.py: expm1()"], found


def test_one_production_solve_and_run_cycle_never_reads_the_series():
    # compression_q_star_excess holds cycle's one call of each production
    # route, solve_linear_pair (DOP853) and magnus_pair; the sudden-side
    # series only models Q* in the root searches, so no function that
    # run_cycle reaches inside cycle names it.  q_star_excess is not the
    # series: it is the production Q* formula
    tree = ast.parse((PACKAGE / "cycle.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    for route in ("solve_linear_pair", "magnus_pair"):
        holders = [name for name, node in functions.items()
                   for call in ast.walk(node) if isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Name)
                   and call.func.id == route]
        assert holders == ["compression_q_star_excess"], route
    names = {name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
             for name, node in functions.items()}
    reached, todo = set(), ["run_cycle"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in names[name] if n in functions]
    series = {"sudden_pair_series", "series_pair_state", "_sudden_shape"}
    assert "compression_q_star_excess" in reached
    assert not [(f, names[f] & series) for f in sorted(reached)
                if names[f] & series]


def test_one_config_reader():
    # a key = value file and a result file's manifest are read by one
    # function: every other open() in the package writes
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            mode = modes[0].value if modes else "r"
            if "r" in mode or "+" in mode:
                readers.append(f"{path.stem}.{scope[node]}")
    assert readers == ["cli.load_config"]
