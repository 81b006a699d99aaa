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
import json, sys
import sta_otto
from sta_otto import cli
cli.load_config(None)
codes = [cli.main(["protocol-dump", "--tau", "1", "--out", sys.argv[1]]),
         cli.main(["sweep", sys.argv[2], "--out", sys.argv[3]])]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] in ("numpy", "scipy"))]))
"""


def test_no_numpy_or_scipy_on_import_path(tmp_path):
    # numpy and scipy cost most of the start-up time; the import, the
    # config and every command path that solves nothing must load neither
    cfg = tmp_path / "small.cfg"
    cfg.write_text("tau_count = 2\n")
    env = {k: v for k, v in os.environ.items() if k != "STA_OTTO_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_SCRIPT,
         str(tmp_path / "dump.csv"), str(cfg),
         str(tmp_path / "no" / "such" / "dir.csv")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 2], proc.stderr
    assert loaded == []


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
