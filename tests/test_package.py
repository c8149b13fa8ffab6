"""The package surface: the README's library example runs, nothing after the
solve takes a Stratification, every exported name resolves, every raise is one
of the two error types, the solve layer's records are built positionally, no
module reads another's private names, no command loads numpy.random, and the
package and its metadata carry one version."""

import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pollardwaves as pw
from pollardwaves import flowfield, verify

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert all(r.passed for r in namespace["reports"])
    assert namespace["x"].shape == (64,)


def test_nothing_after_the_solve_takes_a_stratification():
    """Field evaluation and verification read rho0, rho_plus and g from the
    WaveParameters they are given: no public function or method of flowfield
    or verify takes a Stratification."""
    takers = []
    for module in (flowfield, verify):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for member, fn in members:
                if not callable(fn) or member.startswith("_"):
                    continue
                params = inspect.signature(fn).parameters.values()
                if any(p.name == "strat" or p.annotation is pw.Stratification for p in params):
                    takers.append(f"{name}.{member}".rstrip("."))
    assert takers == []


def test_every_exported_name_resolves():
    missing = [name for name in pw.__all__ if not hasattr(pw, name)]
    assert missing == []
    assert len(set(pw.__all__)) == len(pw.__all__)


def test_every_raise_is_one_of_the_two_error_types():
    """One error type per CLI exit code: each raise in the package names
    InputError (exit 2) or NumericError (exit 3), and errors.py defines those
    two and their base class, nothing else."""
    package = Path(pw.__file__).parent
    others = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) not in ("InputError", "NumericError"):
                    others.append(f"{path.name}:{node.lineno}")
    assert others == []
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    assert classes == ["PollardWaveError", "InputError", "NumericError"]


def test_solve_records_are_built_positionally():
    """The solve layer builds its records with one positional argument per
    field, in field order, and no keyword or ** (matching the 15 keywords of a
    WaveParameters took about 0.7 us, of a configured solve's 10 us).  Every
    such construction in the package is checked, and each record is built."""
    records = {cls.__name__: len(dataclasses.fields(cls)) for cls in
               (pw.WaveParameters, pw.NondimDispersion, pw.Site, pw.Stratification)}
    package = Path(pw.__file__).parent
    built, bad = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in records:
                built.add(name)
                if (node.keywords or len(node.args) != records[name]
                        or any(isinstance(arg, ast.Starred) for arg in node.args)):
                    bad.append(f"{path.name}:{node.lineno} {name}")
    assert bad == []
    assert built == set(records)


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_modules_read_only_each_others_public_names():
    """No package module reads another's _-prefixed name, by import or as an
    attribute of an imported module: a private helper serves its own module.
    And NondimDispersion, which carries the (site, strat, k) its k was admitted
    at, is built only inside nondimensionalize, the one wavenumber gate."""
    package = Path(pw.__file__).parent
    reads, constructions = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # names bound to package modules by "from . import ..."
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:
                    modules.update(alias.asname or alias.name for alias in node.names)
                else:
                    reads += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names if is_private(alias.name)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and is_private(node.attr)):
                reads.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and "NondimDispersion" in
                        (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                    constructions.append((path.name, getattr(top, "name", None)))
    assert reads == []
    assert constructions == [("dispersion.py", "nondimensionalize")]


NO_RANDOM_SCRIPT = """
import contextlib, io, json, sys
from pollardwaves import cli
seen = []
for command in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--out", f"{sys.argv[1]}/{command}.out"])
    seen.append([command, code, "numpy.random" in sys.modules])
print(json.dumps(seen))
"""


def test_no_command_loads_numpy_random(tmp_path):
    """numpy imports numpy.random on first use, and no command uses it: the
    verifier draws its samples from random.Random.  One fresh interpreter runs
    every command, and numpy.random is absent after each."""
    commands = ["dispersion", "trajectory", "profile", "field", "verify"]
    result = subprocess.run(
        [sys.executable, "-c", NO_RANDOM_SCRIPT, str(tmp_path), *commands],
        env={**os.environ, "PYTHONPATH": str(Path(pw.__file__).parent.parent)},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[command, 0, False] for command in commands]


def test_package_and_metadata_versions_agree():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]*)"$', project, re.MULTILINE) == [pw.__version__]
