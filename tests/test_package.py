"""The package surface: the README's library example runs, every exported
name resolves, and the package and its metadata carry one version."""

import re
from pathlib import Path

import pollardwaves as pw

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert all(r.passed for r in namespace["reports"])
    assert namespace["q"].shape == namespace["x"].shape == (64,)


def test_every_exported_name_resolves():
    missing = [name for name in pw.__all__ if not hasattr(pw, name)]
    assert missing == []
    assert len(set(pw.__all__)) == len(pw.__all__)


def test_package_and_metadata_versions_agree():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]*)"$', project, re.MULTILINE) == [pw.__version__]
