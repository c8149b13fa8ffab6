"""scripts/mutants.py's list against the tree, without running a mutant."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutant_applies_once_and_names_live_oracles():
    """Each substitution applies exactly once to the tree, and each oracle names
    known verify scenarios or test functions that its test file still defines:
    editing the code under a mutant or deleting its killer fails here."""
    defined = {}
    for path in (ROOT / "tests").glob("test_*.py"):
        tree = ast.parse(path.read_text())
        defined[f"tests/{path.name}"] = {node.name for node in tree.body
                                         if isinstance(node, ast.FunctionDef)}
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert bool(mutant.verify) != bool(mutant.tests), mutant.name
        assert set(mutant.verify) <= set(mutants.SCENARIOS), mutant.name
        for test in mutant.tests:
            path, _, name = test.partition("::")
            assert name.partition("[")[0] in defined.get(path, ()), (mutant.name, test)
