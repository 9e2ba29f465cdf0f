"""The mutant catalogue stays current: each mutant still patches the program and names real killers.

``tests/mutants.py`` runs the killers of each mutant, which takes minutes; this check
reads the catalogue only, so a change that moves patched code finds out in tier-1.
"""

import ast

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_and_names_defined_killers():
    problems = []
    defined = {}  # test file -> names of the test functions it defines
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: the old text occurs {count} times in {m.path}")
        if m.new == m.old:
            problems.append(f"{m.name}: the new text is the old")
        for killer in m.killers:
            path, _, test = killer.partition("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text())
                defined[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            if test.split("[")[0] not in defined[path]:
                problems.append(f"{m.name}: no test {test.split('[')[0]} in {path}")
    assert not problems, "\n".join(problems)
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
