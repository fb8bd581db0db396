"""Every public function and class of the package has a caller.

``src/slowfeat/*.py``, ``scripts/*.py`` and ``perfbench/*.py`` are
parsed with ``ast``.  A public module-level function or class of the
package is used when its own module reads its name outside its own
definition, or another of those files reads it as an attribute or
imports it.  Tests do not count as callers: a definition that only
tests reach is a second route that no stage takes, and a finding.
"""

import ast

from source_rules import MODULES, SRC, source

ROOT = SRC.parents[1]
OTHERS = sorted([*(ROOT / "scripts").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")])


def definitions(tree):
    """The public module-level functions and classes of ``tree``."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")}


def own_uses(tree):
    """Names ``tree`` reads, each outside the definition of that name."""
    used = set()
    for top in tree.body:
        defined = getattr(top, "name", None)
        used.update(node.id for node in ast.walk(top)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id != defined)
    return used


def outside_uses(tree):
    """Names ``tree`` reads as an attribute or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unused_definitions(package, others):
    """``module.name`` of each public definition in ``package`` (module
    name to source) that no module or script of ``others`` (sources)
    names."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = {module: outside_uses(tree) for module, tree in trees.items()}
    elsewhere = set().union(*map(outside_uses, map(ast.parse, others)))
    found = []
    for module, tree in trees.items():
        used = own_uses(tree) | elsewhere
        used.update(*(r for m, r in reads.items() if m != module))
        found.extend(f"{module}.{name}"
                     for name in definitions(tree) - used)
    return sorted(found)


def test_the_check_flags_an_unused_definition():
    package = {
        "maths": """
def double(x):
    return 2 * x

def square(x):
    return x * x

def recurse(n):
    return recurse(n - 1) if n else 0

def _helper():
    return unused_in_class()

class Imported:
    pass

class Unused:
    def method(self):
        return Unused()
""",
        "stage": """
from .maths import Imported
from . import maths

def run(x):
    return maths.double(x)
""",
    }
    script = "from slowfeat import stage\nstage.run(3)\n"
    assert unused_definitions(package, [script]) == [
        "maths.Unused", "maths.recurse", "maths.square"]
    package["maths"] += "\nTABLE = {'square': square}\n"
    assert unused_definitions(package, [script]) == [
        "maths.Unused", "maths.recurse"]


def test_every_public_definition_has_a_caller():
    package = {module: source(module) for module in MODULES}
    others = [path.read_text(encoding="utf-8") for path in OTHERS]
    assert len(package) > 10 and len(others) >= 3
    assert unused_definitions(package, others) == []
