"""No module of the package reads another module's private names.

Every ``src/slowfeat/*.py`` is parsed with ``ast``.  A private name is
one that starts with ``_`` and is not a dunder; reading one from
another module, by ``from .x import _y`` or by an attribute ``x._y``
where ``x`` names a slowfeat module (under any alias), is a finding.
"""

import ast

import pytest

from source_rules import MODULES, findings, source


def is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def module_aliases(tree):
    """Names bound to slowfeat modules by the imports of ``tree``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module is None)
                or (node.level == 0 and node.module == "slowfeat")):
            aliases.update(a.asname or a.name for a in node.names
                           if a.name in MODULES)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "slowfeat" and len(parts) == 2 and a.asname:
                    aliases.add(a.asname)
    return aliases


def private_reads(source):
    """``(line, what)`` for each private name read from another module;
    the private names of one import are one finding."""
    aliases = module_aliases(ast.parse(source))

    def match(node):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("slowfeat")):
            names = [a.name for a in node.names if is_private(a.name)]
            return (f"import {', '.join(names)}",) if names else None
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                return (f"{owner.id}.{node.attr}",)
            if (isinstance(owner, ast.Attribute)
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id == "slowfeat"
                    and owner.attr in MODULES):
                return (f"slowfeat.{owner.attr}.{node.attr}",)

    return [(line, what) for line, _, what in findings(source, match)]


def test_the_check_finds_each_kind_of_private_read():
    source = """
from . import cli, dataio
from . import config as config_module
from .linalg import _symmetrize, sym_eig
import slowfeat.sfa
import slowfeat.features as feats

cli._derive_seed(1)
dataio._atomic_write_text("p", "")
config_module._hidden
slowfeat.sfa._CHUNK
feats._BATCH_CUBOIDS
self._cache
cli.__name__
dataio.load_bank
"""
    assert [what for _, what in private_reads(source)] == [
        "import _symmetrize", "cli._derive_seed", "dataio._atomic_write_text",
        "config_module._hidden", "slowfeat.sfa._CHUNK",
        "feats._BATCH_CUBOIDS"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_another_modules_private_names(module):
    assert private_reads(source(module)) == []
