"""One route from raw windows to slow-feature inputs.

Training, featurize and ``sfa.apply`` all project and expand through
``sfa.project_and_expand``, so a window gives the same bits in every
stage.  Every ``src/slowfeat/*.py`` is parsed with ``ast``; a use of
``quadratic_expand``, a call or any other read of the name, outside
``sfa.project_and_expand`` is a finding.  Its definition and imports
are not uses.
"""

import ast

import pytest

from source_rules import MODULES, findings, source

ROUTE = ("sfa", "project_and_expand")


def expansion_uses(source):
    """``(line, function)`` of each use of ``quadratic_expand``;
    ``function`` is the innermost enclosing one, or None."""
    return findings(source, lambda node: () if (
        isinstance(node, ast.Name) and node.id == "quadratic_expand"
        or isinstance(node, ast.Attribute)
        and node.attr == "quadratic_expand") else None)


def test_the_check_finds_each_kind_of_use():
    source = """
from .sfa import quadratic_expand
from . import sfa

table = {"expand": quadratic_expand}

def quadratic_expand(x):
    return x

def featurize(x):
    def inner():
        return sfa.quadratic_expand(x)
    return quadratic_expand(inner())

def project_and_expand(pca, x):
    return quadratic_expand(pca.transform(x))
"""
    assert expansion_uses(source) == [
        (5, None), (12, "inner"), (13, "featurize"),
        (16, "project_and_expand")]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_one_route_expands(module):
    assert [(line, function)
            for line, function in expansion_uses(source(module))
            if (module, function) != ROUTE] == []


def test_the_route_still_expands():
    # a route that no longer expands would leave the check guarding nothing
    assert [f for _, f in expansion_uses(source(ROUTE[0]))] == [ROUTE[1]]
