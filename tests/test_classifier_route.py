"""One route to the classifier and its votes.

The pipeline's stages and the raw-pixel baseline train through
``pipeline.train_classifier`` and vote through ``pipeline.score``, so
the baseline's classifier settings and voting are the run's by
construction.  Every ``src/slowfeat/*.py`` is parsed with ``ast``; a use
of ``train_linear``, a call or any other read of the name, outside
``pipeline.train_classifier``, or of ``majority_vote`` or
``confusion_matrix`` outside ``pipeline.score``, is a finding.  Their
definitions and imports are not uses.
"""

import ast

import pytest

from source_rules import MODULES, findings, source

# name -> (module, function) of the one route that uses it
ROUTES = {
    "train_linear": ("pipeline", "train_classifier"),
    "majority_vote": ("pipeline", "score"),
    "confusion_matrix": ("pipeline", "score"),
}


def route_uses(source):
    """``(line, name, function)`` of each use of a name in ``ROUTES``;
    ``function`` is the innermost enclosing one, or None."""
    def match(node):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        return (name,) if name in ROUTES else None

    return sorted((line, name, function)
                  for line, function, name in findings(source, match))


def test_the_check_finds_each_kind_of_use():
    source = """
from .classify import majority_vote
from . import classify

table = {"vote": majority_vote}

def train_linear(x):
    return x

def baseline(rows, labels):
    def inner():
        return classify.confusion_matrix([], [], [])
    return classify.train_linear(rows, labels), inner()

def score(clf, matrices, labels):
    return majority_vote(matrices)
"""
    assert route_uses(source) == [
        (5, "majority_vote", None), (12, "confusion_matrix", "inner"),
        (13, "train_linear", "baseline"), (16, "majority_vote", "score")]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_pipeline_routes_train_and_vote(module):
    assert [(line, name, function)
            for line, name, function in route_uses(source(module))
            if (module, function) != ROUTES[name]] == []


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_each_route_still_uses_its_name(name):
    # a route that no longer calls its name would leave the check
    # guarding nothing
    module, function = ROUTES[name]
    assert (name, function) in {
        (n, f) for _, n, f in route_uses(source(module))}
