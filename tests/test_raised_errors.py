"""Every error the package raises is a ``SlowFeatError``.

Every ``src/slowfeat/*.py`` is parsed with ``ast``.  A ``raise`` that
names a builtin exception class, called or not, is a finding, unless it
is on the list of allowed raises, which is empty.  A bare ``raise``
re-raises what it caught and is not a finding.
"""

import ast
import builtins
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "slowfeat"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))

BUILTIN_ERRORS = {name for name, value in vars(builtins).items()
                  if isinstance(value, type)
                  and issubclass(value, BaseException)}

# (module, function, exception)
ALLOWED = set()


def builtin_raises(source):
    """``(line, function, exception)`` for each raise of a builtin
    exception; ``function`` is the innermost enclosing one, or None."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                found.append((node.lineno, function, exc.id))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found)


def test_the_check_finds_each_kind_of_builtin_raise():
    source = """
from .errors import InvalidInput

raise RuntimeError

def outer(x):
    def inner():
        raise KeyError(x)
    if x:
        raise ValueError(f"bad {x}")
    try:
        inner()
    except KeyError:
        raise
    raise InvalidInput("fine") from None
"""
    assert builtin_raises(source) == [
        (4, None, "RuntimeError"), (8, "inner", "KeyError"),
        (10, "outer", "ValueError")]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_raises_a_builtin_exception(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert [(line, function, exc)
            for line, function, exc in builtin_raises(source)
            if (module, function, exc) not in ALLOWED] == []


def test_every_allowed_raise_is_still_there():
    # an entry that no longer matches a raise would allow a new one
    for module, function, exc in ALLOWED:
        source = (SRC / f"{module}.py").read_text(encoding="utf-8")
        assert (function, exc) in {
            (f, e) for _, f, e in builtin_raises(source)}
