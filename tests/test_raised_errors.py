"""Every error the package raises is a ``SlowFeatError``.

Every ``src/slowfeat/*.py`` is parsed with ``ast``.  A ``raise`` that
names a builtin exception class, called or not, is a finding, unless it
is on the list of allowed raises, which is empty.  A bare ``raise``
re-raises what it caught and is not a finding.
"""

import ast
import builtins

import pytest

from source_rules import MODULES, findings, source

BUILTIN_ERRORS = {name for name, value in vars(builtins).items()
                  if isinstance(value, type)
                  and issubclass(value, BaseException)}

# (module, function, exception)
ALLOWED = set()


def builtin_raises(source):
    """``(line, function, exception)`` for each raise of a builtin
    exception; ``function`` is the innermost enclosing one, or None."""
    def match(node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                return (exc.id,)

    return findings(source, match)


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
    assert [(line, function, exc)
            for line, function, exc in builtin_raises(source(module))
            if (module, function, exc) not in ALLOWED] == []


def test_every_allowed_raise_is_still_there():
    # an entry that no longer matches a raise would allow a new one
    for module, function, exc in ALLOWED:
        assert (function, exc) in {
            (f, e) for _, f, e in builtin_raises(source(module))}
