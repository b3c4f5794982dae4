"""Shared fixtures."""

import inspect
import textwrap

import pytest


@pytest.fixture
def mutant():
    """mutant(fn, old, new): a copy of fn with the one occurrence of the
    source fragment old replaced by new, compiled in a copy of fn's module
    namespace, decorators included, so its recursive calls reach the copy
    and the module itself is left untouched."""
    def build(fn, old, new):
        original = inspect.unwrap(fn)
        source = textwrap.dedent(inspect.getsource(original))
        assert source.count(old) == 1, (fn.__name__, old)
        namespace = dict(original.__globals__)
        exec(compile(source.replace(old, new),
                     inspect.getsourcefile(original), 'exec'), namespace)
        return namespace[fn.__name__]
    return build
