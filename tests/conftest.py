"""Shared fixtures."""

import collections
import inspect
import sys
import textwrap

import pytest

from young_defined.partitions import Universe


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


@pytest.fixture
def up_masks(monkeypatch):
    """Universe.up_mask recorded: the ordinals passed to it, in order, as
    one list per name of the calling function (above, embed_poset, ...)."""
    asked = collections.defaultdict(list)
    up_mask = Universe.up_mask

    def recorded(self, i):
        asked[sys._getframe(1).f_code.co_name].append(i)
        return up_mask(self, i)
    monkeypatch.setattr(Universe, 'up_mask', recorded)
    return asked
