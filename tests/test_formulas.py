"""Formula language: parser, printer, classification, and the truncated
evaluator (checked against a deliberately naive interpreter)."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from young_defined import formulas as F
from young_defined import harness
from young_defined import partitions as P
from young_defined.catalog import is_rectangular, is_total, is_trivial
from young_defined.partitions import (EMPTY, ResourceLimit, Universe,
                                      bit_cache_bytes, conjugate,
                                      enumerate_universe, leq, lower_covers,
                                      parse_partition, render, upper_covers)

p = parse_partition
UNI6 = enumerate_universe(6)

COVER = "x <= y & x != y & forall z (x <= z & z <= y -> x = z | z = y)"


# --- parsing

def test_parse_cover_shape():
    f = F.parse(COVER)
    assert isinstance(f, F.And)
    assert isinstance(f.right, F.Forall) and f.right.var == 'z'
    assert isinstance(f.left.right, F.Not)
    assert F.free_vars(f) == {'x', 'y'}


def test_parse_prelude_constants():
    f = F.parse("const c = 2[2]+[1];\nc <= x")
    assert isinstance(f.left, F.Const)
    assert f.left.value == p('(2,2,1)')
    assert F.constants_of(f) == {'c': p('(2,2,1)')}
    assert F.free_vars(f) == {'x'}


def test_comments_and_blank_lines():
    f = F.parse("# heading\nconst c = [1]; # tail comment\n\nx <= c # more\n")
    assert f == F.Leq(F.Var('x'), F.Const('c', p('[1]')))


def test_precedence_and_associativity():
    f = F.parse("x = x | x = x & x != x -> x = x <-> x = x")
    # <-> binds loosest, then ->, then |, then &
    assert isinstance(f, F.Iff)
    assert isinstance(f.left, F.Implies)
    assert isinstance(f.left.left, F.Or)
    assert isinstance(f.left.left.right, F.And)
    g = F.parse("x = x -> x = x -> x != x")
    assert isinstance(g.right, F.Implies)            # right associative
    h = F.parse("x = x <-> x = x <-> x = x")
    assert isinstance(h.left, F.Iff)                 # left associative


def test_negation_binds_one_atom():
    f = F.parse("!x <= y & x = y")
    assert isinstance(f, F.And)
    assert isinstance(f.left, F.Not)
    assert isinstance(f.left.body, F.Leq)


def test_parse_errors_carry_positions():
    with pytest.raises(F.ParseError) as info:
        F.parse("forall x (x <= )")
    assert info.value.line == 1 and info.value.col == 16
    with pytest.raises(F.ParseError):
        F.parse("x <= y extra")
    with pytest.raises(F.ParseError):
        F.parse("x < y")
    with pytest.raises(F.ParseError):
        F.parse("")
    with pytest.raises(F.ParseError):
        F.parse("const c = [nope];\nx <= c")
    with pytest.raises(F.ParseError):
        F.parse("const c = [1];\nforall c (c <= x)")
    with pytest.raises(F.ParseError, match="expected '\\(', found 'x'"):
        F.parse("forall x x <= y")
    with pytest.raises(F.ParseError, match='expected <=, = or != after a term'):
        F.parse("x y")


@pytest.mark.parametrize('text, message, line, col', [
    ('const c = [1];\nconst c = [2];\nc <= x', "'c' is declared twice", 2, 7),
    ('const forall = [1];\nx <= x', "'forall' is a keyword", 1, 7),
    ('const exists = [1];\nx <= x', "'exists' is a keyword", 1, 7),
    ('const c = [1];\n  const  const = [1];\nx <= x', "'const' is a keyword",
     2, 10),
])
def test_prelude_refuses_a_second_declaration_or_a_keyword(text, message,
                                                           line, col):
    with pytest.raises(F.ParseError, match=message) as info:
        F.parse(text)
    assert (info.value.line, info.value.col) == (line, col)


@pytest.mark.parametrize('keyword', ['forall', 'exists', 'const'])
def test_a_keyword_is_not_a_bound_variable(keyword):
    with pytest.raises(F.ParseError,
                       match="expected a variable name after 'exists'") as info:
        F.parse('exists  %s (x = x)' % keyword)
    assert (info.value.line, info.value.col) == (1, 9)


@pytest.mark.parametrize('text', [
    '(' * 3000 + 'x <= x' + ')' * 3000,
    '!' * 3000 + 'x <= x',
    'forall y (' * 3000 + 'x <= y' + ')' * 3000,
    'x <= x -> ' * 3000 + 'x <= x',
    ' & '.join(['x <= x'] * 3000),
], ids=['parentheses', 'negations', 'quantifiers', 'implications', 'conjunctions'])
def test_parse_refuses_deep_nesting(text):
    with pytest.raises(F.ParseError, match='nested deeper'):
        F.parse(text)


@pytest.mark.parametrize('words', [
    ('forall',), ('exists',), ('forall', 'exists'), ('exists', 'forall'),
], ids=['forall', 'exists', 'forall-exists', 'exists-forall'])
def test_nesting_up_to_the_limit_parses_and_evaluates(words):
    # an exists is compiled as !forall y (phi -> false), which adds stack
    # frames at each level, so a chain of them runs through both entries
    depth = F.MAX_NESTING - 2        # the innermost atom and its terms
    prefix = ''.join('%s y%d (' % (words[i % len(words)], i)
                     for i in range(depth))
    f = F.parse(prefix + 'x <= y%d' % (depth - 1) + ')' * depth)
    assert f.height == F.MAX_NESTING
    # only the innermost quantifier binds a variable that occurs
    innermost = words[(depth - 1) % len(words)]
    xs = {q for q in UNI6.elements if q.card <= 3}
    want = {EMPTY} if innermost == 'forall' else xs
    config = F.EvalConfig(3)
    assert F.defined_set(f, 'x', UNI6, config) == want
    for x in (EMPTY, p('[1]'), p('[2]+[1]')):
        assert F.evaluate(f, {'x': x}, UNI6, config) == (x in want)
    assert F.parse('(' * F.MAX_NESTING + 'x <= x' + ')' * F.MAX_NESTING) \
        == F.parse('x <= x')


# --- printing

names = st.sampled_from(['x', 'y', 'z'])
consts = st.sampled_from([('c1', p('[1]')), ('c2', p('(2,1)'))])
atom_kinds = st.sampled_from([F.Leq, F.Eq, lambda a, b: F.Not(F.Eq(a, b))])


def _terms(variables):
    return st.one_of(st.sampled_from(variables).map(F.Var),
                     consts.map(lambda nv: F.Const(*nv)))


def _atoms_over(variables):
    return st.builds(lambda kind, a, b: kind(a, b),
                     atom_kinds, _terms(variables), _terms(variables))


atoms = _atoms_over(['x', 'y', 'z'])


def _wrap(children):
    binary = st.builds(
        lambda kind, a, b: kind(a, b),
        st.sampled_from([F.And, F.Or, F.Implies, F.Iff]), children, children)
    return st.one_of(
        children.map(F.Not),
        binary,
        st.builds(lambda v, b: F.Forall(v, b), names, children),
        st.builds(lambda v, b: F.Exists(v, b), names, children))


formula_trees = st.recursive(atoms, _wrap, max_leaves=12)
wide_formula_trees = st.recursive(atoms, _wrap, max_leaves=20)


@given(formula_trees)
def test_print_parse_roundtrip(f):
    g = F.parse(F.print_file(f))
    assert g == f and hash(g) == hash(f)


def test_node_shape():
    # fields are set in order; classes of one shape never compare equal
    a, b = F.Var('x'), F.Leq(F.Var('x'), F.Var('y'))
    for one, other in ((F.Leq(a, a), F.Eq(a, a)), (F.And(b, b), F.Or(b, b)),
                       (F.Exists('y', b), F.Forall('y', b))):
        assert one != other and one.children() == other.children()
    assert F.Forall('y', b).var == 'y' and F.Leq(a, b).right is b
    assert F.Const('c', EMPTY).children() == []
    for make, values in ((F.Var, ()), (F.Not, (b, b)), (F.Forall, ('y',))):
        with pytest.raises(TypeError):
            make(*values)
    with pytest.raises(TypeError):
        F.free_vars('x')


def _free_walk(f):
    if isinstance(f, F.Var):
        return {f.name}
    names = set().union(*map(_free_walk, f.children()))
    return names - {f.var} if isinstance(f, (F.Exists, F.Forall)) else names


def _height_walk(f):
    return 1 + max(map(_height_walk, f.children()), default=0)


@given(formula_trees)
def test_each_node_records_its_free_variables_and_height(f):
    nodes = [f]
    for node in nodes:      # grows as the walk goes: every node of f
        assert node.free == _free_walk(node)
        assert isinstance(node.free, frozenset)
        assert node.height == _height_walk(node)
        nodes.extend(node.children())
    assert F.free_vars(f) == f.free


def test_print_minimal_parentheses():
    f = F.parse("x <= y & (x = y | y <= x)")
    assert F.print_formula(f) == "x <= y & (x = y | y <= x)"
    g = F.parse("(x <= y & x = y) | y <= x")
    assert F.print_formula(g) == "x <= y & x = y | y <= x"
    assert F.parse(F.print_formula(g)) == g
    h = F.parse(COVER)
    assert F.print_formula(h) == COVER


# --- classification

def test_classify_examples():
    assert str(F.prenex_classify(F.parse(COVER))) == 'Pi1'
    assert str(F.prenex_classify(F.parse("x <= y & x != y"))) == 'Delta0'
    assert str(F.prenex_classify(F.parse("forall y (x <= y)"))) == 'Pi1'
    assert str(F.prenex_classify(F.parse("exists y (y <= x)"))) == 'Sigma1'
    assert str(F.prenex_classify(
        F.parse("exists u (forall v (u <= v | v <= x))"))) == 'Sigma2'
    # an implication hides a quantifier polarity flip
    assert str(F.prenex_classify(
        F.parse("forall u (exists v (u <= v) -> x <= u)"))) == 'Pi1'


def test_classify_like_kind_blocks_merge():
    f = F.parse("forall u (x <= u) & forall v (v <= x)")
    assert str(F.prenex_classify(f)) == 'Pi1'
    g = F.parse("forall u (x <= u) & exists v (v <= x)")
    assert str(F.prenex_classify(g)) == 'Delta2'


def test_classify_greatest_element_schema():
    """A Pi1 membership condition, a bound, and a universally quantified
    maximality clause: the whole lands in Pi2."""
    psi = ("(c <= %s & c != %s & forall z (c <= z & z <= %s -> z = c | z = %s))")
    text = "const c = 2[1];\nconst b = [3]+[1];\n" \
        + psi % ('x', 'x', 'x', 'x') \
        + " & x <= b & forall y (" + psi % ('y', 'y', 'y', 'y') \
        + " & y <= b -> y <= x)"
    assert str(F.prenex_classify(F.parse(text))) == 'Pi2'


@given(formula_trees)
def test_classification_ignores_double_negation(f):
    assert F.prenex_classify(F.Not(F.Not(f))) == F.prenex_classify(f)


def _dual(name):
    """A class with Sigma and Pi swapped; Delta is its own dual."""
    for a, b in (('Sigma', 'Pi'), ('Pi', 'Sigma')):
        if name.startswith(a):
            return b + name[len(a):]
    return name


@given(formula_trees)
def test_classification_of_a_negation_is_dual(f):
    assert F.prenex_classify(F.Not(f)) == _dual(F.prenex_classify(f))


@given(formula_trees, formula_trees)
def test_implication_classifies_as_its_disjunction(f, g):
    assert F.prenex_classify(F.Implies(f, g)) \
        == F.prenex_classify(F.Or(F.Not(f), g))


@given(formula_trees, formula_trees)
def test_equivalence_classifies_as_its_two_implications(f, g):
    assert F.prenex_classify(F.Iff(f, g)) == F.prenex_classify(
        F.And(F.Or(F.Not(f), g), F.Or(F.Not(g), f)))


@given(formula_trees)
def test_quantifier_free_is_delta_0(f):
    if not any(isinstance(n, (F.Exists, F.Forall)) for n in _walk(f)):
        assert str(F.prenex_classify(f)) == 'Delta0'


def _walk(f):
    yield f
    for field in f._fields:
        child = getattr(f, field)
        if isinstance(child, F.Node):
            yield from _walk(child)


# --- evaluation against a naive interpreter

def naive_eval(f, env, elements):
    if isinstance(f, F.Leq):
        return leq(_value(f.left, env), _value(f.right, env))
    if isinstance(f, F.Eq):
        return _value(f.left, env) == _value(f.right, env)
    if isinstance(f, F.Not):
        return not naive_eval(f.body, env, elements)
    if isinstance(f, F.And):
        return naive_eval(f.left, env, elements) and naive_eval(f.right, env, elements)
    if isinstance(f, F.Or):
        return naive_eval(f.left, env, elements) or naive_eval(f.right, env, elements)
    if isinstance(f, F.Implies):
        return (not naive_eval(f.left, env, elements)
                or naive_eval(f.right, env, elements))
    if isinstance(f, F.Iff):
        return naive_eval(f.left, env, elements) == naive_eval(f.right, env, elements)
    if isinstance(f, F.Forall):
        return all(naive_eval(f.body, dict(env, **{f.var: u}), elements)
                   for u in elements)
    if isinstance(f, F.Exists):
        return any(naive_eval(f.body, dict(env, **{f.var: u}), elements)
                   for u in elements)
    raise TypeError(f)


def _value(term, env):
    if isinstance(term, F.Const):
        return term.value
    return env[term.name]


@settings(max_examples=60, deadline=None)
@given(formula_trees, st.integers(0, 3))
def test_evaluator_matches_naive_interpreter(f, slack):
    config = F.EvalConfig(3, slack)
    universe = enumerate_universe(3 + slack)
    elements = universe.elements
    candidates = elements[:universe.ordinal_cutoff(3)]
    free = sorted(F.free_vars(f))
    compiled = F.compile_formula(f, universe, config)
    for assignment in _assignments(free, candidates):
        assert compiled.run(dict(assignment)) \
            == naive_eval(f, assignment, elements)


@settings(max_examples=60, deadline=None)
@given(wide_formula_trees, st.integers(0, 2))
def test_row_evaluation_matches_naive_interpreter(f, slack):
    """defined_relation sweeps the last free variable as one bit row, a
    different entry into the evaluator than run()."""
    config = F.EvalConfig(2, slack)
    universe = enumerate_universe(2 + slack)
    candidates = universe.elements[:universe.ordinal_cutoff(2)]
    free = sorted(F.free_vars(f))
    want = {tuple(a[v] for v in free) for a in _assignments(free, candidates)
            if naive_eval(f, a, universe.elements)}
    assert F.defined_relation(f, tuple(free), universe, config) == want
    compiled = F.compile_formula(f, universe, config)
    for assignment in _assignments(free, candidates):
        assert compiled.run(dict(assignment)) \
            == (tuple(assignment[v] for v in free) in want)


@settings(max_examples=60, deadline=None)
@given(formula_trees, formula_trees)
def test_implication_evaluates_as_its_disjunction(f, g):
    """a -> b has its own closure, which asks b only where a holds."""
    universe = enumerate_universe(3)
    names = tuple(sorted(F.free_vars(F.And(f, g))))
    for slack in (0, 1):
        config = F.EvalConfig(2, slack)
        assert F.defined_relation(F.Implies(f, g), names, universe, config) \
            == F.defined_relation(F.Or(F.Not(f), g), names, universe, config)


def _agrees_with_naive(text, max_card=3, slack=2):
    """Check run() and defined_relation() against naive_eval everywhere."""
    f = F.parse(text)
    universe = enumerate_universe(max_card + slack)
    config = F.EvalConfig(max_card, slack)
    candidates = universe.elements[:universe.ordinal_cutoff(max_card)]
    free = sorted(F.free_vars(f))
    compiled = F.compile_formula(f, universe, config)
    want = set()
    for assignment in _assignments(free, candidates):
        truth = naive_eval(f, assignment, universe.elements)
        assert compiled.run(assignment) == truth, assignment
        if truth:
            want.add(tuple(assignment[v] for v in free))
    assert F.defined_relation(f, tuple(free), universe, config) == want
    return want


def test_shadowed_bound_variable():
    # the inner y is bound by exists; the last y <= x is the outer one
    got = _agrees_with_naive("forall y (exists y (y <= x) & y <= x)")
    assert got == set()
    assert _agrees_with_naive("exists y (forall y (x <= y) & y = x)") \
        == {(EMPTY,)}
    # renaming y to z in the first forall w must stop at exists y, or it
    # would share a row with the second, which is true everywhere
    assert _agrees_with_naive(
        "forall y (forall z (y = z & y <= x -> (forall w (exists y (y = w) "
        "-> y <= w) <-> forall w (exists y (z = w) -> z <= w))))") \
        == {(EMPTY,)}


def test_alpha_equivalent_subformulas():
    # the two cover tests of rectangular.fol, alike but for the names of
    # their free variables, each filling rows of its own; then one cover
    # test with its free variables in three roles; then two foralls of
    # one shape with the row variable on opposite sides
    cover = "({0} <= {1} & {0} != {1} & forall w ({0} <= w & w <= {1} -> w = {0} | w = {1}))"
    _agrees_with_naive("forall y (forall z (%s & %s -> y = z))"
                       % (cover.format('y', 'x'), cover.format('z', 'x')))
    _agrees_with_naive("exists y (%s & exists v (%s & %s))"
                       % (cover.format('y', 'x'), cover.format('x', 'v'),
                          cover.format('y', 'v')), slack=1)
    _agrees_with_naive("forall y (forall u (u <= y -> u <= x) <-> "
                       "forall w (w <= x -> w <= y))")


def test_constant_outside_the_universe_in_a_nested_quantifier():
    text = ("const big = [9]+[9];\nforall y (exists z (z <= big & y <= z "
            "& !(big <= z)) -> y <= x | x <= y)")
    _agrees_with_naive(text)
    f = F.parse(text)
    for outside in (p('[9]+[9]'), p('[9]+[8]')):
        assert F.evaluate(f, {'x': outside}, UNI6, F.EvalConfig(5, 1)) \
            == naive_eval(f, {'x': outside}, UNI6.elements)


def test_rectangular_corpus_file_at_bound_10():
    f = F.parse(F.corpus()['rectangular'])
    universe = enumerate_universe(13)
    want = {q for q in universe.elements if q.card <= 10 and is_rectangular(q)}
    for slack in range(4):
        assert F.defined_set(f, 'x', universe, F.EvalConfig(10, slack)) == want


def _assignments(free, candidates):
    if not free:
        return [{}]
    out = [{}]
    for name in free:
        out = [dict(a, **{name: u}) for a in out for u in candidates]
    return out


def test_evaluate_cover_examples():
    f = F.parse(COVER)
    config = F.EvalConfig(5, 1)
    assert F.evaluate(f, {'x': p('[1]'), 'y': p('[2]')}, UNI6, config)
    assert F.evaluate(f, {'x': p('[1]'), 'y': p('2[1]')}, UNI6, config)
    assert not F.evaluate(f, {'x': p('[1]'), 'y': p('(2,1)')}, UNI6, config)
    assert not F.evaluate(f, {'x': p('[2]'), 'y': p('[2]')}, UNI6, config)


def test_evaluate_constants_outside_the_universe():
    f = F.parse("const big = [9]+[9];\nx <= big")
    assert F.evaluate(f, {'x': p('(5,1)')}, UNI6, F.EvalConfig(6, 0))
    g = F.parse("const big = [9]+[9];\nexists y (y <= big & x <= y)")
    assert F.evaluate(g, {'x': p('(5,1)')}, UNI6, F.EvalConfig(6, 0))


def test_outside_value_numbered_after_the_up_cache_exists():
    universe = Universe(6)
    compiled = F.compile_formula(F.parse('forall y (x <= y)'), universe,
                                 F.EvalConfig(5, 1))
    assert compiled.run({'x': EMPTY})               # builds up row 0
    assert universe._up_bits is not None
    # numbered after the universe, so they read no up row
    assert not compiled.run({'x': p('[9]+[9]')})
    assert not compiled.run({'x': p('[20]')})
    assert not compiled.run({'x': p('[1]')})        # builds up row 1
    assert sum(row is not None for row in universe._up_bits) == 2


def test_each_atom_orientation_matches_a_leq_sweep():
    # x <= c and c <= x read a constant's down and up mask; x <= y with
    # y swept reads the up mask of a variable's value
    for text in ('[2]+[1]', '[3]+2[1]', '[9]+[9]'):
        c = p(text)
        for slack in (0, 1):
            config = F.EvalConfig(5, slack)
            xs = [q for q in UNI6.elements if q.card <= 5]
            ys = [q for q in UNI6.elements if q.card <= 5 + slack]
            cases = {
                'x <= c': {x for x in xs if leq(x, c)},
                'c <= x': {x for x in xs if leq(c, x)},
                'forall y (x <= y)': {x for x in xs
                                      if all(leq(x, y) for y in ys)},
                'exists y (x <= y & y <= c)': {
                    x for x in xs if any(leq(x, y) and leq(y, c) for y in ys)},
            }
            for body, want in cases.items():
                f = F.parse('const c = %s;\n%s' % (text, body))
                assert F.defined_set(f, 'x', UNI6, config) == want, \
                    (text, slack, body)


UPPER_COVER = ('const c = %s;\n'
               'c <= x & c != x & forall z (c <= z & z <= x -> z = c | z = x)')
LOWER_COVER = ('const c = %s;\n'
               'x <= c & x != c & forall z (x <= z & z <= c -> z = x | z = c)')


def test_down_oriented_formulas_leave_the_up_cache_unbuilt(monkeypatch):
    # every order atom of these reads a down row, or a constant's up mask
    # read off the level layout, once each quantifier is oriented; a
    # transposed sweep's last pending value reads its up row, and no up
    # row is built that was not asked
    asked = set()
    up_row = Universe.up_row

    def counted(self, i):
        asked.add(i)
        return up_row(self, i)
    monkeypatch.setattr(Universe, 'up_row', counted)
    universe = Universe(12)
    config = F.EvalConfig(11, 1)
    xs = [q for q in universe.elements if q.card <= 11]
    texts = F.corpus()
    cases = [(texts['empty'], {EMPTY}),
             (texts['triviality'], {q for q in xs if is_trivial(q)}),
             (texts['totality'], {q for q in xs if is_total(q)})]
    for c in (p('[2]+[1]'), p('2[3]+[1]')):
        cases.append((UPPER_COVER % render(c), upper_covers(c, universe)))
        cases.append((LOWER_COVER % render(c), lower_covers(c)))
    for text, want in cases:
        assert F.defined_set(F.parse(text), 'x', universe, config) == want, text
    # only empty.fol's last pending value, x = 0, reads an up row
    built = {i for i, row in enumerate(universe._up_bits) if row is not None}
    assert built == asked == {0}


def test_cover_formulas_still_build_the_up_cache():
    universe = Universe(7)
    got = F.defined_relation(F.parse(COVER), ('x', 'y'), universe,
                             F.EvalConfig(6, 1))
    assert got == {(s, q) for q in universe.elements if q.card <= 6
                   for s in lower_covers(q)}
    assert universe._up_bits is not None


@pytest.mark.parametrize('text, transposed', [
    ('forall y (x <= y)', True),
    ('const c = [2]+[1];\nexists y (x <= y & y <= c & y != x)', True),
    ('const c = [2]+[1];\nforall z (x <= z & z <= c -> x = z | z = c)', True),
    ('const c = [9]+[9];\nforall z (x <= z & z <= c -> x = z | z = c)', True),
    # guards of two conjuncts that leave x out
    ('const c = [3]+[1];\nconst d = [1];\n'
     'forall z (z <= c & x <= z & d <= z -> z = c | x = z)', True),
    ('const c = [3]+[1];\nconst d = [1];\n'
     'exists z (z <= c & d <= z & x <= z & z != x)', True),
    # a conjunction under forall, an implication under exists: no guard
    ('const c = [2]+[1];\nforall z (z <= c & x <= z)', True),
    ('const c = [2]+[1];\nexists z (z <= c -> x <= z & z != x)', True),
    # a guard that is all of G: forall z (G -> psi) loops over psi alone
    ('const c = [2]+[1];\nforall z (c <= z -> x <= z)', True),
    # x <= y with y <= x, or with a nested quantifier that has x free,
    # keeps the sweep over x
    ('forall y (x <= y & y <= x -> x = y)', False),
    ('forall y (x <= y -> exists z (x <= z & z <= y & z != x))', False),
    ('exists y (x <= y & forall z (z <= y -> z <= x | x <= z))', False),
])
def test_each_quantifier_orientation_agrees_with_naive(text, transposed):
    assert F._transposes(F.parse(text), 'x') == transposed
    for slack in range(3):
        _agrees_with_naive(text, slack=slack)


def test_transposed_sweep_asks_its_guard_once(monkeypatch):
    # z <= c picks the z to loop over; the body compiled for the loop
    # leaves it out, so no atom falls back to a scalar leq per z
    calls = []
    monkeypatch.setattr(F, 'leq', lambda a, b: calls.append(1) or leq(a, b))
    universe = Universe(12)
    for c in (p('[2]+[1]'), p('2[3]+[1]')):
        f = F.parse(LOWER_COVER % render(c))
        assert F.defined_set(f, 'x', universe, F.EvalConfig(11, 1)) \
            == lower_covers(c)
    assert calls == []


# transposed quantifiers swept over x, forall and exists, with and without
# a guard, and with a constant outside the universe as the guard's bound
FINISHED = (
    'forall y (x <= y)',
    'exists y (x <= y & y != x)',
    'const c = [2]+[1];\nforall z (x <= z & z <= c -> x = z | z = c)',
    'const c = [9]+[9];\nforall z (x <= z & z <= c -> x = z | z = c)',
    'const c = [9]+[9];\nexists z (z <= c & x <= z & z != x)',
)


def test_a_transposed_sweep_finishes_its_last_pending_value():
    # the loop over y stops once at most one x is pending, and a last one
    # is answered by one row over y.  A one-bit care is pending on entry;
    # a pair drops to one bit, or to none, once the loop decides one or
    # both; a full care drops to one at y = 0 for forall y (x <= y)
    for text in FINISHED:
        f = F.parse(text)
        assert F._transposes(f, 'x'), text
        for slack in range(3):
            universe = enumerate_universe(3 + slack)
            compiled = F.compile_formula(f, universe, F.EvalConfig(3, slack))
            width = universe.ordinal_cutoff(3)
            truth = sum(1 << i for i, x in enumerate(universe.elements[:width])
                        if naive_eval(f, {'x': x}, universe.elements))
            cares = [1 << i | 1 << j for i in range(width)
                     for j in range(i, width)]
            cares += [(1 << width) - 1, (1 << width) - 2]
            for care in cares:     # a fresh row memo for each care
                top = compiled._closure(f, 'x', {'x': 0})
                assert top({}, care) == truth & care, (text, slack, care)


def _alternating_chain(k):
    """forall y1 (x <= y1 -> exists y2 (y1 <= y2 & ... x = x)), k deep."""
    text = 'x = x'
    for i in range(k, 0, -1):
        outer = 'y%d' % (i - 1) if i > 1 else 'x'
        shape = 'forall %s (%s <= %s -> %s)' if i % 2 else \
            'exists %s (%s <= %s & %s)'
        text = shape % ('y%d' % i, outer, 'y%d' % i, text)
    return text


def test_each_quantifier_is_compiled_for_one_orientation(monkeypatch):
    # a quantifier swept by the transposed loop compiles no closures for
    # the bit-by-bit sweep, and the other way round; and compiling builds
    # only the few nodes of its guard splits, not renamed subtree copies
    compiled, built = [], []
    closure, construct = F._Compiled._closure, F.Node.__init__

    def counted(self, f, row, depth):
        compiled.append(f)
        return closure(self, f, row, depth)
    monkeypatch.setattr(F._Compiled, '_closure', counted)

    def constructed(self, *values):
        built.append(type(self))
        construct(self, *values)
    monkeypatch.setattr(F.Node, '__init__', constructed)

    def closures(text):
        f = F.parse(text)
        compiled.clear()
        built.clear()
        F.defined_set(f, 'x', UNI6, F.EvalConfig(3, 1))
        return len(compiled)
    # x <= y for the loop over y, and for the last pending x, one row
    # over y compiled when it is first asked
    assert closures('forall y (x <= y)') == 3
    # each exists is compiled as !forall y (phi -> y != y), which adds the
    # closures of its Not, its forall and y != y: measured 4, 13, 16, 22,
    # 25, 31, 34 and 40 for k = 1-8
    for k in range(1, 9):
        assert closures(_alternating_chain(k)) <= 5 * k + 3, k
        assert len(built) <= 4 * k + 4, k
    for k in range(1, 4):
        for slack in (0, 1):
            _agrees_with_naive(_alternating_chain(k), slack=slack)


def _transposed_chain(k):
    """forall y1 (x <= y1 -> exists y2 (y1 <= y2 & ... yk = yk)), k deep:
    no quantifier's body has the variable two levels out free."""
    text = 'y%d = y%d' % (k, k)
    for i in range(k, 0, -1):
        outer = 'y%d' % (i - 1) if i > 1 else 'x'
        shape = 'forall %s (%s <= %s -> %s)' if i % 2 else \
            'exists %s (%s <= %s & %s)'
        text = shape % ('y%d' % i, outer, 'y%d' % i, text)
    return text


def test_rows_over_y_are_compiled_when_first_asked(monkeypatch):
    # each quantifier of the chain is transposed where it is swept, and a
    # lookup in the body of the one outside it.  Compiled up front, its
    # rows over y would compile the next quantifier once more, swept, so
    # the closures would grow like the Fibonacci numbers with the depth
    compiled = []
    closure = F._Compiled._closure

    def counted(self, f, row, depth):
        compiled.append(f)
        return closure(self, f, row, depth)
    monkeypatch.setattr(F._Compiled, '_closure', counted)
    assert F._transposes(F.parse(_transposed_chain(3)), 'x')
    for k in range(1, 13):
        compiled.clear()
        F.defined_set(F.parse(_transposed_chain(k)), 'x', UNI6,
                      F.EvalConfig(3, 1))
        assert len(compiled) <= 5 * k + 5, k
    for k in range(1, 4):
        for slack in (0, 1):
            _agrees_with_naive(_transposed_chain(k), slack=slack)


def _as_forall(f):
    """f, or for an exists the forall under the Not it is compiled as."""
    return F._universal(f).body if isinstance(f, F.Exists) else f


@pytest.mark.parametrize('text', FINISHED + (
    'const c = [1];\nexists z (c != z & z <= x)',
    'const c = [2]+[1];\nexists z (c <= z & z <= x & z != x)',
    'exists y (x <= y & forall z (z <= y -> z <= x | x <= z))',
    'forall y (x <= y -> exists z (x <= z & z <= y & z != x))',
))
def test_only_forall_reaches_the_quantifier_compile_paths(monkeypatch, text):
    # transposed, down-set, bit-swept and looked-up exists alike are
    # compiled as !forall y (phi -> false)
    seen = []
    quantifier, split_guard, below = (F._Compiled._quantifier,
                                      F._split_guard, F._below)
    monkeypatch.setattr(F._Compiled, '_quantifier', lambda self, f, *args:
                        seen.append(type(f)) or quantifier(self, f, *args))
    monkeypatch.setattr(F, '_split_guard', lambda f, *args:
                        seen.append(type(f)) or split_guard(f, *args))
    monkeypatch.setattr(F, '_below', lambda f, *args:
                        seen.append(type(f)) or below(f, *args))
    for slack in range(3):
        _agrees_with_naive(text, slack=slack)
    assert set(seen) == {F.Forall}


# --- guard shapes: forall v (G1 & ... & Gk -> psi), exists v (G1 & ... & Gk & psi)

# w sorts before x, so x is the swept (last, innermost) variable
_leaving_x_out = st.one_of(
    _atoms_over(['z', 'w']),
    _atoms_over(['x', 'z']).map(lambda g: F.Exists('x', g)))   # x only bound
_keeping_x = st.builds(   # x on either side
    lambda kind, t, first: kind(F.Var('x'), t) if first else kind(t, F.Var('x')),
    atom_kinds, _terms(['z', 'w']), st.booleans())
_psi = st.recursive(_atoms_over(['x', 'z', 'w']), lambda children: st.one_of(
    children.map(F.Not),
    st.builds(lambda kind, a, b: kind(a, b),
              st.sampled_from([F.And, F.Or, F.Implies]), children, children)),
    max_leaves=4)


@st.composite
def guarded_quantifiers(draw):
    conjuncts = draw(st.permutations(
        draw(st.lists(_leaving_x_out, min_size=1, max_size=3))
        + draw(st.lists(_keeping_x, min_size=1, max_size=2))))
    guard, psi = functools.reduce(F.And, conjuncts), draw(_psi)
    if draw(st.booleans()):
        return F.Forall('z', F.Implies(guard, psi))
    return F.Exists('z', F.And(guard, psi))


@settings(max_examples=40, deadline=None)
@given(guarded_quantifiers())
def test_guarded_quantifiers_agree_with_naive(f):
    for slack in range(3):
        _agrees_with_naive(F.print_file(f), slack=slack)


@pytest.mark.parametrize('text', [
    # every conjunct leaves x out: the row sweep, the transposed loop
    # (x <= z in psi), and a closed exists
    'const c = [1];\nconst d = [2]+[1];\nforall z (c <= z & z <= d -> z <= x)',
    'const c = [1];\nconst d = [2]+[1];\n'
    'forall z (c <= z & z <= d -> x <= z | z = c)',
    'const d = [2]+[1];\nx <= d & exists z (d <= z & z != d)',
    # no conjunct leaves x out
    'const c = [2]+[1];\nforall z (z <= x & z != x -> z <= c)',
    'exists z (x <= z & z != x)',
    'const c = [2]+[1];\nexists z (z <= x & x != z & z != c)',
    # the conjuncts leaving x out hold nowhere (base == 0)
    'const c = [2]+[1];\nforall z (z <= c & c <= z & z != c -> z <= x)',
    'const c = [2]+[1];\nexists z (z <= c & c <= z & z != c & z <= x)',
    'const c = [2]+[1];\nexists z (z <= c & c <= z & z != c & x <= z)',
    # exists with a single conjunct, with and without x
    'exists z (!(z <= x | x <= z))',
    'const c = [3];\nx <= c | exists z (!(z <= c | c <= z))',
    # forall without an implication
    'forall z (z <= x | x <= z)',
    'const c = [2]+[1];\nforall z (x <= z | z <= c)',
    # x occurs only bound in a conjunct, which so leaves the free x out
    'forall z (exists x (x <= z) & z <= x -> z = x)',
    'const c = [1]+[1];\n'
    'forall z (exists x (x <= z & x != z & c <= x) & z <= x -> z = x | c <= z)',
])
def test_guard_edge_cases_agree_with_naive(text):
    for slack in range(3):
        _agrees_with_naive(text, slack=slack)


@pytest.mark.parametrize('text, parts', [
    ('forall z (exists x (x <= z) & z <= x -> z = x)',
     ('exists x (x <= z)', 'z <= x', 'z = x')),
    ('forall z (w <= z & z <= x & z != w -> z = x)',
     ('w <= z & z != w', 'z <= x', 'z = x')),
    # an exists is split as the forall it is compiled as: then is false
    ('exists z (x <= z & z != x)', (None, 'x <= z & z != x', 'z != z')),
    ('exists z (w <= z)', ('w <= z', None, 'z != z')),
    ('forall z (z <= x | w <= z)', (None, None, 'z <= x | w <= z')),
])
def test_split_guard_parts(text, parts):
    got = F._split_guard(_as_forall(F.parse(text)), 'x')
    assert tuple(g and F.print_formula(g) for g in got) == parts


def test_row_sweep_asks_its_fixed_conjuncts_once(monkeypatch):
    # c <= z leaves x out, so the sweep over x asks it once, not once for
    # every x above c; z <= x rules out the transposed loop here
    c = p('[2]+[1]')
    watched = F.Leq(F.Const('c', c), F.Var('z'))
    counts = {'atom': 0, 'sweep': 0}

    def counting(method, name, wanted):
        def compile_counted(self, f, *args):
            closure = method(self, f, *args)
            if not wanted(f):
                return closure

            def counted(env, care):
                counts[name] += 1
                return closure(env, care)
            return counted
        return compile_counted
    monkeypatch.setattr(F._Compiled, '_atom', counting(
        F._Compiled._atom, 'atom', watched.__eq__))
    monkeypatch.setattr(F._Compiled, '_quantifier', counting(
        F._Compiled._quantifier, 'sweep', lambda f: True))
    universe = Universe(12)
    f = F.parse(UPPER_COVER % render(c))
    assert F.defined_set(f, 'x', universe, F.EvalConfig(11, 1)) \
        == upper_covers(c, universe)
    assert counts == {'atom': 1, 'sweep': 1}
    assert universe._up_bits is None


# --- quantifiers bounded below the swept variable:
# forall z (K & z <= x -> A | z = x) and exists z (K & z <= x)

def _below(f):
    """The down-mask sweep's reading of f swept over x, None if it has none."""
    f = _as_forall(f)
    _, rest, then = F._split_guard(f, 'x')
    return F._below(f, rest, then, 'x')


_fixed_disjuncts = st.recursive(_leaving_x_out, lambda children: st.one_of(
    children.map(F.Not),
    st.builds(lambda kind, a, b: kind(a, b),
              st.sampled_from([F.And, F.Or, F.Implies]), children, children)),
    max_leaves=3)
_diagonals = st.sampled_from([None, F.Eq(F.Var('z'), F.Var('x')),
                              F.Eq(F.Var('x'), F.Var('z'))])


@st.composite
def quantifiers_below_x(draw):
    conjuncts = draw(st.permutations(
        draw(st.lists(_leaving_x_out, max_size=3))
        + [F.Leq(F.Var('z'), F.Var('x'))]))
    guard = functools.reduce(F.And, conjuncts)
    if draw(st.booleans()):
        return F.Exists('z', guard)
    diagonal = draw(_diagonals)
    disjuncts = draw(st.lists(_fixed_disjuncts, min_size=0 if diagonal else 1,
                              max_size=2))
    if diagonal:
        disjuncts.insert(draw(st.integers(0, len(disjuncts))), diagonal)
    return F.Forall('z', F.Implies(guard, functools.reduce(F.Or, disjuncts)))


@settings(max_examples=40, deadline=None)
@given(quantifiers_below_x())
def test_quantifiers_bounded_below_x_agree_with_naive(f):
    assert _below(f) is not None
    for slack in range(3):
        _agrees_with_naive(F.print_file(f), slack=slack)


@pytest.mark.parametrize('text, swept', [
    # no y of K escapes the fixed disjuncts (bad == 0), or K is empty
    ('const c = [2]+[1];\nforall z (c <= z & z <= x -> c <= z)', True),
    ('forall z (z <= x -> z = z | z = x)', True),
    ('const c = [2]+[1];\nforall z (z <= c & c <= z & z != c & z <= x -> z = x)',
     True),
    ('const c = [2]+[1];\nexists z (z <= c & c <= z & z != c & z <= x)', True),
    # a conclusion that leaves x out entirely, and the diagonal alone
    (F.corpus()['triviality'], True),
    ('const c = [1];\nforall z (c <= z & z <= x -> x = z)', True),
    ('const c = [1];\nexists z (c != z & z <= x)', True),
    # a disjunct that keeps x but is not the diagonal takes the old path
    ('const c = [1];\nforall z (c <= z & z <= x -> z = c | z != x)', False),
    ('const c = [2];\nforall z (z <= x -> z = x | x <= c)', False),
    ('forall z (z <= x -> z = x | exists y (y <= x & z != y))', False),
    # so does any other guard that keeps x, or x <= z as the bound
    ('exists z (z <= x & z != x)', False),
    ('const c = [1];\nforall z (z <= x | c <= z -> z = x)', False),
    ('const c = [1]+[1];\nforall z (x <= z & z <= c -> z = x | z = c)', False),
    ('const c = [1]+[1];\nexists z (x <= z & z <= c)', False),
])
def test_down_sweep_edge_cases_agree_with_naive(text, swept):
    assert (_below(F.parse(text)) is not None) == swept
    for slack in range(3):
        _agrees_with_naive(text, slack=slack)


def test_down_sweep_runs_no_closure_per_candidate(monkeypatch):
    # z = c leaves x out, so the upper-cover sweep asks it once per fill;
    # one strictly_above pass then answers every x, and no
    # closure runs for any of them
    c = p('[2]+[1]')
    watched = F.Eq(F.Var('z'), F.Const('c', c))
    counts = {'asked': 0, 'closure': 0}
    closure = F._Compiled._closure

    def compile_counted(self, f, *args):
        compiled = closure(self, f, *args)

        def counted(env, care):
            counts['closure'] += 1
            counts['asked'] += f == watched
            return compiled(env, care)
        return counted
    monkeypatch.setattr(F._Compiled, '_closure', compile_counted)
    universe = Universe(12)
    f = F.parse(UPPER_COVER % render(c))
    candidates = sum(1 for x in universe.elements if leq(c, x) and x.card <= 11)
    assert F.defined_set(f, 'x', universe, F.EvalConfig(11, 1)) \
        == upper_covers(c, universe)
    assert counts['asked'] == 1
    assert candidates > 100 and counts['closure'] <= len(list(_walk(f)))
    assert universe._up_bits is None


# --- conjugation: an automorphism of every truncation, at every slack

def _conjugated(f):
    """f with every constant replaced by its conjugate."""
    if isinstance(f, F.Const):
        return F.Const(f.name, conjugate(f.value))
    return type(f)(*[_conjugated(v) if isinstance(v, F.Node) else v
                     for v in map(f.__getattribute__, f._fields)])


UNI9 = enumerate_universe(9)


@pytest.mark.parametrize('text, max_card', [
    pytest.param(text, min(harness._corpus_header(text)[1], 7), id=name)
    for name, text in F.corpus().items()
] + [pytest.param(form % c, 7, id='%s %s' % (kind, c))
     for kind, form in (('upper-cover', UPPER_COVER), ('lower-cover', LOWER_COVER))
     for c in ('[2]', '[3]+[1]', '2[2]+[1]')])
def test_conjugating_the_constants_conjugates_the_relation(text, max_card):
    f = F.parse(text)
    names = tuple(sorted(F.free_vars(f)))
    for slack in range(3):
        config = F.EvalConfig(max_card, slack)
        want = {tuple(map(conjugate, t))
                for t in F.defined_relation(f, names, UNI9, config)}
        assert F.defined_relation(_conjugated(f), names, UNI9, config) == want


def test_empty_formula_builds_at_most_one_row_of_each_cache():
    # the loop over y reads the down row of y = 0, which leaves only
    # x = 0 pending; that one is answered by its up row
    universe = Universe(25)
    f = F.parse(F.corpus()['empty'])
    assert F.defined_set(f, 'x', universe, F.EvalConfig(24, 1)) == {EMPTY}
    assert sum(row is not None for row in universe._down_bits) <= 1
    assert sum(row is not None for row in universe._up_bits) <= 1


def test_a_formula_reading_rows_is_refused_past_the_bit_cache_ceiling():
    # compile_formula allocates nothing, so it returns; the first down row
    # the formula asks for is refused where the row store would be made
    big = enumerate_universe(40)
    f = F.parse('forall y (x <= y)')
    F.compile_formula(f, big, F.EvalConfig(30))
    with pytest.raises(ResourceLimit):
        F.defined_set(f, 'x', big, F.EvalConfig(30))
    # refused before the cover table or any row was built
    assert big._covers is None
    assert big._down_bits is None and big._up_bits is None


def test_formulas_reading_no_row_evaluate_past_the_bit_cache_ceiling():
    # 38 is the first maxCard whose bit caches the ceiling refuses; an up
    # pass over the level layout is not budgeted, a down row is
    universe = enumerate_universe(38)
    config = F.EvalConfig(37, 1)
    corpus = F.corpus()
    assert (F.defined_set(F.parse(corpus['totality']), 'x', universe, config)
            == {pi for pi in universe if pi.card <= 37 and is_total(pi)})
    c = p('[3]+[1]')
    assert (F.defined_set(F.parse(UPPER_COVER % render(c)), 'x', universe,
                          config)
            == upper_covers(c, universe))
    for name in ('empty', 'triviality'):
        with pytest.raises(ResourceLimit):
            F.defined_set(F.parse(corpus[name]), 'x', universe, config)
    assert universe._down_bits is None and universe._up_bits is None
    # the up-sets are read off the level layout: no cover table is built
    assert universe._covers is None


def test_an_up_row_is_refused_where_its_store_would_be_made(monkeypatch):
    # x <= y over y, with x assigned, reads x's up row: past the ceiling
    # the first one is refused before the up-row store is allocated, and a
    # formula that reads no row still evaluates
    f = F.parse('forall y (x <= y)')
    totality = F.parse(F.corpus()['totality'])
    small = Universe(6)
    monkeypatch.setattr(P, 'MAX_BIT_CACHE_BYTES',
                        bit_cache_bytes(len(small)) - 1)
    with pytest.raises(ResourceLimit):
        F.evaluate(f, {'x': EMPTY}, small, F.EvalConfig(5, 1))
    assert small._up_bits is None and small._down_bits is None
    assert (F.defined_set(totality, 'x', small, F.EvalConfig(5, 1))
            == {pi for pi in small if pi.card <= 5 and is_total(pi)})
    monkeypatch.undo()
    big = enumerate_universe(40)
    config = F.EvalConfig(39, 1)
    with pytest.raises(ResourceLimit):
        F.evaluate(f, {'x': EMPTY}, big, config)
    assert len(F.defined_set(totality, 'x', big, config)) == 40
    assert big._up_bits is None and big._down_bits is None


def test_constant_up_sets_past_the_ceiling_build_no_cover_table():
    # a formula's constant up-sets come first and read no cover table, so
    # one that reads a row is refused with nothing built, and one that
    # reads none answers without the table
    universe = enumerate_universe(40)
    config = F.EvalConfig(39, 1)
    corpus = F.corpus()
    for name in ('triviality', 'maximal-below'):
        with pytest.raises(ResourceLimit):
            F.defined_set(F.parse(corpus[name]), 'x', universe, config)
        assert universe._covers is None
    total = F.defined_set(F.parse(corpus['totality']), 'x', universe, config)
    assert total == {pi for pi in universe if pi.card <= 39 and is_total(pi)}
    assert len(total) == 40
    assert universe._covers is None
    assert universe._down_bits is None and universe._up_bits is None


def test_an_outside_value_on_the_right_is_asked_below_it():
    # x <= big at a wide care is one leq(x, big) per bit, which holds at
    # the partitions of at most two rows; read the other way it never does
    f = F.parse('const big = [9]+[9];\nx <= big')
    for slack in (0, 1):
        assert (F.defined_set(f, 'x', UNI6, F.EvalConfig(5, slack))
                == {pi for pi in UNI6 if pi.card <= 5 and pi.length <= 2})


def test_stability_check_makes_one_up_pass_for_its_constant(monkeypatch):
    # an up pass is the build of one cell, the mask read off the level
    # layout of the elements holding it (_cell); c11 = 2[1] has one corner
    built = []
    cell = Universe._cell

    def counted(self, a, b):
        if (a, b) not in self._cells:
            built.append((a, b))
        return cell(self, a, b)
    monkeypatch.setattr(Universe, '_cell', counted)
    universe = Universe(12)
    f = F.parse(F.corpus()['totality'])
    sets, flips = F.stability_check(f, ('x',), universe, 8, [0, 1, 2, 3])
    # one cell for c11 over the four compiles, kept by the universe
    assert built == [(1, 2)]
    assert sets == [{pi for pi in universe if pi.card <= 8 and is_total(pi)}
                    ] * 4
    assert flips == []


def test_constant_up_mask_builds_no_bit_cache():
    for first in (None, 'down_bits', 'up_bits'):
        universe = Universe(10)
        if first:
            getattr(universe, first)()
        masks = [universe.up_mask(o) for o in range(len(universe))]
        assert (universe._down_bits is None) == (first != 'down_bits')
        assert (universe._up_bits is None) == (first != 'up_bits')
        # a leq sweep: the up cache is read off the same layout
        assert masks == [sum(1 << j for j, pi in enumerate(universe)
                             if leq(sigma, pi)) for sigma in universe]


def test_evaluate_error_paths():
    f = F.parse(COVER)
    with pytest.raises(F.EvalError):
        F.evaluate(f, {'x': p('[1]')}, UNI6, F.EvalConfig(5, 1))
    with pytest.raises(F.EvalError):
        F.evaluate(f, {'x': p('[1]'), 'y': p('[2]')}, UNI6, F.EvalConfig(6, 1))
    with pytest.raises(ValueError):
        F.EvalConfig(-1)


@pytest.mark.parametrize('max_card, slack', [
    (2.0, 0), (2, 0.5), (True, 0), (2, False), ('2', 0), (None, 0)])
def test_eval_config_refuses_what_is_not_an_int(max_card, slack):
    # a float would fail deep inside ordinal_cutoff, and True would mean 1
    with pytest.raises(ValueError, match='non-negative integers'):
        F.EvalConfig(max_card, slack)


def test_defined_set_matches_oracles():
    tot = F.parse("const c11 = [1]+[1];\n!(c11 <= x)")
    triv = F.parse("const c11 = [1]+[1];\nforall y (y <= x -> y <= c11 | c11 <= y)")
    config = F.EvalConfig(4, 2)
    for formula, oracle in ((tot, is_total), (triv, is_trivial)):
        got = F.defined_set(formula, 'x', UNI6, config)
        assert got == {q for q in UNI6.elements if q.card <= 4 and oracle(q)}


def test_defined_set_arity_errors():
    with pytest.raises(F.EvalError):
        F.defined_set(F.parse(COVER), 'x', UNI6, F.EvalConfig(4))
    with pytest.raises(F.EvalError):
        F.defined_set(F.parse("forall y (x <= y)"), 'y', UNI6, F.EvalConfig(4))


def test_repeated_variable_names_are_refused():
    # zip(names, ...) would let the last x overwrite the first, and
    # (2[1], 0) would come out although 2[1] is not total
    f = F.parse("const c = [1]+[1];\n!(c <= x)")
    with pytest.raises(F.EvalError):
        F.defined_relation(f, ('x', 'x'), UNI6, F.EvalConfig(2))
    with pytest.raises(F.EvalError):
        F.stability_check(f, ('x', 'x'), UNI6, 2, [0, 1])


def test_defined_relation_matches_covers():
    got = F.defined_relation(F.parse(COVER), ('x', 'y'), UNI6, F.EvalConfig(5, 1))
    want = {(s, q) for q in UNI6.elements if q.card <= 5
            for s in lower_covers(q)}
    assert got == want


def test_stability_check_flags_a_truncation_sensitive_formula():
    # "x is maximal" is an artifact of truncation: adding one level
    # falsifies every previous member
    f = F.parse("forall y (x <= y -> x = y)")
    sets, flips = F.stability_check(f, ('x',), UNI6, 3, [0, 1])
    assert flips
    assert len(sets[0]) > 0 and len(sets[1]) == 0
    assert all(was and value not in sets[1] and allowed
               for value, _, _, was, allowed in flips)


def test_stability_check_on_a_stable_formula():
    f = F.parse("forall y (x <= y)")
    sets, flips = F.stability_check(f, ('x',), UNI6, 3, [0, 1, 2, 3])
    assert not flips and [len(s) for s in sets] == [1, 1, 1, 1]
    assert F.defined_set(f, 'x', UNI6, F.EvalConfig(3, 3)) == {EMPTY}


def test_stability_check_over_two_variables():
    # "y is maximal" flips for every pair once one more level exists;
    # the flips are tuples, sorted by repr
    f = F.parse("x <= y & forall z (y <= z -> z = y)")
    sets, flips = F.stability_check(f, ('x', 'y'), UNI6, 2, [0, 1])
    assert sets[0] == {(s, q) for q in UNI6.elements if q.card == 2
                       for s in UNI6.elements if leq(s, q)}
    assert sets[1] == set()
    assert flips == [(v, 0, 1, True, True) for v in sorted(sets[0], key=repr)]
    with pytest.raises(F.EvalError):
        F.stability_check(f, ('x', 'y'), UNI6, 2, [])


def test_corpus_is_bundled():
    texts = F.corpus()
    assert sorted(texts) == ['cover', 'empty', 'maximal-below', 'rectangular',
                             'totality', 'triviality']
    for text in texts.values():
        F.parse(text)
