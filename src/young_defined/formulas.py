"""First-order formulas over the lattice signature: parser, prenex
classifier, and bounded evaluation.

The language has variables, named partition constants declared in a
prelude (`const c11 = [1]+[1];`), the atoms `<=`, `=`, `!=`, the
connectives `! & | -> <->` (precedence in that order, `->` right
associative) and the quantifiers `forall v (...)`, `exists v (...)`.
`#` starts a line comment; one formula per file.

Evaluation is truncated Tarski semantics: quantifiers range over every
partition of cardinality at most maxCard + slack.  Free variables are
whatever the caller assigns; definedSet sweeps them up to maxCard only.
The evaluator is relational: a subformula is a bitmask row over the
universe ordinals of one variable, connectives combine rows with & | ^
(`a & b` and `a -> b` ask b only at the bits a left set), and an atom
is a lookup in a constant's up mask or in the universe's down or up
rows, each row built on first use; a value outside the universe has no
row and is one leq per bit.  A quantified subformula is a row over its
innermost bound free variable, kept in its own memo for each value of
its other free variables, so it is computed once per outer value, not
once per assignment of the variables around it.  It is compiled only
for the way it runs: swept as a row (looping over y, or bit by bit) or
looked up one value at a time; the rows over y that answer one value
are compiled when first asked.  A loop over y stops once at most one
value is pending, and answers that value with one row over y.
`exists y (G)` is compiled as `!forall y (G -> y != y)`.  A guard is
split once: conjuncts of G in `forall y (G -> psi)` that leave the
swept variable out are asked once per fill, the rest on their bits.
When the rest is `y <= q` and psi's disjuncts but `y = q` leave q out,
they too are asked once per fill, and one up pass answers every q.
"""

import functools
import importlib.resources
import itertools
import operator
import re

from .partitions import leq, parse_partition, render


class ParseError(ValueError):
    """Syntax error with position information."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = 'line %d, col %d: %s' % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


class EvalError(ValueError):
    """Unassigned free variable, arity mismatch, or insufficient universe."""


# ---------------------------------------------------------------------------
# AST

class Node:
    """Base class: a subclass declares only its _fields, set in order by
    the one constructor, which also sets `free` (the free variable names)
    and `height` from the children's; equality is structural, by type."""

    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError('%s takes %d fields, got %d' % (
                type(self).__name__, len(self._fields), len(values)))
        for name, value in zip(self._fields, values):
            setattr(self, name, value)
        children = self.children()
        bound = {self.var} if isinstance(self, (Exists, Forall)) else set()
        self.free = (frozenset((self.name,)) if isinstance(self, Var) else
                     frozenset().union(*[c.free for c in children]) - bound)
        self.height = 1 + max([c.height for c in children], default=0)

    def children(self):
        """The fields that are nodes, in field order."""
        return [value for value in map(self.__getattribute__, self._fields)
                if isinstance(value, Node)]

    def __eq__(self, other):
        return type(self) is type(other) and all(
            getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self):
        return hash((type(self), *map(self.__getattribute__, self._fields)))

    def __repr__(self):
        return '%s(%s)' % (type(self).__name__,
                           ', '.join(repr(getattr(self, f)) for f in self._fields))


class Var(Node):
    _fields = ('name',)


class Const(Node):
    """A named constant carrying its canonical partition value."""

    _fields = ('name', 'value')


class _Binary(Node):
    """The two-operand atoms and connectives."""

    _fields = ('left', 'right')


class Leq(_Binary):
    pass


class Eq(_Binary):
    pass


class Not(Node):
    _fields = ('body',)


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


class Iff(_Binary):
    pass


class Exists(Node):
    _fields = ('var', 'body')


class Forall(Node):
    _fields = ('var', 'body')


def free_vars(f):
    """The free variable names of a formula."""
    if not isinstance(f, Node):
        raise TypeError('not a formula node: %r' % (f,))
    return f.free


def constants_of(f):
    """All Const nodes of a formula, keyed by name."""
    if isinstance(f, Const):
        return {f.name: f.value}
    out = {}
    for child in f.children():
        out.update(constants_of(child))
    return out


# ---------------------------------------------------------------------------
# lexer / parser

_TOKEN_RE = re.compile(r'''
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op><->|->|<=|!=|=|!|&|\||\(|\)|;)
''', re.VERBOSE)


def _strip_comments(text):
    """Replace # comments with spaces so offsets stay true to the file."""
    out = []
    for line in text.split('\n'):
        cut = line.find('#')
        if cut >= 0:
            line = line[:cut] + ' ' * (len(line) - cut)
        out.append(line)
    return '\n'.join(out)


def _line_col(text, pos):
    line = text.count('\n', 0, pos) + 1
    col = pos - (text.rfind('\n', 0, pos) + 1) + 1
    return line, col


# Deepest nesting of parentheses, quantifiers, negations and implications
# the parser descends into, and the highest formula tree it returns, so
# that neither the recursive parser nor a tree walk exhausts the stack.
MAX_NESTING = 64


_PRELUDE_RE = re.compile(r'\s*const\s+([A-Za-z_]\w*)\s*=\s*([^;]*);')
_KEYWORDS = ('forall', 'exists', 'const')


class _Parser:

    def __init__(self, text, constants, start):
        self.text = text
        self.constants = constants
        self.tokens = []
        pos = start
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if not match:
                line, col = _line_col(text, pos)
                raise ParseError('unexpected character %r' % text[pos], line, col)
            if match.lastgroup != 'ws':
                self.tokens.append((match.lastgroup, match.group(match.lastgroup), pos))
            pos = match.end()
        self.at = 0
        self.depth = 0

    def peek(self):
        if self.at < len(self.tokens):
            return self.tokens[self.at]
        return (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.at += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            self.fail('expected %r, found %r' % (value, val if val else 'end of input'), pos)
        return val

    def fail(self, message, pos):
        line, col = _line_col(self.text, pos)
        raise ParseError(message, line, col)

    def nested(self, parse):
        """parse() one level deeper, refusing nesting past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self.fail('formula nested deeper than %d levels' % MAX_NESTING,
                      self.peek()[2])
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    # precedence climbing, loosest first
    def formula(self):
        return self.chain('<->', Iff, self.implies)

    def chain(self, op, cls, operand):
        """operand()s joined by a left associative op."""
        left = operand()
        while self.peek()[1] == op:
            self.next()
            left = cls(left, operand())
        return left

    def implies(self):
        left = self.chain('|', Or, self.conjunction)
        if self.peek()[1] == '->':
            self.next()
            return Implies(left, self.nested(self.implies))   # right associative
        return left

    def conjunction(self):
        return self.chain('&', And, self.negation)

    def negation(self):
        if self.peek()[1] == '!':
            self.next()
            return Not(self.nested(self.negation))
        return self.primary()

    def primary(self):
        kind, val, pos = self.peek()
        if val == '(':
            self.next()
            inner = self.nested(self.formula)
            self.expect(')')
            return inner
        if val in ('forall', 'exists'):
            self.next()
            name_kind, name, name_pos = self.next()
            if name_kind != 'name' or name in _KEYWORDS:
                self.fail('expected a variable name after %r' % val, name_pos)
            if name in self.constants:
                self.fail('%r is a declared constant, not a variable' % name, name_pos)
            self.expect('(')
            body = self.nested(self.formula)
            self.expect(')')
            return (Forall if val == 'forall' else Exists)(name, body)
        return self.atom()

    def atom(self):
        left = self.term()
        kind, val, pos = self.next()
        if val == '<=':
            return Leq(left, self.term())
        if val == '=':
            return Eq(left, self.term())
        if val == '!=':
            return Not(Eq(left, self.term()))
        self.fail('expected <=, = or != after a term', pos)

    def term(self):
        kind, val, pos = self.next()
        if kind != 'name' or val in _KEYWORDS:
            self.fail('expected a variable or constant name, found %r'
                      % (val if val else 'end of input'), pos)
        if val in self.constants:
            return Const(val, self.constants[val])
        return Var(val)


def parse(text):
    """Parse a formula file: optional const prelude, then one formula."""
    stripped = _strip_comments(text)
    table = {}
    pos = 0
    while True:
        match = _PRELUDE_RE.match(stripped, pos)
        if not match:
            break
        name, literal = match.group(1), match.group(2)
        if name in _KEYWORDS or name in table:
            line, col = _line_col(stripped, match.start(1))
            problem = 'a keyword' if name in _KEYWORDS else 'declared twice'
            raise ParseError('%r is %s' % (name, problem), line, col)
        try:
            table[name] = parse_partition(literal)
        except ValueError as exc:
            line, col = _line_col(stripped, match.start(2))
            raise ParseError('bad partition literal: %s' % exc, line, col)
        pos = match.end()
    parser = _Parser(stripped, table, start=pos)
    if not parser.tokens:
        raise ParseError('no formula found')
    formula = parser.formula()
    kind, val, at = parser.peek()
    if kind is not None:
        parser.fail('unexpected trailing %r' % val, at)
    if formula.height > MAX_NESTING:
        raise ParseError('formula nested deeper than %d levels' % MAX_NESTING)
    return formula


def print_formula(f):
    """Render a formula; parse(print_formula(f)) rebuilds an equal tree
    when its constants are redeclared (see print_file)."""
    return _print(f, 0)


_LEVEL = {'Iff': 1, 'Implies': 2, 'Or': 3, 'And': 4}


def _print(f, need):
    if isinstance(f, Var) or isinstance(f, Const):
        return f.name
    if isinstance(f, Leq):
        return '%s <= %s' % (_print(f.left, 9), _print(f.right, 9))
    if isinstance(f, Eq):
        return '%s = %s' % (_print(f.left, 9), _print(f.right, 9))
    if isinstance(f, Not):
        if isinstance(f.body, Eq):
            return '%s != %s' % (_print(f.body.left, 9), _print(f.body.right, 9))
        if isinstance(f.body, (Var, Const, Not)):
            return '!%s' % _print(f.body, 9)
        return '!(%s)' % _print(f.body, 0)
    if isinstance(f, (Exists, Forall)):
        word = 'forall' if isinstance(f, Forall) else 'exists'
        return '%s %s (%s)' % (word, f.var, _print(f.body, 0))
    ops = {'Iff': '<->', 'Implies': '->', 'Or': '|', 'And': '&'}
    name = type(f).__name__
    level = _LEVEL[name]
    if name == 'Implies':
        text = '%s %s %s' % (_print(f.left, level + 1), ops[name], _print(f.right, level))
    else:
        text = '%s %s %s' % (_print(f.left, level), ops[name], _print(f.right, level + 1))
    if level < need:
        return '(%s)' % text
    return text


def print_file(f):
    """Render a formula with the const prelude needed to reparse it."""
    lines = ['const %s = %s;' % (name, render(value))
             for name, value in sorted(constants_of(f).items())]
    lines.append(print_formula(f))
    return '\n'.join(lines)


# ---------------------------------------------------------------------------
# prenex classification

def _levels(f):
    """Least (Sigma, Pi) prenex levels of a formula, syntactically.

    A leading existential block costs one Sigma level and embeds in Pi
    one level higher, dually for universal; conjunction and disjunction
    merge like-kind blocks, so they take the componentwise maximum.  A
    negation swaps the levels, `a -> b` is `!a | b`, and `a <-> b` is
    `(!a | b) & (!b | a)`, whose two levels are the largest of all four.
    """
    if isinstance(f, (Leq, Eq)):
        return (0, 0)
    if isinstance(f, Not):
        s, p = _levels(f.body)
        return (p, s)
    if isinstance(f, _Binary):
        ls, lp = _levels(f.left)
        rs, rp = _levels(f.right)
        if isinstance(f, Implies):
            return (max(lp, rs), max(ls, rp))
        if isinstance(f, Iff):
            top = max(ls, lp, rs, rp)
            return (top, top)
        return (max(ls, rs), max(lp, rp))
    if isinstance(f, Exists):
        s = max(_levels(f.body)[0], 1)
        return (s, s + 1)
    if isinstance(f, Forall):
        p = max(_levels(f.body)[1], 1)
        return (p + 1, p)
    raise TypeError('not a formula node: %r' % (f,))


def prenex_classify(f):
    """A syntactic upper bound on the prenex class of a formula, as
    'Sigma<n>', 'Pi<n>' or 'Delta<n>' (Delta0 is the open formulas).

    The least Sigma/Pi levels are combined bottom-up in one pass over
    the tree; the true semantic class (over all logically equivalent
    forms) can only be lower.
    """
    s, p = _levels(f)
    if s == p:
        return 'Delta%d' % s
    if s < p:
        return 'Sigma%d' % s
    return 'Pi%d' % p


# By prenex class, whether a flipped value may be a member at the larger of
# the flip's two slacks.  The truncation at a smaller slack is an induced
# substructure of the one at a larger slack holding every free value and
# constant, and existential formulas are preserved upward: a Sigma1 set
# can only grow, a Pi1 set only shrink, and a Delta0 set cannot change.
_FLIP_ENDS_IN = {'Sigma1': (True,), 'Pi1': (False,), 'Delta0': ()}


# ---------------------------------------------------------------------------
# evaluation

class EvalConfig:
    """Quantifier truncation: quantifiers range over cardinality <= maxCard + slack."""

    def __init__(self, max_card, slack=0):
        if not all(type(v) is int and v >= 0 for v in (max_card, slack)):
            raise ValueError('maxCard and slack must be non-negative integers')
        self.max_card = max_card
        self.slack = slack

    def __repr__(self):
        return 'EvalConfig(max_card=%d, slack=%d)' % (self.max_card, self.slack)


def _ones(mask):
    """The positions of the set bits of mask, lowest first."""
    digits = bin(mask)[:1:-1]
    i = digits.find('1')
    while i >= 0:
        yield i
        i = digits.find('1', i + 1)


class _Compiled:
    """A formula compiled against one universe and quantifier range.

    Values are ordinals: a universe element is its position, any other
    partition (a constant, or an assigned value outside the universe) a
    position after them.  Compiled for a row variable r, a subformula is
    a closure (env, care) -> the bits i of care at which it holds with
    r = i, env mapping the other variables in scope to ordinals.  Each
    compiled quantifier keeps the rows it fills in its own closure, and
    compiles only for the way it runs: the closures of a path it never
    takes, such as its rows over y when no value is answered bit by bit,
    are never built.
    """

    def __init__(self, formula, universe, cutoff):
        self.formula = formula
        self.free = formula.free
        self.universe = universe
        self.full = (1 << cutoff) - 1
        self.values = list(universe.elements)
        self.outside = {}
        self.scalar = None      # the run() entry, compiled on first use

    def ordinal(self, value):
        """The ordinal of a partition, numbering it first if outside."""
        if value in self.universe:
            return self.universe.ordinal(value)
        if value not in self.outside:
            self.outside[value] = len(self.values)
            self.values.append(value)
        return self.outside[value]

    def run(self, env):
        """Truth of the formula under env (variable name -> partition)."""
        missing = self.free - set(env)
        if missing:
            raise EvalError('unassigned free variables: %s'
                            % ', '.join(sorted(missing)))
        if self.scalar is None:
            self.scalar = self._closure(self.formula, None, dict(
                zip(sorted(self.free), itertools.count())))
        return self.scalar({v: self.ordinal(env[v]) for v in self.free}, 1) != 0

    def relation(self, names, max_card):
        """The tuples of partitions of cardinality <= max_card, one per
        name, that satisfy the formula; the last name is swept as a row."""
        if not names:
            return {()} if self.run({}) else set()
        top = self._closure(self.formula, names[-1], {
            name: level for level, name in enumerate(names)})
        width = self.universe.ordinal_cutoff(max_card)
        out = set()
        for outer in itertools.product(range(width), repeat=len(names) - 1):
            prefix = tuple(self.values[i] for i in outer)
            for i in _ones(top(dict(zip(names, outer)), (1 << width) - 1)):
                out.add(prefix + (self.values[i],))
        return out

    def _closure(self, f, row, depth):
        """f as a closure over the row variable; depth maps each variable
        in scope to the nesting level of its binding."""
        if isinstance(f, (Leq, Eq)):
            return self._atom(f, row)
        if isinstance(f, Not):
            body = self._closure(f.body, row, depth)
            return lambda env, care: care ^ body(env, care)
        if isinstance(f, Exists):
            return self._closure(_universal(f), row, depth)
        if isinstance(f, Forall):
            return self._quantifier(f, row, depth)
        left = self._closure(f.left, row, depth)
        right = self._closure(f.right, row, depth)
        if isinstance(f, And):     # right is asked only where left holds
            def conjunction(env, care):
                hit = left(env, care)
                return right(env, hit) if hit else 0
            return conjunction
        if isinstance(f, Implies):     # ... and here too
            def implication(env, care):
                hit = left(env, care)
                return care ^ hit ^ right(env, hit) if hit else care
            return implication
        if isinstance(f, Or):      # ... only where left fails
            def disjunction(env, care):
                hit = left(env, care)
                return hit | right(env, care ^ hit) if hit != care else hit
            return disjunction
        if isinstance(f, Iff):
            return lambda env, care: care ^ left(env, care) ^ right(env, care)
        raise TypeError('not a formula node: %r' % (f,))

    def _atom(self, f, row):
        left_is = isinstance(f.left, Var) and f.left.name == row
        right_is = isinstance(f.right, Var) and f.right.name == row
        if left_is and right_is:
            return lambda env, care: care
        if left_is or right_is:
            term = f.right if left_is else f.left
            other = self._operand(term)
            if isinstance(f, Eq):
                return lambda env, care: (1 << other(env)) & care
            if isinstance(term, Const) and not left_is:    # built once
                o = self.ordinal(term.value)
                # nothing in the universe lies above an outside value
                mask = self.universe.up_mask(o) if o < len(self.universe) else 0
                return lambda env, care: mask & care
            values, n = self.values, len(self.universe)
            if left_is:
                down_row = self.universe.down_row

                def below(env, care):
                    # a value in the universe reads its down row; one
                    # outside it has no row: one leq at each bit of care
                    o = other(env)
                    if o < n:
                        return down_row(o) & care
                    return sum(1 << i for i in _ones(care)
                               if leq(values[i], values[o]))
                return below
            up_row = self.universe.up_row

            def above(env, care):
                # a value in the universe reads its up row, built on first
                # use; nothing in the universe lies above one outside it
                o = other(env)
                return up_row(o) << o & care if o < n else 0
            return above
        left, right = self._operand(f.left), self._operand(f.right)
        if isinstance(f, Eq):
            return lambda env, care: care if left(env) == right(env) else 0
        values = self.values
        return lambda env, care: (care if leq(values[left(env)],
                                              values[right(env)]) else 0)

    def _operand(self, t):
        """env -> ordinal for a term other than the row variable."""
        if isinstance(t, Const):
            o = self.ordinal(t.value)
            return lambda env: o
        return operator.itemgetter(t.name)

    def _quantifier(self, f, row, depth):
        inner = dict(depth)
        inner[f.var] = max(depth.values(), default=-1) + 1
        q = max(f.free, key=depth.__getitem__, default=None)
        kept, rest, then = _split_guard(f, q)
        y, full = f.var, self.full
        guard = (self._closure(kept, y, inner) if kept
                 else lambda env, care: care)
        rows = {}   # other free variables' ordinals -> (bits known, bits true)
        others = sorted(f.free - {q})
        key = operator.itemgetter(*others) if others else (lambda env: ())

        def memo(env, want, fill):
            """The row at env, filled first on the bits of want not known."""
            k = key(env)
            known, true = rows.get(k, (0, 0))
            need = want & ~known
            if need:
                true |= fill(env, need)
                rows[k] = (known | need, true)
            return true

        # compiled on first use, as a quantifier that loops over y may never
        # ask them: compiled up front, they would compile each quantifier
        # nested in them once more, at every level of a chain of them
        rest_row = then_row = None

        def holds(env, base):
            """forall y phi at env, base the bits of y where kept holds."""
            nonlocal rest_row, then_row
            if not base:
                return True
            if rest_row is None:
                rest_row = (self._closure(rest, y, inner) if rest
                            else lambda env, care: care)
            hit = rest_row(env, base)
            if not hit:
                return True
            if then_row is None:
                then_row = self._closure(then, y, inner)
            return then_row(env, hit) == hit

        def sweep(env, need, base):
            """The bits i of need at which forall y phi holds with q = i."""
            local, true = dict(env), 0
            for i in _ones(need):
                local[q] = i
                if holds(local, base):
                    true |= 1 << i
            return true

        if q is None or q != row:     # not swept: one value of q at a time
            def decide(env, bit):
                return bit if holds(env, guard(env, full)) else 0

            def lookup(env, care):
                bit = 1 << (env[q] if q else 0)
                return care if memo(env, bit, decide) & bit else 0
            return lookup

        if _transposes(f, q):
            # y runs over base, the row of kept, while two or more bits are
            # pending: still true, so for exists not yet witnessed.  The rest
            # of phi, rest -> then, has row q (q <= y reads down[y]) and keeps
            # the atom q <= y.  The last pending bit, if any, is answered by
            # holds: one row over y
            body = self._closure(Implies(rest, then) if rest else then,
                                 q, inner)

            def fill(env, need):
                local, pending, base = dict(env), need, guard(env, full)
                for j in _ones(base):
                    if not pending & pending - 1:
                        return sweep(env, pending, base)
                    local[y] = j
                    pending = body(local, pending)
                return pending
        elif below := _below(f, rest, then, q):    # rest is y <= q
            fixed, diagonal = below
            asks = [self._closure(g, y, inner) for g in fixed]

            def fill(env, need):
                # bad: kept's y where no fixed disjunct holds, all of them
                # for exists; forall wants down[q] & bad in {0, bit q if y =
                # q}.  down[q] & bad is empty exactly when q is neither in bad
                # nor above a member of it, and {q} or empty exactly when q is
                # not strictly above a member, so one up pass answers every q
                bad = guard(env, full)
                for ask in asks:
                    bad ^= ask(env, bad) if bad else 0
                hit = (self.universe.strictly_above(bad, need.bit_length())
                       | (0 if diagonal else bad))
                return need & ~hit
        else:
            def fill(env, need):    # kept leaves q out: asked once, not per bit
                return sweep(env, need, guard(env, full))
        return lambda env, care: memo(env, care, fill) & care


def _parts(f, kinds):
    """f split through its connectives of the given kinds, left to right."""
    if not isinstance(f, kinds):
        return [f]
    return [g for child in f.children() for g in _parts(child, kinds)]


def _universal(f):
    """exists y phi as !forall y (phi -> y != y), the quantifier compiled."""
    y = Var(f.var)
    return Not(Forall(f.var, Implies(f.body, Not(Eq(y, y)))))


def _split_guard(f, q):
    """(kept, rest, then) for f = forall y phi swept over q, kept and rest
    None when empty: for forall y (G -> psi) the conjuncts of G that leave
    q out, the others, and psi (false for an exists, see _universal); for
    any other forall, (None, None, phi)."""
    if not isinstance(f.body, Implies):
        return None, None, f.body
    kept, rest = [], []
    for g in _parts(f.body.left, And):
        (rest if q in g.free else kept).append(g)
    return (kept and functools.reduce(And, kept) or None,
            rest and functools.reduce(And, rest) or None,
            f.body.right)


def _is_atom(g, kind, a, b):
    """Whether g is the atom kind(Var(a), Var(b))."""
    return (type(g) is kind and isinstance(g.left, Var) and g.left.name == a
            and isinstance(g.right, Var) and g.right.name == b)


def _below(f, rest, then, q):
    """(psi's disjuncts leaving q out, whether one is y = q or q = y) for f =
    forall y (K & y <= q -> psi) swept over q, None if another disjunct
    keeps q, so ([false], False) for an exists; None for any other f."""
    y, fixed, diagonal = f.var, [], False
    if not _is_atom(rest, Leq, y, q):
        return None
    for g in _parts(then, Or):
        if q not in g.free:
            fixed.append(g)
        elif _is_atom(g, Eq, y, q) or _is_atom(g, Eq, q, y):
            diagonal = True
        else:
            return None
    return fixed, diagonal


def _transposes(f, q):
    """Whether f = Q y phi, swept as a row over q, loops over y instead:
    phi has an atom q <= y, no y <= q, and no quantified subformula with
    q free (its row would be keyed on q, which is not in env there)."""
    direct, y = _parts(f.body, (Not, And, Or, Implies, Iff)), f.var
    return (any(_is_atom(g, Leq, q, y) for g in direct)
            and not any(_is_atom(g, Leq, y, q) for g in direct)
            and not any(isinstance(g, (Exists, Forall)) and q in g.free
                        for g in direct))


def compile_formula(f, universe, config):
    """Compile once for repeated evaluation over the same universe."""
    need = config.max_card + config.slack
    if universe.max_card < need:
        raise EvalError('universe covers cardinality %d but the evaluation '
                        'needs %d' % (universe.max_card, need))
    return _Compiled(f, universe, universe.ordinal_cutoff(need))


def evaluate(f, assignment, universe, config):
    """Truncated Tarski evaluation of f under the given assignment."""
    return compile_formula(f, universe, config).run(dict(assignment))


def defined_set(f, free_var, universe, config):
    """All partitions of cardinality <= maxCard satisfying a one-variable formula."""
    return {pi for pi, in defined_relation(f, (free_var,), universe, config)}


def defined_relation(f, free_var_names, universe, config):
    """All tuples over cardinality <= maxCard satisfying the formula, one
    coordinate per name; the names are its free variables, each named
    once.  The sweep order is the universe order on every coordinate."""
    names = sorted(f.free)
    if names != sorted(free_var_names):
        raise EvalError('free variables %s do not match %s, each named once'
                        % (names, list(free_var_names)))
    compiled = compile_formula(f, universe, config)
    return compiled.relation(tuple(free_var_names), config.max_card)


def corpus():
    """The bundled formula files as {name: source text}, sorted by name."""
    root = importlib.resources.files('young_defined') / 'corpus'
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith('.fol'):
            out[entry.name[:-len('.fol')]] = entry.read_text(encoding='utf-8')
    return out


def stability_check(f, names, universe, max_card, slacks):
    """The defined set of f over its free variables names at each slack,
    and the membership flips between consecutive slacks, each as (value,
    slack before, slack after, member before, whether f's prenex class
    allows the flip), sorted by repr per step.

    A set holds partitions for one name and tuples for more.
    """
    if not slacks:
        raise EvalError('empty slack schedule')
    sets = []
    for k in slacks:
        found = defined_relation(f, names, universe, EvalConfig(max_card, k))
        sets.append({pi for pi, in found} if len(names) == 1 else found)
    ends = _FLIP_ENDS_IN.get(prenex_classify(f), (True, False))
    flips = [(value, k0, k1, value in before,
              (value in (after if k0 < k1 else before)) in ends)
             for k0, k1, before, after in zip(slacks, slacks[1:], sets, sets[1:])
             for value in sorted(before ^ after, key=repr)]
    return sets, flips
