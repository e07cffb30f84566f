"""Case file parsing and rendering.

A case file holds exactly one verification case.  The format is line
oriented; `#` starts a comment, blank lines are ignored.

    case "dual-numbers-etale"
    field p = 7
    algebra A : vars eps ; rels eps^2
    scheme X : vars y ; rels y^2 - y - eps
    expect S = 1
    expect pi0_res = 2
    checks theorem, lemma-local, adjunction(1,2,3), cover(y, y-1)

Integer literals are residues mod p, `^` is power, relation lists are
comma separated.  A second `algebra` block turns the base into the
product of the two blocks (their variables are renamed on collision and
a fresh idempotent variable is added); the `product` check is only
available then.  Supported expectation keys: S, pi0_res, fibers,
cycle_type; multi-value expectations take their integers separated by
spaces or commas.  Supported checks: theorem, lemma-local,
adjunction(m, ...), cover(h, ...), product, empty, non-smooth.
"""

from ..errors import CaseSyntaxError, UndeclaredVariable
from ..exactfield import PrimeField
from ..finalg import AlgebraPresentation, product_algebra
from ..multipoly import MPoly
from ..weilres import SchemePresentation

_EXPECT_KEYS = ("S", "pi0_res", "fibers", "cycle_type")
_PLAIN_CHECKS = ("theorem", "lemma-local", "product", "empty", "non-smooth")


class Case:
    """One parsed verification case plus the objects built from it.

    The raw pieces (blocks, scheme text polynomials, expectations,
    checks) define equality and survive a render/parse round trip; the
    built presentations are derived and carried for the verifier.
    """

    def __init__(self, name, p, algebra_blocks, scheme_label, scheme_vars,
                 scheme_rels, expects, checks, algebra, product, scheme):
        self.name = name
        self.p = p
        self.algebra_blocks = tuple(algebra_blocks)
        self.scheme_label = scheme_label
        self.scheme_vars = tuple(scheme_vars)
        self.scheme_rels = tuple(scheme_rels)
        self.expects = tuple(expects)
        self.checks = tuple(checks)
        self.algebra = algebra
        self.product = product
        self.scheme = scheme

    def _key(self):
        return (self.name, self.p, self.algebra_blocks, self.scheme_label,
                self.scheme_vars, self.scheme_rels, self.expects, self.checks)

    def __eq__(self, other):
        if not isinstance(other, Case):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return "Case(%r, p=%d, %d algebra block(s), %d checks)" % (
            self.name, self.p, len(self.algebra_blocks), len(self.checks))


_OPS = "+-*^(),;:="


def _tokenize(text):
    """Token lists per nonempty line: (kind, value, line, col), 1-based."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if c in " \t\r":
                i += 1
                continue
            if c == "#":
                break
            col = i + 1
            if c == '"':
                j = raw.find('"', i + 1)
                if j < 0:
                    raise CaseSyntaxError("unterminated string", lineno, col)
                toks.append(("str", raw[i + 1:j], lineno, col))
                i = j + 1
            elif c.isdigit():
                j = i
                while j < n and raw[j].isdigit():
                    j += 1
                toks.append(("int", int(raw[i:j]), lineno, col))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (raw[j].isalnum() or raw[j] == "_"):
                    j += 1
                toks.append(("name", raw[i:j], lineno, col))
                i = j
            elif c in _OPS:
                toks.append(("op", c, lineno, col))
                i += 1
            else:
                raise CaseSyntaxError("unexpected character %r" % c,
                                      lineno, col)
        if toks:
            out.append(toks)
    return out


class _Cursor:
    """Walks one line's tokens and points errors at the right column."""

    def __init__(self, toks, lineno):
        self.toks = toks
        self.lineno = lineno
        self.i = 0

    def at_end(self):
        return self.i >= len(self.toks)

    def peek(self):
        return None if self.at_end() else self.toks[self.i]

    def peek_at(self, ahead):
        j = self.i + ahead
        return None if j >= len(self.toks) else self.toks[j]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def error(self, message):
        if self.at_end():
            last = self.toks[-1]
            col = last[3] + len(str(last[1]))
        else:
            col = self.toks[self.i][3]
        raise CaseSyntaxError(message, self.lineno, col)

    def match_op(self, ch):
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == ch:
            self.i += 1
            return True
        return False

    def expect_op(self, ch):
        if not self.match_op(ch):
            self.error("expected %r" % ch)

    def expect_name(self, what="a name"):
        tok = self.peek()
        if tok is None or tok[0] != "name":
            self.error("expected %s" % what)
        return self.advance()

    def expect_int(self, what="an integer"):
        tok = self.peek()
        if tok is None or tok[0] != "int":
            self.error("expected %s" % what)
        return self.advance()

    def expect_end(self):
        if not self.at_end():
            self.error("unexpected trailing input")


# expression grammar over a fixed variable context:
#   expr   := [-] term {(+|-) term}
#   term   := factor {* factor}
#   factor := atom [^ INT]
#   atom   := INT | NAME | ( expr )

def _parse_expr(cur, field, ctx):
    """Add the terms into one dict and build one MPoly: linear in the
    number of terms, with the terms in the order that adding one term
    at a time leaves them (a sum that cancels drops its monomial)."""
    negate = cur.match_op("-")
    out = {}
    while True:
        for m, c in _parse_term(cur, field, ctx).terms.items():
            if negate:
                c = -c
            prev = out.get(m)
            if prev is not None:
                c = prev + c
                if c.is_zero():
                    del out[m]
                    continue
            out[m] = c
        if cur.match_op("+"):
            negate = False
        elif cur.match_op("-"):
            negate = True
        else:
            return MPoly(field, ctx, out)


def _parse_term(cur, field, ctx):
    poly = _parse_factor(cur, field, ctx)
    while cur.match_op("*"):
        poly = poly * _parse_factor(cur, field, ctx)
    return poly


def _parse_factor(cur, field, ctx):
    poly = _parse_atom(cur, field, ctx)
    if cur.match_op("^"):
        tok = cur.expect_int("an exponent")
        poly = poly ** tok[1]
    return poly


def _parse_atom(cur, field, ctx):
    tok = cur.peek()
    if tok is None:
        cur.error("expected a number, a variable, or '('")
    if tok[0] == "int":
        cur.advance()
        return MPoly.constant(field, ctx, tok[1])
    if tok[0] == "name":
        cur.advance()
        if tok[1] not in ctx:
            raise UndeclaredVariable(
                "line %d, col %d: variable %r is not declared"
                % (tok[2], tok[3], tok[1]))
        return MPoly.variable(field, ctx, tok[1])
    if tok[0] == "op" and tok[1] == "(":
        cur.advance()
        poly = _parse_expr(cur, field, ctx)
        cur.expect_op(")")
        return poly
    cur.error("expected a number, a variable, or '('")


def parse_poly(text, field, variables):
    """One polynomial over the given context, whole input consumed."""
    lines = _tokenize(text)
    if len(lines) != 1:
        raise CaseSyntaxError("expected a single expression", 1, 1)
    cur = _Cursor(lines[0], lines[0][0][2])
    poly = _parse_expr(cur, field, tuple(variables))
    cur.expect_end()
    return poly


def _parse_sections(cur, field, base_vars=()):
    """`vars ... ; rels ...` after a block header; both parts optional.

    Relation expressions are parsed over the base variables and the
    block's own, so an undeclared name is caught here with its position.
    Algebra blocks pass no base variables; a scheme's unknowns must not
    reuse its base's.
    """
    names = []
    rels = []
    seen = set()
    while not cur.at_end():
        head = cur.expect_name("'vars' or 'rels'")
        if head[1] not in ("vars", "rels"):
            raise CaseSyntaxError("expected 'vars' or 'rels', got %r"
                                  % head[1], head[2], head[3])
        if head[1] in seen:
            raise CaseSyntaxError("duplicate %s section" % head[1],
                                  head[2], head[3])
        seen.add(head[1])
        if head[1] == "vars":
            while True:
                tok = cur.peek()
                if tok is None or (tok[0] == "op" and tok[1] == ";"):
                    break
                tok = cur.expect_name("a variable name")
                if tok[1] in names:
                    raise CaseSyntaxError("variable %r declared twice"
                                          % tok[1], tok[2], tok[3])
                if tok[1] in base_vars:
                    raise CaseSyntaxError("variable %r already in use"
                                          % tok[1], tok[2], tok[3])
                names.append(tok[1])
                cur.match_op(",")
        else:
            ctx = tuple(base_vars) + tuple(names)
            while not cur.at_end():
                tok = cur.peek()
                if tok[0] == "op" and tok[1] == ";":
                    break
                rels.append(_parse_expr(cur, field, ctx))
                if not cur.match_op(","):
                    break
        if not cur.at_end():
            cur.expect_op(";")
    return tuple(names), tuple(rels)


class _CaseParser:
    def __init__(self, text):
        self.lines = _tokenize(text)
        self.name = None
        self.p = None
        self.field = None
        self.blocks = []
        self.scheme_label = None
        self.scheme_vars = None
        self.scheme_rels = None
        self.algebra = None
        self.product = None
        self.scheme = None
        self.expects = []
        self.checks = []
        self.last_line = 1

    def parse(self):
        if not self.lines:
            raise CaseSyntaxError("empty case text", 1, 1)
        for toks in self.lines:
            self.last_line = toks[0][2]
            cur = _Cursor(toks, toks[0][2])
            head = cur.expect_name("a directive")
            handler = getattr(self, "_dir_" + head[1], None)
            if handler is None:
                raise CaseSyntaxError("unknown directive %r" % head[1],
                                      head[2], head[3])
            handler(head, cur)
        for missing, what in ((self.name, "case"), (self.field, "field"),
                              (self.scheme, "scheme")):
            if missing is None:
                raise CaseSyntaxError("missing %s directive" % what,
                                      self.last_line, 1)
        return Case(self.name, self.p, self.blocks, self.scheme_label,
                    self.scheme_vars, self.scheme_rels, self.expects,
                    self.checks, self.algebra, self.product, self.scheme)

    def _dir_case(self, head, cur):
        if self.name is not None:
            raise CaseSyntaxError("duplicate case directive",
                                  head[2], head[3])
        tok = cur.peek()
        if tok is None or tok[0] != "str":
            cur.error("expected a quoted case name")
        cur.advance()
        if not tok[1]:
            raise CaseSyntaxError("empty case name", tok[2], tok[3])
        self.name = tok[1]
        cur.expect_end()

    def _dir_field(self, head, cur):
        if self.name is None:
            raise CaseSyntaxError("field before case directive",
                                  head[2], head[3])
        if self.field is not None:
            raise CaseSyntaxError("duplicate field directive",
                                  head[2], head[3])
        tok = cur.expect_name("'p'")
        if tok[1] != "p":
            raise CaseSyntaxError("expected 'p', got %r" % tok[1],
                                  tok[2], tok[3])
        cur.expect_op("=")
        tok = cur.expect_int("a prime")
        cur.expect_end()
        self.p = tok[1]
        self.field = PrimeField(tok[1])

    def _dir_algebra(self, head, cur):
        if self.field is None:
            raise CaseSyntaxError("algebra before field directive",
                                  head[2], head[3])
        if self.scheme_label is not None:
            raise CaseSyntaxError("algebra after scheme block",
                                  head[2], head[3])
        if len(self.blocks) >= 2:
            raise CaseSyntaxError("at most two algebra blocks",
                                  head[2], head[3])
        label = cur.expect_name("a block label")[1]
        cur.expect_op(":")
        names, rels = _parse_sections(cur, self.field)
        self.blocks.append((label, names, rels))

    def _dir_scheme(self, head, cur):
        if not self.blocks:
            raise CaseSyntaxError("scheme before any algebra block",
                                  head[2], head[3])
        if self.scheme_label is not None:
            raise CaseSyntaxError("duplicate scheme block",
                                  head[2], head[3])
        label = cur.expect_name("a block label")[1]
        cur.expect_op(":")
        if len(self.blocks) == 1:
            _, avars, arels = self.blocks[0]
            self.algebra = AlgebraPresentation(self.field, avars, list(arels))
        else:
            a1 = AlgebraPresentation(self.field, self.blocks[0][1],
                                     list(self.blocks[0][2]))
            a2 = AlgebraPresentation(self.field, self.blocks[1][1],
                                     list(self.blocks[1][2]))
            self.product = product_algebra(a1, a2)
            self.algebra = self.product.presentation
        names, rels = _parse_sections(cur, self.field, self.algebra.vars)
        self.scheme_label = label
        self.scheme_vars = names
        self.scheme_rels = rels
        self.scheme = SchemePresentation(self.algebra, names, list(rels))

    def _dir_expect(self, head, cur):
        if self.scheme is None:
            raise CaseSyntaxError("expect before scheme block",
                                  head[2], head[3])
        tok = cur.expect_name("an expectation key")
        if tok[1] not in _EXPECT_KEYS:
            raise CaseSyntaxError(
                "unknown expectation %r (one of %s)"
                % (tok[1], ", ".join(_EXPECT_KEYS)), tok[2], tok[3])
        if any(k == tok[1] for k, _ in self.expects):
            raise CaseSyntaxError("duplicate expectation %r" % tok[1],
                                  tok[2], tok[3])
        cur.expect_op("=")
        vals = [cur.expect_int()[1]]
        while not cur.at_end():
            cur.match_op(",")
            vals.append(cur.expect_int()[1])
        self.expects.append((tok[1], tuple(vals)))

    def _dir_checks(self, head, cur):
        if self.scheme is None:
            raise CaseSyntaxError("checks before scheme block",
                                  head[2], head[3])
        while True:
            self.checks.append(self._one_check(cur))
            if cur.match_op(","):
                continue
            cur.expect_end()
            break

    def _one_check(self, cur):
        tok = cur.expect_name("a check name")
        name = tok[1]
        # hyphenated names (lemma-local, non-smooth) arrive as three tokens
        while True:
            nxt, after = cur.peek(), cur.peek_at(1)
            if (nxt is not None and nxt[0] == "op" and nxt[1] == "-"
                    and after is not None and after[0] == "name"):
                cur.advance()
                name += "-" + cur.advance()[1]
            else:
                break
        if name in _PLAIN_CHECKS:
            if cur.match_op("("):
                raise CaseSyntaxError("%s takes no arguments" % name,
                                      tok[2], tok[3])
            if name == "product" and self.product is None:
                raise CaseSyntaxError(
                    "product check needs two algebra blocks",
                    tok[2], tok[3])
            return (name,)
        if name == "adjunction":
            cur.expect_op("(")
            stages = [cur.expect_int("a stage")[1]]
            while cur.match_op(","):
                stages.append(cur.expect_int("a stage")[1])
            cur.expect_op(")")
            for m in stages:
                if m < 1:
                    raise CaseSyntaxError("stages must be positive",
                                          tok[2], tok[3])
            return ("adjunction", tuple(stages))
        if name == "cover":
            cur.expect_op("(")
            ctx = self.scheme.all_vars
            polys = [_parse_expr(cur, self.field, ctx)]
            while cur.match_op(","):
                polys.append(_parse_expr(cur, self.field, ctx))
            cur.expect_op(")")
            return ("cover", tuple(polys))
        raise CaseSyntaxError("unknown check %r" % name, tok[2], tok[3])


def parse_case(text):
    """Parse one case file into a Case with its presentations built."""
    return _CaseParser(text).parse()


def _render_block(kind, label, names, rels):
    parts = []
    if names:
        parts.append("vars " + ", ".join(names))
    if rels:
        parts.append("rels " + ", ".join(str(r) for r in rels))
    line = "%s %s :" % (kind, label)
    if parts:
        line += " " + " ; ".join(parts)
    return line


def _render_check(check):
    if check[0] == "adjunction":
        return "adjunction(%s)" % ", ".join(str(m) for m in check[1])
    if check[0] == "cover":
        return "cover(%s)" % ", ".join(str(h) for h in check[1])
    return check[0]


def render_case(case):
    """Text whose parse equals the given case.

    Coefficients come back normalized mod p (a relation written
    `y^2 - y - eps` renders as `y^2 + 6*y + 6*eps` over F_7), which
    parses to the same polynomials.
    """
    out = ['case "%s"' % case.name, "field p = %d" % case.p]
    for label, names, rels in case.algebra_blocks:
        out.append(_render_block("algebra", label, names, rels))
    out.append(_render_block("scheme", case.scheme_label, case.scheme_vars,
                             case.scheme_rels))
    for key, vals in case.expects:
        out.append("expect %s = %s" % (key, " ".join(str(v) for v in vals)))
    if case.checks:
        out.append("checks " + ", ".join(_render_check(c)
                                         for c in case.checks))
    return "\n".join(out) + "\n"
