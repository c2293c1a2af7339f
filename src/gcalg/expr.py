"""Parser, evaluator, and canonical printer for algebra expressions.

Surface syntax (ASCII only)::

    expr   := sum ;  sum := prod { ("+"|"-") prod } ;  prod := post { post }
    post   := atom { "^" int | "'" }
    atom   := "c[" uint "]" | "E[" uint "]" | "zeta" | "q" | rational | "(" expr ")"
    ket    := "|" uint { "," uint } ">" | "Omega"
    bra    := "<" uint { "," uint } "|"
    stateExpr  := [expr] ket
    scalarExpr := bra [expr] ket | bra uint { "," uint } ">"
    rational   := int [ "/" uint ] ;  int := ["-"] uint

Products are juxtaposition or an explicit ``*`` (also allowed between an
operator expression and a ket, matching the canonical printer's output).
The Dirac adjacency ``<a|b>`` shares one bar: after a bra, the parser looks
ahead without consuming, and reads digits closed by ``>`` as the ket; any
other continuation is an optional operator followed by a full ket.
A ``-`` is a sign only where an atom must begin; after a complete factor
it is always the binary minus.  ``'`` is the dagger and binds tightest;
``^`` with a negative exponent means the adjoint of the positive power.
Generator and digit ranges are validated at evaluation time against the
supplied context, not at parse time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclo import AlgebraContext, ContextMismatchError, CycloScalar, power_by_squaring
from .rep import QuditState, apply_element, basis_state, scalar_product
from .symbolic import AlgebraElement, projector_element

__all__ = [
    "EvalError",
    "MAX_ACTION_LETTERS",
    "MAX_PAREN_DEPTH",
    "MAX_PRODUCT_WORK",
    "MAX_PROJECTOR_WORK",
    "Node",
    "ParseError",
    "UnprintableError",
    "check_digit_limit",
    "eval_element",
    "eval_scalar",
    "eval_state",
    "parse",
    "print_canonical",
]


# Deepest parenthesis nesting the recursive-descent parser accepts.  Each
# level costs four Python frames, so about 240 levels fit under the default
# recursion limit; past this depth a positioned ParseError is raised instead.
MAX_PAREN_DEPTH = 200

# Largest work a product in an expression may take.  Forming the product of
# elements with s and t terms, whose coefficients store e and f entries in
# all, merges s * t pairs of 2n-long exponent tuples and multiplies e * f
# pairs of entries, so it is refused before it is formed when
# s * t * 2n + e * f exceeds this budget.  A chain or a power starts from
# its first factor, so the identity is never a factor of a checked product.
# A product near the budget takes under a second; the benchmark's eval
# products stay near 500.
MAX_PRODUCT_WORK = 2**16

# Most letters an element may apply to a ket in a state or bra-ket
# expression.  ``apply_element`` replays every letter of every term on the
# ket, so the letters (the sum of every term's exponents) are counted, and
# refused above this budget, before any is applied.  At about 2.5 us a
# letter the budget takes about 0.2 s; the benchmark's actions stay under
# 100 letters.
MAX_ACTION_LETTERS = 2**16

# Most exponents the projector leaves of one expression may form.  Each
# ``E[k]`` is N normal monomials of 2n exponents, so the E[k] leaves are
# counted, and refused when leaves * N * 2n exceeds this budget, before
# anything is formed.  One E[k] at N = 256, n = 1024 (524288 exponents) takes
# about 0.15 s; the benchmark's eval forms at most 72.
MAX_PROJECTOR_WORK = 2**20


class ParseError(ValueError):
    """Syntax error with the offending position (0-based character offset)."""

    def __init__(self, message: str, text: str, pos: int):
        self.pos = min(pos, len(text))
        self.line = text.count("\n", 0, self.pos) + 1
        self.column = self.pos - text.rfind("\n", 0, self.pos)
        super().__init__(f"syntax error at {self.line}:{self.column}: {message}")


class EvalError(ValueError):
    """An expression parsed but cannot be evaluated in the given context."""


class UnprintableError(ValueError):
    """A coefficient of the result is too large to write in the chosen format."""


def check_digit_limit(values) -> None:
    """Raise UnprintableError when a Fraction in ``values`` is too long to print.

    Exact output writes numerators and denominators in decimal, which Python
    refuses past its int/str conversion limit.
    """
    # A limit of 0, or no getter (before 3.10.7), means Python has none.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    longest = max((max(abs(v.numerator), v.denominator) for v in values), default=0)
    # Below 2^(3 limit) = 8^limit a number is short enough; 10**limit is
    # only worth computing above that.
    if limit and longest.bit_length() > 3 * limit and longest >= 10**limit:
        raise UnprintableError(
            f"result too large to print: a coefficient has more than {limit} digits, "
            "Python's int/str limit"
        )


@dataclass
class Node:
    """AST node."""

    kind: str
    value: object = None
    children: tuple[Node, ...] = field(default=())


_SYMBOLS = "[]()|<>,^'+-*/"


def _lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < size and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < size and text[j].isalpha():
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", text, i)
    # Two EOF tokens: the parser never moves past the first, so a peek one
    # token ahead is always in range.
    tokens += [("EOF", "", size)] * 2
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0):
        return self.tokens[self.pos + ahead]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, self.text, tok[2])

    def expect(self, kind: str, what: str | None = None):
        tok = self.peek()
        if tok[0] != kind:
            self.error(f"expected {what or kind!r}", tok)
        return self.next()

    def _int(self, tok) -> int:
        # int() refuses literals longer than Python's int/str conversion
        # limit; a limit of 0, or no getter (before 3.10.7), means none.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and len(tok[1]) > limit:
            self.error(f"integer literal longer than {limit} digits", tok)
        return int(tok[1])

    def _uint(self) -> int:
        return self._int(self.expect("NUMBER", "an unsigned integer"))

    # int := ["-"] uint
    def _signed(self, what: str) -> int:
        negative = self.peek()[0] == "-"
        if negative:
            self.next()
        value = self._int(self.expect("NUMBER", what))
        return -value if negative else value

    def _at_atom(self, ahead: int = 0) -> bool:
        kind, textv, _ = self.peek(ahead)
        if kind == "NUMBER" or kind == "(":
            return True
        return kind == "NAME" and textv in ("c", "E", "zeta", "q")

    def _at_ket(self, ahead: int = 0) -> bool:
        kind, textv, _ = self.peek(ahead)
        return kind == "|" or (kind == "NAME" and textv == "Omega")

    # atom := "c[" uint "]" | "E[" uint "]" | "zeta" | "q" | rational | "(" expr ")"
    def atom(self) -> Node:
        kind, textv, _ = self.peek()
        if kind == "NUMBER" or kind == "-":
            return self.rational()
        if kind == "NAME":
            if textv in ("c", "E"):
                self.next()
                self.expect("[", "'[' after the generator name")
                index = self._uint()
                self.expect("]", "']'")
                return Node("gen" if textv == "c" else "proj", index)
            if textv == "zeta":
                self.next()
                return Node("zeta")
            if textv == "q":
                self.next()
                return Node("q")
            self.error(f"unknown name {textv!r}")
        if kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                self.error(f"parentheses nested deeper than {MAX_PAREN_DEPTH} levels")
            self.next()
            self.depth += 1
            inner = self.sum()
            self.depth -= 1
            self.expect(")", "')'")
            return inner
        self.error("expected an atom (c[i], E[k], zeta, q, a rational, or '(')")

    # rational := int [ "/" uint ]
    def rational(self) -> Node:
        numerator = self._signed("an integer")
        denominator = 1
        if self.peek()[0] == "/":
            self.next()
            dtok = self.expect("NUMBER", "a denominator")
            denominator = self._int(dtok)
            if denominator == 0:
                raise ParseError("zero denominator", self.text, dtok[2])
        return Node("rational", Fraction(numerator, denominator))

    # post := atom { "^" int | "'" }
    def post(self) -> Node:
        node = self.atom()
        while True:
            kind = self.peek()[0]
            if kind == "^":
                self.next()
                node = Node("pow", self._signed("an integer exponent"), (node,))
            elif kind == "'":
                self.next()
                node = Node("dagger", None, (node,))
            else:
                return node

    # prod := post { ["*"] post }     ('*' before a ket is left unconsumed)
    def prod(self) -> Node:
        factors = [self.post()]
        while True:
            kind, _, _ = self.peek()
            if kind == "*":
                if not self._at_atom(1):
                    break
                self.next()
                factors.append(self.post())
            elif self._at_atom():
                factors.append(self.post())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Node("product", None, tuple(factors))

    # sum := prod { ("+"|"-") prod }
    def sum(self) -> Node:
        terms = [self.prod()]
        while True:
            kind = self.peek()[0]
            if kind == "+":
                self.next()
                terms.append(self.prod())
            elif kind == "-":
                self.next()
                rhs = self.prod()
                terms.append(Node("product", None, (Node("rational", Fraction(-1)), rhs)))
            else:
                break
        if len(terms) == 1:
            return terms[0]
        return Node("sum", None, tuple(terms))

    def _digits(self, closing: str) -> tuple[int, ...]:
        digits = [self._uint()]
        while self.peek()[0] == ",":
            self.next()
            digits.append(self._uint())
        self.expect(closing, f"{closing!r}")
        return tuple(digits)

    # ket := "|" uint {"," uint} ">" | "Omega"
    def ket(self) -> Node:
        kind, textv, _ = self.peek()
        if kind == "NAME" and textv == "Omega":
            self.next()
            return Node("ket")
        self.expect("|", "a ket")
        return Node("ket", self._digits(">"))

    # bra := "<" uint {"," uint} "|"
    def bra(self) -> Node:
        self.expect("<", "a bra")
        return Node("bra", self._digits("|"))

    def _shared_bar_ket(self) -> bool:
        # Whether the tokens ahead are digits and '>', the ket of a Dirac
        # adjacency "<a|b>" that shares the bra's bar.  Nothing is consumed;
        # an overlong digit is reported here, wherever the scan would end.
        ahead = 0
        while self.peek(ahead)[0] == "NUMBER":
            self._int(self.peek(ahead))
            if self.peek(ahead + 1)[0] != ",":
                return self.peek(ahead + 1)[0] == ">"
            ahead += 2
        return False

    # top := [bra] ( digits ">" | [sum ["*"]] [ket] )
    def top(self) -> Node:
        bra = self.bra() if self.peek()[0] == "<" else None
        operator = ket = None
        if bra is not None and self._shared_bar_ket():
            ket = Node("ket", self._digits(">"))
        else:
            if not self._at_ket():
                operator = self.sum()
                if self.peek()[0] == "*" and self._at_ket(1):
                    self.next()
            if bra is not None or self._at_ket():
                ket = self.ket()
        self.expect("EOF", "end of input")
        if ket is None:
            return operator
        parts = tuple(part for part in (bra, operator, ket) if part is not None)
        return Node("apply" if bra is None else "sandwich", None, parts)


def parse(text: str) -> Node:
    """Parse an element, state, or bra-ket expression into an AST.

    The root is a ``sandwich`` node for scalar expressions, an ``apply``
    node for states, and an operator node otherwise.
    """
    return _Parser(text).top()


def _eval_operator(node: Node, ctx: AlgebraContext) -> AlgebraElement:
    kind = node.kind
    if kind == "rational":
        return AlgebraElement.from_scalar(ctx, node.value)
    if kind == "q":
        return AlgebraElement.from_scalar(ctx, ctx.q())
    if kind == "zeta":
        return AlgebraElement.from_scalar(ctx, ctx.zeta())
    if kind == "gen":
        if not 1 <= node.value <= ctx.num_generators:
            raise EvalError(
                f"generator index {node.value} out of range 1..{ctx.num_generators}"
            )
        return AlgebraElement.generator(ctx, node.value)
    if kind == "proj":
        if not 1 <= node.value <= ctx.n:
            raise EvalError(f"projector index {node.value} out of range 1..{ctx.n}")
        return projector_element(ctx, node.value)
    if kind in ("pow", "dagger"):
        # A postfix chain such as x^2'^3 nests one node per operator; walk it
        # in a loop so that long chains cannot exhaust the recursion limit.
        chain = []
        while node.kind in ("pow", "dagger"):
            chain.append(node)
            node = node.children[0]
        out = _eval_operator(node, ctx)
        for op in reversed(chain):
            out = _power(out, op.value) if op.kind == "pow" else out.adjoint()
        return out
    if kind == "product":
        out = _eval_operator(node.children[0], ctx)
        for child in node.children[1:]:
            out = _printable_product(out, _eval_operator(child, ctx))
        return out
    if kind == "sum":
        # One map takes every child in turn, as the fold out = out + child
        # would: a key a child adds to is summed and then zero-tested, so
        # stored forms and key order match the fold without re-merging the
        # running sum per child.
        terms = {}
        for child in node.children:
            summed = []
            for key, value in _eval_operator(child, ctx).terms.items():
                if key in terms:
                    terms[key] = terms[key] + value
                    summed.append(key)
                else:
                    terms[key] = value
            for key in summed:
                if terms[key].is_zero():
                    del terms[key]
        return AlgebraElement._raw(ctx, terms)
    raise EvalError(f"expected an operator expression, found a {kind} node")


def _stored_size(x: AlgebraElement) -> int:
    # Terms times their stored coefficient entries.
    return sum(len(coeff.coeffs) for coeff in x.terms.values())


def _printable_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    # Every product an expression forms, in a chain or a power, passes both
    # budgets: MAX_PRODUCT_WORK before it is formed, the digit limit after.
    work = len(a.terms) * len(b.terms) * 2 * a.ctx.n + _stored_size(a) * _stored_size(b)
    if work > MAX_PRODUCT_WORK:
        raise EvalError(
            f"result too large: a product would take {work} steps (term pairs times 2n, "
            f"plus coefficient entry pairs), more than the budget of {MAX_PRODUCT_WORK}"
        )
    out = a * b
    check_digit_limit([v for coeff in out.terms.values() for v in coeff.coeffs.values()])
    return out


def _power(x: AlgebraElement, k: int) -> AlgebraElement:
    # x^k as AlgebraElement.__pow__ forms it, but every product is checked:
    # coefficients can double in length and terms multiply per squaring, so a
    # huge k would otherwise run without bound on a result never printed.
    out = power_by_squaring(x, abs(k), AlgebraElement.one(x.ctx), _printable_product)
    return out.adjoint() if k < 0 else out


def _eval_label(node: Node, ctx: AlgebraContext) -> QuditState:
    # The basis state of a ket or bra node; the Omega ket has no digits.
    digits = node.value
    if digits is None:
        digits = (0,) * ctx.n
    if len(digits) != ctx.n:
        raise EvalError(f"{node.kind} has {len(digits)} digits, expected {ctx.n}")
    if any(not 0 <= d < ctx.N for d in digits):
        raise EvalError(f"{node.kind} digits must lie in [0, {ctx.N}): {digits}")
    return basis_state(ctx, digits)


# What the expression language calls a node that is not an operator.
_NOT_OPERATORS = {"apply": "a state", "ket": "a state", "sandwich": "a bra-ket", "bra": "a bra"}


def _what(ast: Node) -> str:
    return _NOT_OPERATORS.get(ast.kind, "an element")


def _act(node: Node, ket: QuditState) -> QuditState:
    # The operator expression ``node`` applied to ``ket``, within MAX_ACTION_LETTERS.
    element = eval_element(node, ket.ctx)
    letters = sum(sum(exps) for exps in element.terms)
    if letters > MAX_ACTION_LETTERS:
        raise EvalError(
            f"result too large: acting on the ket would take {letters} letters (the sum "
            f"of every term's exponents), more than the budget of {MAX_ACTION_LETTERS}"
        )
    return apply_element(element, ket)


def eval_element(ast: Node, ctx: AlgebraContext) -> AlgebraElement:
    """Evaluate an operator expression to an exact algebra element.

    Raises EvalError, before anything is formed, when its projector leaves
    would form more than ``MAX_PROJECTOR_WORK`` exponents.
    """
    if ast.kind in _NOT_OPERATORS:
        raise EvalError(f"expected an element expression, got {_what(ast)}")
    nodes = [ast]
    for node in nodes:  # visits the children appended as it goes
        nodes += node.children
    work = sum(node.kind == "proj" for node in nodes) * ctx.N * 2 * ctx.n
    if work > MAX_PROJECTOR_WORK:
        raise EvalError(
            f"result too large: the projectors would form {work} exponents (E[k] leaves "
            f"times N times 2n), more than the budget of {MAX_PROJECTOR_WORK}"
        )
    return _eval_operator(ast, ctx)


def eval_state(ast: Node, ctx: AlgebraContext) -> QuditState:
    """Evaluate a ket expression (with optional operator prefix) to a state.

    Raises EvalError, before any letter is applied, when the operator's
    letters exceed ``MAX_ACTION_LETTERS``.
    """
    if ast.kind != "apply":
        raise EvalError(f"expected a state expression, got {_what(ast)}")
    ket = _eval_label(ast.children[-1], ctx)
    if len(ast.children) == 1:
        return ket
    return _act(ast.children[0], ket)


def eval_scalar(ast: Node, ctx: AlgebraContext) -> CycloScalar:
    """Evaluate a bra-operator-ket sandwich to an exact scalar.

    The bra slot is conjugate-linear: <b|x|a> = (|b>, x|a>) in the Hermitian
    product.  The operator's letters are bounded as in ``eval_state``.
    """
    if ast.kind != "sandwich":
        raise EvalError(f"expected a bra-ket expression, got {_what(ast)}")
    bra_state = _eval_label(ast.children[0], ctx)
    ket_state = _eval_label(ast.children[-1], ctx)
    if len(ast.children) == 3:
        ket_state = _act(ast.children[1], ket_state)
    return scalar_product(bra_state, ket_state)


def _root_as_q_zeta(ctx: AlgebraContext, k: int) -> tuple[int, int, int]:
    """Decompose w^k as sign * q^a * zeta^b with b in {0, 1}.

    For even N zeta is an odd power of w, so b = k mod 2 and no sign is
    needed.  For odd N zeta is itself a power of q, so roots decompose as
    +-q^a instead (odd powers of w pick up the sign -1 = w^N).
    """
    N = ctx.N
    if k % 2 == 0:
        return 1, (k // 2) % N, 0
    if N % 2 == 0:
        return 1, ((k - ctx.zeta_exp) // 2) % N, 1
    return -1, ((k - N) // 2) % N, 0


def _scalar_terms(s: CycloScalar, ctx: AlgebraContext) -> list[tuple[Fraction, int, int]]:
    if s.order != ctx.order:
        raise ContextMismatchError("scalar ring does not match the context")
    out = []
    for k, r in sorted(s.coeffs.items()):
        sign, a, b = _root_as_q_zeta(ctx, k)
        out.append((sign * r, a, b))
    return out


def _term_body(mag: Fraction, a: int, b: int) -> str:
    factors = []
    if mag != 1:
        factors.append(str(mag))
    if a:
        factors.append("q" if a == 1 else f"q^{a}")
    if b:
        factors.append("zeta")
    if not factors:
        factors.append("1")
    return " * ".join(factors)


def _negate_body(body: str) -> str:
    # A leading '-' is only a sign before a digit; otherwise spell out -1.
    if body[0].isdigit():
        return "-" + body
    return "-1 * " + body


def _signed_join(pieces: list[tuple[bool, str]]) -> str:
    negative, body = pieces[0]
    out = _negate_body(body) if negative else body
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def _scalar_text(s: CycloScalar, ctx: AlgebraContext) -> str:
    terms = _scalar_terms(s, ctx)
    if not terms:
        return "0"
    return _signed_join([(r < 0, _term_body(abs(r), a, b)) for r, a, b in terms])


def _coeff_piece(coeff: CycloScalar, ctx: AlgebraContext) -> tuple[bool, str, bool]:
    """Coefficient as (negative, body, is_plain_one) for use before generators."""
    terms = _scalar_terms(coeff, ctx)
    if len(terms) == 1:
        r, a, b = terms[0]
        if r == 1 and a == 0 and b == 0:
            return False, "1", True
        return r < 0, _term_body(abs(r), a, b), False
    return False, f"({_scalar_text(coeff, ctx)})", False


def _element_text(x: AlgebraElement) -> str:
    if not x.terms:
        return "0"
    ctx = x.ctx
    pieces = []
    for exps in sorted(x.terms):
        gens = " ".join(
            f"c[{i + 1}]" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exps)
            if e
        )
        negative, body, _ = _coeff_piece(x.terms[exps], ctx)
        if not gens:
            text = body
        elif body == "1":
            text = gens
        else:
            text = f"{body} * {gens}"
        pieces.append((negative, text))
    return _signed_join(pieces)


def _state_text(s: QuditState) -> str:
    ctx = s.ctx
    if not s.amps:
        return "0 * Omega"
    if len(s.amps) == 1:
        (digits, amp), = s.amps.items()
        ket = "|" + ",".join(map(str, digits)) + ">"
        negative, body, is_one = _coeff_piece(amp, ctx)
        if is_one:
            return ket
        text = f"{body} * {ket}"
        return _negate_body(text) if negative else text
    # General states print as an even-generator element applied to Omega:
    # c_2^{a_1} ... c_{2n}^{a_n} reaches |a_1..a_n> with phase exactly one.
    terms = {}
    for digits, amp in s.amps.items():
        exps = [0] * ctx.num_generators
        for position, digit in enumerate(digits):
            exps[2 * position + 1] = digit
        terms[tuple(exps)] = amp
    element = AlgebraElement(ctx, terms)
    return f"({_element_text(element)}) Omega"


def print_canonical(value, ctx: AlgebraContext | None = None) -> str:
    """Canonical text form; ``parse`` + evaluation reproduces the value.

    Elements and states carry their context; printing a bare scalar needs
    the context passed explicitly (the zeta choice fixes the spelling).
    """
    if isinstance(value, AlgebraElement):
        return _element_text(value)
    if isinstance(value, QuditState):
        return _state_text(value)
    if isinstance(value, CycloScalar):
        if ctx is None:
            raise TypeError("printing a bare scalar requires the context")
        return _scalar_text(value, ctx)
    raise TypeError(f"cannot print a {type(value).__name__} canonically")
