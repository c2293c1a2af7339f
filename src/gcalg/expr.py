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

from .cyclo import AlgebraContext, ContextMismatchError, CycloScalar, power_by_squaring, sum_terms
from .cyclo import _reduction_row
from .rep import QuditState, apply_element, basis_state, scalar_product
from .symbolic import AlgebraElement, projector_element

__all__ = [
    "EvalError",
    "MAX_EVAL_WORK",
    "MAX_PAREN_DEPTH",
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

# Most steps one evaluation of an operator expression may take.  Every node is
# charged before it is formed, at what forming it walks.  A leaf builds one
# 2n-long exponent tuple, 2n steps, and so does the identity each power ^k is
# handed; an E[k] leaf builds N of them, N * 2n.  A product of elements with
# s and t terms, whose coefficients store e and f entries in all, merges
# s * t pairs of exponent tuples and multiplies e * f pairs of entries,
# s * t * 2n + e * f.  An adjoint of s terms and e entries walks s exponent
# tuples and conjugates e entries, s * 2n + e.  A sum merges each child's t
# terms into its running map, t * 2n, and zero-tests every coefficient the
# child adds to: the entries of both operands times the nonzero coefficients
# of Phi_2N, the steps of each row ``CycloScalar.is_zero`` reduces.  A state
# or bra-ket expression then applies the element to its ket letter by letter,
# each letter building one n-long basis label: n steps per letter (the sum of
# every term's exponents), all charged before any letter is applied.  The step
# that would take the evaluation's count past this budget is refused, so a
# long chain or sum of small nodes is bounded as a whole, not node by node.
# A chain or a power starts from its first factor, so the identity is never a
# factor of a charged product.  A step takes from about 0.01 us (a leaf or a
# merge at n = 1024) to about 10 us (a product with a projector at N = 255,
# n = 1, whose zero tests of merged Fraction coefficients are not charged),
# so an evaluation near the budget takes from about 10 ms to about 10 s
# (E[1] times the 1296-term sum of c[1]^a c[2]^b, 1047030 steps, 9.9 s).
# The benchmark's evaluations take at most 850 steps.
MAX_EVAL_WORK = 2**20


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


def _stored_size(x: AlgebraElement) -> int:
    # Terms times their stored coefficient entries.
    return sum(len(coeff.coeffs) for coeff in x.terms.values())


class _Evaluation:
    # One evaluation of an operator expression and the steps it has been
    # charged against MAX_EVAL_WORK, each before what it pays for is formed.

    def __init__(self, ctx: AlgebraContext):
        self.ctx = ctx
        self.work = 0
        # The nonzero coefficients of Phi_2N: the steps of one row of a zero test.
        self.zero_test_row = len(_reduction_row(ctx.order)[1])

    def charge(self, steps: int) -> None:
        self.work += steps
        if self.work > MAX_EVAL_WORK:
            raise EvalError(
                f"result too large: the evaluation would take {self.work} steps (2n per leaf or "
                "power, N * 2n per E[k], term pairs * 2n + coefficient entry pairs per product, "
                "terms * 2n + coefficient entries per adjoint, terms * 2n + merged entries * "
                "nonzero terms of Phi_2N per summand, n per letter applied to a ket), more than "
                f"the budget of {MAX_EVAL_WORK}"
            )

    def operator(self, node: Node) -> AlgebraElement:
        ctx = self.ctx
        kind = node.kind
        if kind in ("rational", "q", "zeta"):
            self.charge(2 * ctx.n)
            value = node.value if kind == "rational" else getattr(ctx, kind)()
            return AlgebraElement.from_scalar(ctx, value)
        if kind == "gen":
            if not 1 <= node.value <= ctx.num_generators:
                raise EvalError(
                    f"generator index {node.value} out of range 1..{ctx.num_generators}"
                )
            self.charge(2 * ctx.n)
            return AlgebraElement.generator(ctx, node.value)
        if kind == "proj":
            if not 1 <= node.value <= ctx.n:
                raise EvalError(f"projector index {node.value} out of range 1..{ctx.n}")
            self.charge(ctx.N * 2 * ctx.n)
            return projector_element(ctx, node.value)
        if kind in ("pow", "dagger"):
            # A postfix chain such as x^2'^3 nests one node per operator; walk it
            # in a loop so that long chains cannot exhaust the recursion limit.
            chain = []
            while node.kind in ("pow", "dagger"):
                chain.append(node)
                node = node.children[0]
            # A power is formed as AlgebraElement.__pow__ forms it, but each of its
            # products is charged: coefficients can double in length and terms
            # multiply per squaring, so a huge exponent would otherwise run without
            # bound on a result never printed.  A negative power is the adjoint of
            # the positive one.
            out = self.operator(node)
            for op in reversed(chain):
                if op.kind == "pow":
                    self.charge(2 * ctx.n)  # for the identity power_by_squaring is handed
                    one = AlgebraElement.one(ctx)
                    out = power_by_squaring(out, abs(op.value), one, self.product)
                if op.kind == "dagger" or op.value < 0:
                    self.charge(len(out.terms) * 2 * ctx.n + _stored_size(out))
                    out = out.adjoint()
            return out
        if kind == "product":
            out = self.operator(node.children[0])
            for child in node.children[1:]:
                out = self.product(out, self.operator(child))
            return out
        if kind == "sum":
            # Each child is merged into one running map, as out = out + child
            # would merge it; the entries of every coefficient it adds to are
            # charged for the zero test that follows.
            out = {}
            for child in node.children:
                x = self.operator(child).terms
                tested = sum(len(out[k].coeffs) + len(c.coeffs) for k, c in x.items() if k in out)
                self.charge(len(x) * 2 * ctx.n + tested * self.zero_test_row)
                sum_terms(x.items(), out)
            return AlgebraElement._raw(ctx, out)
        raise EvalError(f"expected an operator expression, found a {kind} node")

    def act(self, node: Node, ket: QuditState) -> QuditState:
        # The operator expression ``node`` applied to the basis state ``ket``.
        element = self.operator(node)
        self.charge(self.ctx.n * sum(sum(exps) for exps in element.terms))
        return apply_element(element, ket)

    def product(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        # Every product an expression forms, in a chain or a power, is charged
        # before it is formed and passes the digit limit after.
        self.charge(len(a.terms) * len(b.terms) * 2 * self.ctx.n
                    + _stored_size(a) * _stored_size(b))
        out = a * b
        check_digit_limit([v for coeff in out.terms.values() for v in coeff.coeffs.values()])
        return out


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


def eval_element(ast: Node, ctx: AlgebraContext) -> AlgebraElement:
    """Evaluate an operator expression to an exact algebra element.

    Every node (leaf, ``E[k]``, power, product, adjoint and summand) is
    charged its steps before it is formed, against one budget per call,
    ``MAX_EVAL_WORK``; the one that would take the count past it raises
    EvalError instead.
    """
    if ast.kind in _NOT_OPERATORS:
        raise EvalError(f"expected an element expression, got {_what(ast)}")
    return _Evaluation(ctx).operator(ast)


def eval_state(ast: Node, ctx: AlgebraContext) -> QuditState:
    """Evaluate a ket expression (with optional operator prefix) to a state.

    The operator is evaluated as in ``eval_element``, and its action on the
    ket is charged to the same ``MAX_EVAL_WORK`` budget, n steps per letter
    applied, before any letter is applied.
    """
    if ast.kind != "apply":
        raise EvalError(f"expected a state expression, got {_what(ast)}")
    ket = _eval_label(ast.children[-1], ctx)
    if len(ast.children) == 1:
        return ket
    return _Evaluation(ctx).act(ast.children[0], ket)


def eval_scalar(ast: Node, ctx: AlgebraContext) -> CycloScalar:
    """Evaluate a bra-operator-ket sandwich to an exact scalar.

    The bra slot is conjugate-linear: <b|x|a> = (|b>, x|a>) in the Hermitian
    product.  The operator and its n steps per letter applied to the ket are
    charged to one ``MAX_EVAL_WORK`` budget, as in ``eval_state``.
    """
    if ast.kind != "sandwich":
        raise EvalError(f"expected a bra-ket expression, got {_what(ast)}")
    bra_state = _eval_label(ast.children[0], ctx)
    ket_state = _eval_label(ast.children[-1], ctx)
    if len(ast.children) == 3:
        ket_state = _Evaluation(ctx).act(ast.children[1], ket_state)
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


def _coeff_piece(coeff: CycloScalar, ctx: AlgebraContext) -> tuple[bool, str]:
    """Coefficient as (negative, body) for use before generators."""
    terms = _scalar_terms(coeff, ctx)
    if len(terms) == 1:
        r, a, b = terms[0]
        return r < 0, _term_body(abs(r), a, b)
    return False, f"({_scalar_text(coeff, ctx)})"


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
        negative, body = _coeff_piece(x.terms[exps], ctx)
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
        negative, body = _coeff_piece(amp, ctx)
        text = ket if body == "1" else f"{body} * {ket}"
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
