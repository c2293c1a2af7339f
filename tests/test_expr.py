"""Tests for the expression parser, evaluator, and canonical printer."""

import functools
import importlib.util
import operator
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcalg import (
    MAX_PAREN_DEPTH,
    AlgebraContext,
    AlgebraElement,
    EvalError,
    ParseError,
    apply_projector,
    basis_state,
    dense_matrix,
    eval_element,
    eval_scalar,
    eval_state,
    ground_state,
    parse,
    print_canonical,
    projector_element,
)
from helpers import identity_fold_eval, random_element, random_state


@functools.cache
def _load_workloads():
    # The benchmark's op lists, read from perfbench/workloads.py.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass looks itself up in sys.modules
    return module


class TestParsing:
    def test_product_by_juxtaposition(self):
        ast = parse("c[1] c[2]")
        assert ast.kind == "product"
        assert [child.kind for child in ast.children] == ["gen", "gen"]
        assert [child.value for child in ast.children] == [1, 2]

    def test_state_with_scalar_and_negative_power(self):
        ast = parse("zeta^2 * c[3]^-1 |0,0>")
        assert ast.kind == "apply"
        assert ast.children[-1].kind == "ket"
        assert ast.children[-1].value == (0, 0)

    def test_sandwich_with_dagger(self):
        ast = parse("<0,0| c[2]' c[2] |0,0>")
        assert ast.kind == "sandwich"
        assert ast.children[0].kind == "bra"
        assert ast.children[0].value == (0, 0)

    def test_precedence(self):
        ctx = AlgebraContext(3, 2)
        # '^' binds tighter than juxtaposition
        tight = eval_element(parse("c[1] c[2]^2"), ctx)
        grouped = eval_element(parse("(c[1] c[2])^2"), ctx)
        explicit = eval_element(parse("c[1]"), ctx) * eval_element(parse("c[2]"), ctx) ** 2
        assert tight == explicit
        assert tight != grouped
        # juxtaposition binds tighter than '+'
        summed = eval_element(parse("c[1] c[2] + 1"), ctx)
        product = eval_element(parse("c[1] c[2]"), ctx)
        assert summed == product + AlgebraElement.one(ctx)

    def test_postfix_ordering(self):
        ctx = AlgebraContext(3, 2)
        a = eval_element(parse("c[1]^2'"), ctx)
        b = eval_element(parse("c[1]'^2"), ctx)
        c1 = AlgebraElement.generator(ctx, 1)
        assert a == (c1 * c1).adjoint()
        assert b == c1.adjoint() * c1.adjoint()
        assert a == b  # the dagger is an antihomomorphism on a single generator

    def test_minus_is_binary_after_a_factor(self):
        ctx = AlgebraContext(3, 2)
        assert eval_element(parse("c[1] - 2"), ctx) == (
            AlgebraElement.generator(ctx, 1) - AlgebraElement.from_scalar(ctx, 2)
        )
        assert eval_element(parse("-2"), ctx) == AlgebraElement.from_scalar(ctx, -2)
        assert eval_element(parse("-1/2 * c[1]"), ctx) == eval_element(parse("c[1]"), ctx) * -1 * eval_element(parse("1/2"), ctx)

    @pytest.mark.parametrize(
        "bad",
        [
            "c[",
            "c[1",
            "<0,0|",
            "1 +",
            "c[1]^",
            "|0,0",
            "c]",
            "zeta^^2",
            "q *",
            "(1 + q",
            "1/0",
            "c[1] @",
        ],
    )
    def test_invalid_inputs_have_positions(self, bad):
        with pytest.raises(ParseError) as info:
            parse(bad)
        assert 0 <= info.value.pos <= len(bad)

    def test_deep_nesting_is_a_positioned_error(self):
        deep = "(" * 3000 + "c[1]" + ")" * 3000
        with pytest.raises(ParseError) as info:
            parse(deep)
        assert 0 <= info.value.pos <= len(deep)
        assert deep[info.value.pos] == "("
        ctx = AlgebraContext(3, 1)
        limit = "(" * MAX_PAREN_DEPTH + "c[1]" + ")" * MAX_PAREN_DEPTH
        assert eval_element(parse(limit), ctx) == eval_element(parse("c[1]"), ctx)

    @pytest.mark.parametrize(
        "template",
        ["c[{}]", "c[1]^{}", "c[1]^-{}", "{} c[1]", "-{}", "1/{}", "|{}>", "<{}|0>",
         "<0|{}>", "<0,{}|c[1]|0,0>"],
    )
    def test_overlong_literal_is_a_positioned_error(self, template):
        # int() refuses literals past Python's int/str limit (4300 digits by
        # default); the parser must report them, not leak a ValueError.
        literal = "9" * (sys.get_int_max_str_digits() + 1)
        text = template.format(literal)
        with pytest.raises(ParseError) as info:
            parse(text)
        assert 0 <= info.value.pos <= len(text)
        assert info.value.pos == text.index(literal)

    @pytest.mark.parametrize("text,line,column", [
        ("c[1] *", 1, 6), ("c[1", 1, 4), ("(c[1]", 1, 6), ("c[1]^", 1, 6), ("<0|", 1, 4),
    ])
    def test_end_of_input_errors_point_past_the_text(self, text, line, column):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value).startswith(f"syntax error at {line}:{column}: ")

    def test_non_ascii_digits_are_rejected(self):
        with pytest.raises(ParseError) as info:
            parse("c[\u00b2]")
        assert info.value.pos == 2

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([
        "c[", "E[", "]", "zeta", "q", "Omega", "(", ")", "|", "<", ">", ",", "^", "'",
        "+", "-", "*", "/", " ", "0", "1", "2", "17", "9" * 4301, "0" * 5000,
    ]), max_size=40))
    def test_any_token_string_parses_or_raises_positioned_error(self, tokens):
        text = "".join(tokens)
        try:
            parse(text)
        except ParseError as exc:
            assert 0 <= exc.pos <= len(text)


class TestEvaluation:
    def test_unitarity_sandwich(self):
        ctx = AlgebraContext(3, 2)
        assert eval_scalar(parse("<0,0| c[2]' c[2] |0,0>"), ctx) == 1

    def test_generator_on_ground(self):
        ctx = AlgebraContext(3, 2)
        got = eval_state(parse("c[1]|0,0>"), ctx)
        assert got == ctx.zeta() * basis_state(ctx, (1, 0))

    def test_swapped_generators(self):
        ctx = AlgebraContext(3, 2)
        got = eval_element(parse("c[2] c[1]"), ctx)
        expected = AlgebraElement(ctx, {(1, 1, 0, 0): ctx.q(-1)})
        assert got == expected

    def test_omega_alias(self):
        ctx = AlgebraContext(3, 2)
        assert eval_state(parse("Omega"), ctx) == ground_state(ctx)
        ctx3 = AlgebraContext(2, 3)
        assert eval_state(parse("Omega"), ctx3) == ground_state(ctx3)

    def test_bare_ket_and_sandwich_without_operator(self):
        ctx = AlgebraContext(3, 2)
        assert eval_state(parse("|1,2>"), ctx) == basis_state(ctx, (1, 2))
        assert eval_scalar(parse("<1,2|1,2>"), ctx) == 1
        assert eval_scalar(parse("<1,2|0,2>"), ctx) == 0
        # the double-bar spelling composes the bra and ket rules directly
        assert eval_scalar(parse("<1,2||1,2>"), ctx) == 1

    def test_projector_in_both_positions(self):
        ctx = AlgebraContext(3, 2)
        assert eval_element(parse("E[1]"), ctx) == projector_element(ctx, 1)
        assert dense_matrix(eval_element(parse("E[1]"), ctx)) == dense_matrix(projector_element(ctx, 1))
        kept = eval_state(parse("E[1]|0,2>"), ctx)
        assert kept == basis_state(ctx, (0, 2))
        killed = eval_state(parse("E[1]|1,2>"), ctx)
        assert killed == apply_projector(1, basis_state(ctx, (1, 2)))
        assert killed.amps == {}

    def test_negative_power_means_adjoint_power(self):
        ctx = AlgebraContext(3, 2)
        inverse = eval_element(parse("c[3]^-1"), ctx)
        c3 = AlgebraElement.generator(ctx, 3)
        assert inverse == c3.adjoint()
        assert c3 * inverse == AlgebraElement.one(ctx)
        x = "(c[1] + 2 q c[3] - 1/2)"
        assert eval_element(parse(x + "^-3"), ctx) == eval_element(parse(f"({x}^3)'"), ctx)

    @pytest.mark.parametrize("postfix", ["^1", "'"])
    def test_long_postfix_chains_evaluate_without_recursion(self, postfix):
        ctx = AlgebraContext(3, 1)
        c1 = AlgebraElement.generator(ctx, 1)
        assert eval_element(parse("c[1]" + postfix * 3000), ctx) == c1

    def test_kind_mismatches(self):
        ctx = AlgebraContext(3, 2)
        with pytest.raises(EvalError):
            eval_element(parse("|0,0>"), ctx)
        with pytest.raises(EvalError):
            eval_state(parse("c[1]"), ctx)
        with pytest.raises(EvalError):
            eval_scalar(parse("c[1] |0,0>"), ctx)

    def test_range_errors(self):
        ctx = AlgebraContext(3, 2)
        with pytest.raises(EvalError):
            eval_element(parse("c[5]"), ctx)
        with pytest.raises(EvalError):
            eval_element(parse("E[3]"), ctx)
        with pytest.raises(EvalError):
            eval_state(parse("|0,3>"), ctx)
        with pytest.raises(EvalError):
            eval_state(parse("|0,0,0>"), ctx)
        with pytest.raises(EvalError):
            eval_scalar(parse("<0|0,0>"), ctx)


def _stored_terms(x):
    # Keys in stored order, each with its stored coefficient map and types.
    return [(k, [(e, type(v), v) for e, v in c.coeffs.items()]) for k, c in x.terms.items()]


class TestSums:
    def test_sum_matches_the_pairwise_fold(self):
        # Children that cancel, plainly (x and -x) or only modulo Phi_2N
        # (q^0 x + ... + q^(N-1) x), and are added again later must leave the
        # stored forms and key order that out = out + child leaves.
        rng = random.Random(9)
        cancelled = 0
        for _ in range(80):
            ctx = AlgebraContext(rng.randint(2, 5), rng.randint(1, 2))
            pool = [print_canonical(random_element(rng, ctx, 3), ctx) for _ in range(3)]
            children = []
            for _ in range(rng.randint(2, 6)):
                x = rng.choice(pool)
                if rng.random() < 0.4:
                    children += [f"q^{k} ({x})" for k in range(ctx.N)]
                else:
                    children += [f"({x})", f"(-1) ({x})"][: rng.randint(1, 2)]
            ast = parse(" + ".join(children))
            assert ast.kind == "sum"
            parts = [eval_element(child, ctx) for child in ast.children]
            fold = functools.reduce(operator.add, parts)
            got = eval_element(ast, ctx)
            assert repr(got) == repr(fold)
            assert _stored_terms(got) == _stored_terms(fold)
            cancelled += len(fold.terms) < len({k for part in parts for k in part.terms})
        assert cancelled > 10


class TestStoredForm:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_eval_matches_the_identity_fold(self, seed):
        # Chains and powers start from their first factor, and each term
        # pair's coefficient is one multiply and a root rotation; the stored
        # form must be the one the identity fold with two multiplies gives.
        workloads = _load_workloads()
        operators = 0
        for op in workloads.build("algebra_eval", seed):
            ctx = AlgebraContext.from_sign(op.N, op.n, op.sign)
            ast = parse(workloads.render(op.tree))
            if ast.kind == "apply":
                ast = ast.children[0]
            elif ast.kind == "sandwich":
                ast = ast.children[1]
            got = eval_element(ast, ctx)
            assert _stored_terms(got) == _stored_terms(identity_fold_eval(ast, ctx))
            operators += 1
        assert operators == 240


class TestPrinting:
    def test_identity_element(self):
        ctx = AlgebraContext(3, 2)
        assert print_canonical(AlgebraElement.one(ctx)) == "1"

    def test_zero_element(self):
        ctx = AlgebraContext(3, 2)
        assert print_canonical(AlgebraElement.zero(ctx)) == "0"

    def test_normalized_exponent(self):
        ctx = AlgebraContext(3, 2)
        x = eval_element(parse("c[2] c[1]"), ctx)  # q^{-1} c1 c2
        assert print_canonical(x) == "q^2 * c[1] c[2]"

    def test_ground_state(self):
        ctx = AlgebraContext(3, 2)
        assert print_canonical(ground_state(ctx)) == "|0,0>"

    def test_single_term_state(self):
        ctx = AlgebraContext(3, 2)
        got = eval_state(parse("c[1] Omega"), ctx)
        # zeta = q^2 for N=3, and the canonical spelling uses powers of q
        assert print_canonical(got) == "q^2 * |1,0>"
        assert got == ctx.zeta() * basis_state(ctx, (1, 0))

    def test_zeta_spelling_for_even_N(self):
        ctx = AlgebraContext(4, 1)
        got = eval_state(parse("c[1] Omega"), ctx)
        assert print_canonical(got) == "zeta * |1>"

    def test_scalar_requires_context(self):
        ctx = AlgebraContext(3, 2)
        scalar = eval_scalar(parse("<0,0| c[2]' c[2] |0,0>"), ctx)
        assert print_canonical(scalar, ctx) == "1"
        with pytest.raises(TypeError):
            print_canonical(scalar)

    @pytest.mark.parametrize(
        "ctx",
        [
            AlgebraContext(3, 2),
            AlgebraContext(2, 2),
            AlgebraContext(4, 1, 1),
            AlgebraContext(4, 1, 5),
            AlgebraContext(5, 1),
        ],
        ids=lambda c: f"N{c.N}n{c.n}e{c.zeta_exp}",
    )
    def test_round_trip(self, ctx):
        rng = random.Random(600 + ctx.N * 10 + ctx.zeta_exp)
        for _ in range(30):
            element = random_element(rng, ctx)
            text = print_canonical(element)
            assert eval_element(parse(text), ctx) == element
            state = random_state(rng, ctx)
            text = print_canonical(state)
            assert eval_state(parse(text), ctx) == state
