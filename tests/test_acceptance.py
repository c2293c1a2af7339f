"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact; the only tolerances are the wall-clock budgets
stated with the criteria.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import contextlib
import random
import time

import pytest

from gcalg import (
    AlgebraContext,
    ParseError,
    QuditState,
    admissible_zeta_exps,
    apply_even,
    basis_indices,
    check_homomorphism,
    check_zeta_root,
    eval_element,
    eval_state,
    parse,
    print_canonical,
    run_suite,
)
import faults
from helpers import bubble_product_oracle, random_element, random_monomial, random_state

SUITE_CONTEXTS = [
    (2, 1), (2, 2), (2, 3),
    (3, 1), (3, 2), (3, 3),
    (4, 1), (4, 2),
    (5, 1), (5, 2),
    (6, 2),
]


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def run_full_suite(ctx):
    reports = run_suite(ctx)
    failed = [(r.name, r.counterexample) for r in reports if not r.passed]
    assert not failed, f"(N={ctx.N}, n={ctx.n}, zeta_exp={ctx.zeta_exp}): {failed}"


def test_criterion_1_square_root_suite():
    with criterion(1, "square roots of q"):
        start = time.monotonic()
        for N in (3, 5, 7, 9):
            assert check_zeta_root(N).passed
            ctx = AlgebraContext(N, 1)
            assert ctx.zeta() * ctx.zeta() == ctx.q()
            assert ctx.zeta() ** (N * N) == 1
            assert ctx.omega(1) ** (N * N) == -1  # the rejected root
        for N in (2, 4, 6, 8):
            for exp in admissible_zeta_exps(N):
                assert check_zeta_root(N, exp).passed
                ctx = AlgebraContext(N, 1, exp)
                assert ctx.zeta() * ctx.zeta() == ctx.q()
                assert ctx.zeta() ** (N * N) == 1
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"square-root suite took {elapsed:.2f}s"


def test_criterion_2_full_axiom_suite():
    with criterion(2, "full axiom suite, zero tolerance"):
        start = time.monotonic()
        for N, n in SUITE_CONTEXTS:
            run_full_suite(AlgebraContext(N, n))
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"axiom suite took {elapsed:.2f}s"


def test_criterion_3_even_root_freedom():
    with criterion(3, "even N passes under both square roots"):
        for N, n in SUITE_CONTEXTS:
            if N % 2:
                continue
            if N not in (2, 4, 6):
                continue
            for exp in admissible_zeta_exps(N):
                run_full_suite(AlgebraContext(N, n, exp))


def test_criterion_4_homomorphism_oracle():
    with criterion(4, "normal form vs letter-by-letter, 200 seeded words"):
        start = time.monotonic()
        for N, n in ((3, 2), (4, 2)):
            report = check_homomorphism(
                AlgebraContext(N, n), trials=200, max_len=12, seed=20240817
            )
            assert report.passed, report.counterexample
            assert report.seed == 20240817
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"homomorphism oracle took {elapsed:.2f}s"


def test_criterion_5_closed_form_product_phase():
    with criterion(5, "closed-form product vs bubble reduction"):
        for N, n in ((3, 2), (5, 2)):
            ctx = AlgebraContext(N, n)
            rng = random.Random(1000 + N)
            for _ in range(1000):
                a = random_monomial(rng, ctx)
                b = random_monomial(rng, ctx)
                assert a * b == bubble_product_oracle(a, b)


INVALID_INPUTS = [
    "c[",
    "c[1",
    "c[]",
    "c]1[",
    "E[",
    "zeta^",
    "zeta^^2",
    "q~",
    "1 +",
    "+ 1",
    "1/",
    "1/0",
    "(1 + q",
    "1 + q)",
    "|0,0",
    "|,0>",
    "<0,0",
    "<0,0| c[1",
    "c[1] |0,0> q",
    "q *",
]


def test_criterion_6_parser_round_trip():
    with criterion(6, "parser round trip and positioned errors"):
        contexts = [
            AlgebraContext(3, 2),
            AlgebraContext(4, 1, 1),
            AlgebraContext(4, 1, 5),
            AlgebraContext(2, 3),
            AlgebraContext(5, 1),
        ]
        rng = random.Random(777)
        for index in range(500):
            ctx = contexts[index % len(contexts)]
            if index % 2:
                element = random_element(rng, ctx)
                text = print_canonical(element)
                assert eval_element(parse(text), ctx) == element, text
            else:
                state = random_state(rng, ctx)
                text = print_canonical(state)
                assert eval_state(parse(text), ctx) == state, text
        assert len(INVALID_INPUTS) == 20
        for bad in INVALID_INPUTS:
            with pytest.raises(ParseError) as info:
                parse(bad)
            assert 0 <= info.value.pos <= len(bad), bad


def test_criterion_7_mutation_robustness(monkeypatch):
    with criterion(7, "injected single-phase faults are detected"):
        ctx = AlgebraContext(3, 2)
        # (a) global sign flip on the odd generators; (b) dropped q^{a_k}
        # factor: the odd generator degrades to zeta c_{2k}; (c) off-by-one
        # in the head sum of apply_even (includes digit k); (d) wrong zeta
        # exponent: zeta^2 instead of zeta.
        for fault in ("odd_sign_flip", "odd_without_q_ak", "even_long_head", "odd_zeta_squared"):
            with monkeypatch.context() as patch:
                faults.inject(patch, fault)
                caught = [r.name for r in run_suite(ctx) if not r.passed]
            assert caught, f"{fault} went unnoticed"


def test_criterion_8_performance_floor():
    with criterion(8, "one generator on a dense exact state under 1s"):
        ctx = AlgebraContext(3, 8)
        amps = {digits: ctx.q(sum(digits)) for digits in basis_indices(ctx)}
        state = QuditState(ctx, amps)
        assert len(state.amps) == 6561
        start = time.monotonic()
        moved = apply_even(4, state)
        elapsed = time.monotonic() - start
        assert len(moved.amps) == 6561
        assert elapsed < 1.0, f"generator application took {elapsed:.3f}s"
