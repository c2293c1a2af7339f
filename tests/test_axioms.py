"""Tests for the identity-verification suite."""

import hashlib
import random
import re

import pytest

from gcalg import (
    ALL_CHECKS,
    AlgebraContext,
    admissible_zeta_exps,
    check_homomorphism,
    check_unitarity,
    check_zeta_root,
    eval_element,
    eval_state,
    parse,
    print_canonical,
    run_suite,
    suite_report,
)
from gcalg import axioms, rep
import faults


class TestZetaRootCheck:
    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_odd_canonical_passes(self, N):
        report = check_zeta_root(N)
        assert report.passed
        assert report.counterexample is None

    def test_even_both_roots(self):
        assert check_zeta_root(2, 1).passed
        assert check_zeta_root(2, 3).passed  # -i is the other square root

    def test_inadmissible_exponent_rejected(self):
        with pytest.raises(ValueError):
            check_zeta_root(3, 1)

    def test_each_failure_names_its_identity(self, monkeypatch):
        faults.inject(monkeypatch, "zeta_times_q")
        assert check_zeta_root(3).counterexample == "zeta^2 = 1 differs from q"
        monkeypatch.undo()
        # zeta negated: its square is still q, but zeta^(N^2) = -1.
        monkeypatch.setattr(
            AlgebraContext, "zeta", lambda ctx, k=1: ctx.omega((ctx.zeta_exp + ctx.N) * k)
        )
        assert check_zeta_root(3).counterexample == "zeta^(N^2) = -1 differs from 1"
        monkeypatch.undo()
        # omega(1) = q: the rejected plus root then reads as an N^2-th root of 1.
        monkeypatch.setattr(AlgebraContext, "omega", lambda ctx, k=1: ctx.q(k))
        assert check_zeta_root(3).counterexample == (
            "rejected root (+exp(i*pi/N)) has N^2-th power 1, expected -1"
        )


class TestSuite:
    @pytest.mark.parametrize("N,n", [(2, 1), (3, 2)])
    def test_small_contexts_pass(self, N, n):
        ctx = AlgebraContext(N, n)
        reports = run_suite(ctx)
        assert [r.name for r in reports] == list(ALL_CHECKS)
        assert all(r.passed for r in reports)

    def test_even_context_passes_under_both_roots(self):
        for exp in admissible_zeta_exps(4):
            ctx = AlgebraContext(4, 2, exp)
            assert all(r.passed for r in run_suite(ctx))

    def test_full_range_passes(self):
        # Exhaustive exact verification across the advertised size range,
        # under every admissible root.
        contexts = [
            AlgebraContext(N, n, zeta_exp)
            for N in range(2, 9)
            for n in range(1, 9)
            if N**n <= 729
            for zeta_exp in admissible_zeta_exps(N)
        ]
        assert len(contexts) == 49
        for ctx in contexts:
            reports = run_suite(ctx)
            failed = [(r.name, r.counterexample) for r in reports if not r.passed]
            assert not failed, (ctx, failed)

    def test_selection(self):
        ctx = AlgebraContext(2, 1)
        assert run_suite(ctx, []) == []
        names = [r.name for r in run_suite(ctx, ["order", "unitarity"])]
        assert names == ["unitarity", "order"]  # deterministic registry order

    def test_unknown_check_name(self):
        ctx = AlgebraContext(2, 1)
        with pytest.raises(ValueError):
            run_suite(ctx, ["nosuch"])

    def test_report_json_shape(self):
        ctx = AlgebraContext(2, 1)
        reports = run_suite(ctx)
        data = suite_report(ctx, reports)
        assert data["N"] == 2 and data["n"] == 1 and data["zeta_exp"] == 1
        for entry in data["checks"]:
            assert {"name", "passed", "counterexample"} <= set(entry)
            assert entry["passed"] is True

    def test_homomorphism_reports_seed(self):
        ctx = AlgebraContext(3, 2)
        report = check_homomorphism(ctx, trials=10, max_len=6, seed=99)
        assert report.passed
        assert report.seed == 99
        assert report.to_dict()["seed"] == 99

    def test_homomorphism_requires_trials(self):
        with pytest.raises(ValueError):
            check_homomorphism(AlgebraContext(2, 1), trials=0)

    def test_homomorphism_requires_a_nonnegative_word_length(self):
        with pytest.raises(ValueError, match="max_len must be >= 0"):
            check_homomorphism(AlgebraContext(2, 1), max_len=-1)
        assert check_homomorphism(AlgebraContext(2, 1), max_len=0).passed


class TestFailureReporting:
    def test_fault_produces_counterexample(self, monkeypatch):
        # A global sign flip on the odd generators must fail at least one
        # check, and every failing report must carry a counterexample.
        ctx = AlgebraContext(2, 1)
        original = rep.apply_odd
        monkeypatch.setattr(rep, "apply_odd", lambda k, s: -1 * original(k, s))
        reports = run_suite(ctx)
        failed = [r for r in reports if not r.passed]
        assert failed
        for report in failed:
            assert report.counterexample

    def test_non_unit_amplitude_is_a_counterexample(self, monkeypatch):
        ctx = AlgebraContext(3, 2)
        original = rep.apply_even
        monkeypatch.setattr(rep, "apply_even", lambda k, s: 2 * original(k, s))
        reports = {r.name: r for r in run_suite(ctx)}
        unitarity = reports["unitarity"]
        assert not unitarity.passed
        assert "c_2|(0, 0)> has amplitude 2, expected a root of unity" in unitarity.counterexample
        assert not check_unitarity(ctx).passed
        monkeypatch.undo()
        faults.inject(monkeypatch, "doubled_raise_digit")
        assert check_unitarity(ctx).counterexample == (
            "c_1|(0, 0)> has amplitude 2 * q^2, expected a root of unity"
        )

    def test_fault_patched_after_a_pass_is_caught(self, monkeypatch):
        # Tables are built per run_suite call, so a context that passed once
        # must still fail after a fault is patched in.
        ctx = AlgebraContext(3, 2)
        assert all(r.passed for r in run_suite(ctx))
        original = rep.apply_odd
        monkeypatch.setattr(rep, "apply_odd", lambda k, s: -1 * original(k, s))
        failed = {r.name for r in run_suite(ctx) if not r.passed}
        assert {"unitarity", "order", "power_formula"} <= failed
        monkeypatch.undo()
        assert all(r.passed for r in run_suite(ctx))

    def test_selection_without_table_checks_builds_no_tables(self, monkeypatch):
        ctx = AlgebraContext(3, 2)
        monkeypatch.setattr(rep, "generator_tables", None)
        names = [r.name for r in run_suite(ctx, ["zeta_root", "orthonormal_basis"])]
        assert names == ["zeta_root", "orthonormal_basis"]


# Faults that run_suite and the public checks must report alike: none, and
# every fault of the catalogue, among them a sign flip in apply_odd (tables
# build, identities fail) and a doubled apply_even (tables cannot be built,
# so each table check reports the column).
FAULTS = ("none", *faults.FAULTS)

# Faults that no check sees: none.  Even a wrong swap count in
# symbolic._cross_inversions fails homomorphism, through normal_order.
INVISIBLE_FAULTS = ("none",)

SUITE_CONTEXTS = [(3, 2, None)] + [(4, 2, exp) for exp in admissible_zeta_exps(4)]


def _each_check_alone(ctx):
    return [
        axioms.check_zeta_root(ctx.N, ctx.zeta_exp) if name == "zeta_root"
        else getattr(axioms, "check_" + name)(ctx)
        for name in ALL_CHECKS
    ]


class TestOneBodyPerCheck:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("N,n,zeta_exp", SUITE_CONTEXTS)
    def test_suite_equals_each_public_check_alone(self, N, n, zeta_exp, fault, monkeypatch):
        ctx = AlgebraContext(N, n, zeta_exp)
        if fault != "none":
            faults.inject(monkeypatch, fault)
        reports = run_suite(ctx)
        assert reports == _each_check_alone(ctx)
        assert all(r.passed for r in reports) == (fault in INVISIBLE_FAULTS)

    def test_whole_suite_builds_each_generator_table_once(self, monkeypatch):
        ctx = AlgebraContext(3, 2)
        built = []
        original = rep.generator_tables
        monkeypatch.setattr(rep, "generator_tables", lambda c: built.append(c) or original(c))
        assert all(r.passed for r in run_suite(ctx))
        assert built == [ctx]

    def test_suite_calls_each_check_through_the_module(self, monkeypatch):
        # Spans are installed as module attributes after import; run_suite
        # must call the wrapper, once per check, in suite order.
        ctx = AlgebraContext(3, 2)
        called = []
        for name in ALL_CHECKS:
            original = getattr(axioms, "check_" + name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                called.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(axioms, "check_" + name, wrapper)
        assert all(r.passed for r in run_suite(ctx))
        assert called == list(ALL_CHECKS)

    def test_projector_keeping_the_wrong_digit_fails(self, monkeypatch):
        ctx = AlgebraContext(3, 2)
        faults.inject(monkeypatch, "projector_keeps_digit_one")
        reports = {r.name: r for r in run_suite(ctx)}
        assert {name for name, r in reports.items() if not r.passed} == {"projector_identity"}
        assert reports["projector_identity"].counterexample == (
            "c_1 vs zeta c_2 on |(1, 0)>: |2,0> differs from q^2 * |2,0>"
        )

    def test_projector_identity_acts_only_on_kept_states(self, monkeypatch):
        # E_k is applied to each of the 9 basis states of (3, 2) for each k,
        # and the generators act only through the tables: given the tables,
        # the check applies no generator.
        ctx = AlgebraContext(3, 2)
        tables = rep.generator_tables(ctx)
        calls = {"apply_projector": 0, "apply_odd": 0, "apply_even": 0}
        for target in calls:
            def counting(k, s, _target=target, _original=getattr(rep, target)):
                calls[_target] += 1
                return _original(k, s)
            monkeypatch.setattr(rep, target, counting)
        assert axioms.check_projector_identity(ctx, tables).passed
        assert calls == {"apply_projector": 18, "apply_odd": 0, "apply_even": 0}

    def test_orthonormal_basis_reports_the_first_bad_gram_cell(self, monkeypatch):
        ctx = AlgebraContext(3, 2)
        original = rep.apply_even
        monkeypatch.setattr(rep, "apply_even", lambda k, s: 2 * original(k, s))
        report = axioms.check_orthonormal_basis(ctx)
        assert report.counterexample == "Gram[(0, 1)][(0, 1)] = 4, expected 1"
        monkeypatch.setattr(rep, "apply_even", lambda k, s: s if k == 1 else original(k, s))
        report = axioms.check_orthonormal_basis(ctx)
        assert report.counterexample == "Gram[(0, 0)][(1, 0)] = 1, expected 0"

    @pytest.mark.parametrize("N,n,zeta_exp", [
        (N, n, exp) for N, n in ((3, 2), (2, 3), (4, 2)) for exp in admissible_zeta_exps(N)
    ])
    def test_conjugated_amplitudes_fail_only_homomorphism(self, N, n, zeta_exp, monkeypatch):
        # Every table is read off amplitude-1 basis states, where conjugation
        # changes nothing, so only the letter-by-letter oracle can see this.
        original = rep._raise_digit

        def conjugating(k, state, zeta_power):
            conjugated = {d: a.conj() for d, a in state.amps.items()}
            return original(k, rep.QuditState(state.ctx, conjugated), zeta_power)

        monkeypatch.setattr(rep, "_raise_digit", conjugating)
        failed = [r.name for r in run_suite(AlgebraContext(N, n, zeta_exp)) if not r.passed]
        assert failed == ["homomorphism"]

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("N,n,zeta_exp", [
        (N, n, exp) for N, n in ((3, 2), (2, 3)) for exp in admissible_zeta_exps(N)
    ])
    def test_homomorphism_applies_every_letter_to_every_basis_state(
        self, N, n, zeta_exp, seed, monkeypatch
    ):
        # The oracle's coverage is pinned: each letter of each seeded word
        # goes through rep.apply_generator once per basis state, and a fault
        # patched in after the tables are built still reaches it.
        ctx = AlgebraContext(N, n, zeta_exp)
        tables = rep.generator_tables(ctx)
        rng = random.Random(seed)
        letters = 0
        for _ in range(axioms.HOMOMORPHISM_TRIALS_DEFAULT):
            length = rng.randint(0, axioms.HOMOMORPHISM_MAX_LEN_DEFAULT)
            letters += length
            for _ in range(length):
                rng.randint(1, 2 * n)
        calls = []
        original = rep.apply_generator
        monkeypatch.setattr(rep, "apply_generator", lambda i, s: calls.append(i) or original(i, s))
        assert check_homomorphism(ctx, seed=seed, tables=tables).passed
        assert len(calls) == ctx.dim * letters
        monkeypatch.undo()

        raise_digit = rep._raise_digit
        monkeypatch.setattr(
            rep, "_raise_digit", lambda k, s, z: ctx.omega(1) * raise_digit(k, s, z)
        )
        report = check_homomorphism(ctx, seed=seed, tables=tables)
        assert not report.passed
        assert " vs its normal form on |" in report.counterexample

    @pytest.mark.parametrize("seed,expected", [
        (0, "word [4, 1, 3, 4, 4, 3] vs its normal form on |(0, 0)>: "
            "-1 * q * |1,2> differs from q^2 * |1,2>"),
        (2, "word [1] vs its normal form on |(1, 1)>: -1 * q^2 * |2,1> differs from |2,1>"),
        (9, "word [3, 3, 2, 2, 1, 3, 4] vs its normal form on |(0, 2)>: "
            "-1 * q * |0,0> differs from q^2 * |0,0>"),
    ])
    def test_homomorphism_counterexample_names_the_first_failing_basis_state(
        self, seed, expected, monkeypatch
    ):
        # A letter acting on the mid-basis label |1,1> of (3, 2) picks up an
        # extra w, after the tables are built.  The counterexample, first
        # failing word and first failing basis state in basis order, is
        # pinned as text.
        ctx = AlgebraContext(3, 2)
        tables = rep.generator_tables(ctx)
        original = rep._raise_digit

        def rotating(k, state, zeta_power):
            out = original(k, state, zeta_power)
            return ctx.omega(1) * out if (1, 1) in state.amps else out

        monkeypatch.setattr(rep, "_raise_digit", rotating)
        report = check_homomorphism(ctx, seed=seed, tables=tables)
        assert report.counterexample == expected

    def test_counterexample_wording(self, monkeypatch):
        ctx = AlgebraContext(3, 2)
        faults.inject(monkeypatch, "odd_sign_flip")
        reports = {r.name: r.counterexample for r in run_suite(ctx)}
        assert reports["order"] == "c_1^N vs 1 on |(0, 0)>: -1 * |0,0> differs from |0,0>"
        assert reports["ground_identity"] == (
            "c_1 vs zeta c_2 on |(0, 0)>: -1 * q^2 * |1,0> differs from q^2 * |1,0>"
        )
        assert reports["unitarity"].startswith("c_1^(N-1) vs c_1^dagger on |(0, 0)>: ")
        assert reports["power_formula"].startswith("c_1^1 vs its closed form on |(0, 0)>: ")
        assert " vs its normal form on |" in reports["homomorphism"]


# The verdict of each check under each fault of the catalogue, in ALL_CHECKS
# order (zeta_root, unitarity, order, commutation, ground_identity,
# projector_identity, orthonormal_basis, power_formula, homomorphism), as
# P (pass) or F (fail): on (3, 2), and on (4, 2) under either root.
VERDICT_MATRIX = {
    "odd_sign_flip":             ("P F F P F F P F F", "P P P P F F P F P"),
    "odd_without_q_ak":          ("P P P F P P P F F", "P F F F P P P F F"),
    "even_long_head":            ("P P P F P P P P F", "P F F F P P P P F"),
    "odd_zeta_squared":          ("P P P P F F P F P", "P F F P F F P F F"),
    "even_saturates":            ("P F F F P P P P F", "P F F F P P P P F"),
    "doubled_even":              ("P F F F F F F F F", "P F F F F F F F F"),
    "conjugated_amplitudes":     ("P P P P P P P P F", "P P P P P P P P F"),
    "doubled_raise_digit":       ("P F F F F F F F F", "P F F F F F F F F"),
    "projector_keeps_digit_one": ("P P P P P F P P P", "P P P P P F P P P"),
    "cross_inversions_plus_one": ("P P P P P P P P F", "P P P P P P P P F"),
    "zeta_times_q":              ("F P P P P P P P P", "F P P P P P P P P"),
}


class TestFaultCatalogue:
    @pytest.mark.parametrize("N,n,zeta_exp", SUITE_CONTEXTS)
    def test_verdict_matrix(self, N, n, zeta_exp, monkeypatch):
        # Also asserts the implications stated in the axioms docstring on
        # every row: order fails only with unitarity, and while E_k keeps
        # |0..0>, ground_identity fails only with projector_identity.
        ctx = AlgebraContext(N, n, zeta_exp)
        ground = rep.ground_state(ctx)
        assert set(VERDICT_MATRIX) == set(faults.FAULTS)
        columns = zip(*(verdicts[N == 4].split() for verdicts in VERDICT_MATRIX.values()))
        assert all("F" in column for column in columns)  # every check catches a fault
        for fault, verdicts in VERDICT_MATRIX.items():
            with monkeypatch.context() as patch:
                faults.inject(patch, fault)
                reports = run_suite(ctx)
                keeps_ground = all(
                    rep.apply_projector(k, ground) == ground for k in range(1, n + 1)
                )
            passed = {r.name: r.passed for r in reports}
            assert " ".join("P" if r.passed else "F" for r in reports) == verdicts[N == 4], fault
            assert all(r.counterexample for r in reports if not r.passed), fault
            assert passed["order"] or not passed["unitarity"], fault
            if keeps_ground:
                assert passed["ground_identity"] or not passed["projector_identity"], fault

    def test_every_counterexample_text_is_pinned(self, monkeypatch):
        # sha256 over one line per report, under each fault of the catalogue
        # (in name order) on (3, 2), (4, 2) and (2, 3) under every root: 495
        # reports, verdict and counterexample text alike.
        digest = hashlib.sha256()
        for N, n in ((3, 2), (4, 2), (2, 3)):
            for zeta_exp in admissible_zeta_exps(N):
                ctx = AlgebraContext(N, n, zeta_exp)
                for fault in sorted(faults.FAULTS):
                    with monkeypatch.context() as patch:
                        faults.inject(patch, fault)
                        reports = run_suite(ctx)
                    for r in reports:
                        line = f"{N} {n} {zeta_exp} {fault} {r.name} {r.passed} {r.counterexample}"
                        digest.update(f"{line}\n".encode())
        assert digest.hexdigest() == (
            "bcbfe1c8325b6338f46eeb62fb6f25d16ceb7a5a8733960cc4d1380e10d4aa1d"
        )

    @pytest.mark.parametrize("N,n,zeta_exp", SUITE_CONTEXTS)
    def test_counterexamples_replay_through_eval(self, N, n, zeta_exp, monkeypatch):
        # Each side of "... on |label>: X differs from Y" is a state in the
        # expression language, and each side of "zeta^... = X differs from Y"
        # a scalar: it evaluates, prints back as itself, and the two sides
        # differ.  The sides are replayed after the fault is undone, since a
        # state of several terms prints as an element applied to Omega.
        ctx = AlgebraContext(N, n, zeta_exp)
        details = []
        for fault in faults.FAULTS:
            with monkeypatch.context() as patch:
                faults.inject(patch, fault)
                details += [r.counterexample for r in run_suite(ctx) if not r.passed]
        witnesses = [detail for detail in details if " differs from " in detail]
        assert any(detail.startswith("zeta^2 = ") for detail in witnesses)
        for detail in witnesses:
            match = re.fullmatch(r"[^>]* on \|\([0-9, ]*\)>: (.*) differs from (.*)", detail)
            if match:
                values = [eval_state(parse(side), ctx) for side in match.groups()]
            else:
                match = re.fullmatch(r"zeta\^\S* = (.*) differs from (.*)", detail)
                assert match, detail
                values = [eval_element(parse(side), ctx) for side in match.groups()]
            assert [print_canonical(value) for value in values] == list(match.groups())
            assert values[0] != values[1], detail
