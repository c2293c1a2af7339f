"""Tests for the identity-verification suite."""

import pytest

from gcalg import (
    ALL_CHECKS,
    AlgebraContext,
    admissible_zeta_exps,
    check_homomorphism,
    check_unitarity,
    check_zeta_root,
    run_suite,
    suite_report,
)
from gcalg import rep


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
        # Exhaustive exact verification across the advertised size range.
        for N in range(2, 9):
            for n in range(1, 9):
                if N**n > 256:
                    continue
                ctx = AlgebraContext(N, n)
                reports = run_suite(ctx)
                failed = [r for r in reports if not r.passed]
                assert not failed, (N, n, [(r.name, r.counterexample) for r in failed])

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
        monkeypatch.setattr(rep, "generator_table", None)
        names = [r.name for r in run_suite(ctx, ["zeta_root", "ground_identity"])]
        assert names == ["zeta_root", "ground_identity"]
