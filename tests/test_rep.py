"""Tests for the qudit-space action with exact amplitudes."""

import random

import pytest

from gcalg import (
    AlgebraContext,
    AlgebraElement,
    ContextMismatchError,
    DenseCapError,
    PhasedPermutation,
    WeylForm,
    Word,
    apply_element,
    apply_even,
    apply_generator,
    apply_odd,
    apply_projector,
    apply_word,
    basis_indices,
    basis_label,
    basis_state,
    dense_matrix,
    eval_element,
    generator_tables,
    ground_state,
    normal_order,
    ordered_basis,
    parse,
    projector_element,
    scalar_product,
    state_to_json,
)
from gcalg import rep
from helpers import (
    densify,
    ordered_basis_vector,
    exact_matmul,
    random_element,
    random_scalar,
    random_state,
    random_word,
)


class TestStates:
    def test_ground_state(self):
        ctx = AlgebraContext(3, 2)
        g = ground_state(ctx)
        assert g.amps == {(0, 0): ctx.one()}
        assert scalar_product(g, g) == 1

    def test_basis_state(self):
        ctx = AlgebraContext(3, 2)
        s = basis_state(ctx, (1, 2))
        assert s.amplitude((1, 2)) == 1
        assert s.amplitude((0, 0)) == 0

    def test_digit_validation(self):
        ctx = AlgebraContext(3, 2)
        with pytest.raises(ValueError):
            basis_state(ctx, (3, 0))
        with pytest.raises(ValueError):
            basis_state(ctx, (0,))

    def test_zero_state_is_empty_map(self):
        ctx = AlgebraContext(3, 2)
        s = basis_state(ctx, (1, 0)) - basis_state(ctx, (1, 0))
        assert s.amps == {}

    def test_amps_is_a_read_only_alias_of_terms(self):
        s = basis_state(AlgebraContext(3, 2), (1, 2))
        assert s.amps is s.terms
        with pytest.raises(AttributeError):
            s.amps = {}


class TestGeneratorAction:
    def test_even_on_ground(self):
        ctx = AlgebraContext(3, 2)
        assert apply_even(1, ground_state(ctx)) == basis_state(ctx, (1, 0))

    def test_even_with_phase(self):
        ctx = AlgebraContext(3, 2)
        got = apply_even(2, basis_state(ctx, (1, 0)))
        assert got == ctx.q(-1) * basis_state(ctx, (1, 1))

    def test_even_wraparound(self):
        ctx = AlgebraContext(3, 2)
        got = apply_even(2, basis_state(ctx, (2, 2)))
        assert got == ctx.q(-2) * basis_state(ctx, (2, 0))

    def test_odd_on_ground(self):
        ctx = AlgebraContext(3, 2)
        assert apply_odd(1, ground_state(ctx)) == ctx.zeta() * basis_state(ctx, (1, 0))

    def test_odd_with_both_phases(self):
        ctx = AlgebraContext(3, 2)
        got = apply_odd(2, basis_state(ctx, (1, 2)))
        assert got == ctx.zeta() * ctx.q() * basis_state(ctx, (1, 0))

    def test_odd_qubit_case(self):
        ctx = AlgebraContext(2, 1)
        got = apply_odd(1, basis_state(ctx, (1,)))
        assert got == ctx.zeta() * ctx.q() * basis_state(ctx, (0,))

    def test_index_range(self):
        ctx = AlgebraContext(3, 2)
        for bad_call in (
            lambda: apply_even(0, ground_state(ctx)),
            lambda: apply_even(3, ground_state(ctx)),
            lambda: apply_odd(3, ground_state(ctx)),
            lambda: apply_projector(0, ground_state(ctx)),
            lambda: apply_generator(5, ground_state(ctx)),
        ):
            with pytest.raises(ValueError):
                bad_call()

    @pytest.mark.parametrize("i", [0, -1, -2, 5, 6])
    def test_generator_index_outside_1_to_2n_is_refused(self, i):
        # At n = 2: 0 and -1 reach qudit 0, -2 qudit -1, 2n + 1 and 2n + 2 qudit n + 1.
        with pytest.raises(ValueError, match="qudit index"):
            apply_generator(i, ground_state(AlgebraContext(3, 2)))

    def test_generalized_permutation_property(self):
        rng = random.Random(500)
        ctx = AlgebraContext(4, 2)
        for _ in range(50):
            digits = tuple(rng.randrange(ctx.N) for _ in range(ctx.n))
            i = rng.randint(1, ctx.num_generators)
            out = apply_generator(i, basis_state(ctx, digits))
            assert len(out.amps) == 1
            (amp,) = out.amps.values()
            assert amp.conj() * amp == 1

    def test_norm_preservation(self):
        rng = random.Random(501)
        ctx = AlgebraContext(3, 2)
        for _ in range(25):
            s = random_state(rng, ctx)
            norm = scalar_product(s, s)
            for i in range(1, ctx.num_generators + 1):
                moved = apply_generator(i, s)
                assert scalar_product(moved, moved) == norm


class TestProjector:
    def test_keeps_ground_component(self):
        ctx = AlgebraContext(3, 2)
        assert apply_projector(1, basis_state(ctx, (0, 2))) == basis_state(ctx, (0, 2))

    def test_kills_excited_component(self):
        ctx = AlgebraContext(3, 2)
        out = apply_projector(1, basis_state(ctx, (1, 2)))
        assert out.amps == {}

    def test_idempotent_on_random_states(self):
        rng = random.Random(502)
        ctx = AlgebraContext(3, 2)
        for _ in range(25):
            s = random_state(rng, ctx)
            for k in (1, 2):
                once = apply_projector(k, s)
                assert apply_projector(k, once) == once

    def test_matches_projector_element(self):
        for ctx in (AlgebraContext(2, 1), AlgebraContext(3, 2)):
            for k in range(1, ctx.n + 1):
                element = projector_element(ctx, k)
                labels = list(basis_indices(ctx))
                for label in labels:
                    via_element = apply_element(element, basis_state(ctx, label))
                    direct = apply_projector(k, basis_state(ctx, label))
                    assert via_element == direct


class TestWordsAndElements:
    def test_empty_word_is_identity(self):
        rng = random.Random(503)
        ctx = AlgebraContext(3, 2)
        s = random_state(rng, ctx)
        assert apply_word(Word(ctx, ()), s) == s

    def test_single_letter(self):
        ctx = AlgebraContext(3, 2)
        got = apply_word(Word(ctx, (1,)), ground_state(ctx))
        assert got == ctx.zeta() * basis_state(ctx, (1, 0))

    def test_word_equals_normal_form(self):
        ctx = AlgebraContext(3, 2)
        word = Word(ctx, (3, 2, 3))
        element = normal_order(word).to_element()
        for digits in basis_indices(ctx):
            start = basis_state(ctx, digits)
            assert apply_word(word, start) == apply_element(element, start)

    def test_linearity(self):
        rng = random.Random(504)
        ctx = AlgebraContext(3, 2)
        for _ in range(20):
            x = random_element(rng, ctx, max_terms=3)
            a = random_state(rng, ctx)
            b = random_state(rng, ctx)
            lam = random_scalar(rng, ctx)
            assert apply_element(x, a + lam * b) == apply_element(x, a) + lam * apply_element(x, b)

    def test_context_mismatch(self):
        a = AlgebraContext(3, 2)
        b = AlgebraContext(3, 1)
        with pytest.raises(ContextMismatchError):
            apply_word(Word(a, (1,)), ground_state(b))
        with pytest.raises(ContextMismatchError):
            apply_element(AlgebraElement.one(a), ground_state(b))
        with pytest.raises(ContextMismatchError):
            scalar_product(ground_state(a), ground_state(b))
        with pytest.raises(ContextMismatchError):
            ground_state(a) + ground_state(b)


class TestScalarProduct:
    def test_distinct_basis_states_are_orthogonal(self):
        ctx = AlgebraContext(3, 2)
        assert scalar_product(basis_state(ctx, (1, 0)), basis_state(ctx, (0, 1))) == 0

    def test_unitarity_on_ground(self):
        ctx = AlgebraContext(3, 2)
        moved = apply_even(1, ground_state(ctx))
        assert scalar_product(moved, moved) == 1

    def test_conjugate_linear_in_first_slot(self):
        ctx = AlgebraContext(3, 2)
        g = ground_state(ctx)
        lhs = apply_odd(1, g)
        rhs = apply_even(1, g)
        assert scalar_product(lhs, rhs) == ctx.zeta(-1)
        lam = ctx.zeta() * ctx.scalar(3)
        assert scalar_product(lam * lhs, rhs) == lam.conj() * scalar_product(lhs, rhs)


class TestPowers:
    def test_small_odd_powers(self):
        ctx = AlgebraContext(3, 1)
        state = apply_odd(1, apply_odd(1, ground_state(ctx)))
        assert state == ctx.zeta(2) * ctx.q() * basis_state(ctx, (2,))
        for a in range(3):
            start = basis_state(ctx, (a,))
            cubed = start
            for _ in range(3):
                cubed = apply_odd(1, cubed)
            assert cubed == start


class TestDenseMatrix:
    def test_identity(self):
        ctx = AlgebraContext(3, 2)
        mat = densify(dense_matrix(AlgebraElement.one(ctx)), ctx)
        for i in range(ctx.dim):
            for j in range(ctx.dim):
                assert mat[i][j] == (1 if i == j else 0)

    def test_qubit_generators(self):
        ctx = AlgebraContext(2, 1)
        flip = densify(dense_matrix(AlgebraElement.generator(ctx, 2)), ctx)
        assert flip[0][0] == 0 and flip[1][1] == 0
        assert flip[0][1] == 1 and flip[1][0] == 1
        odd = densify(dense_matrix(AlgebraElement.generator(ctx, 1)), ctx)
        assert odd[1][0] == ctx.zeta()
        assert odd[0][1] == ctx.zeta() * ctx.q()
        assert odd[0][0] == 0 and odd[1][1] == 0

    def test_multiplicative(self):
        rng = random.Random(505)
        for ctx in (AlgebraContext(3, 1), AlgebraContext(2, 2), AlgebraContext(3, 3)):
            for _ in range(8):
                x = random_element(rng, ctx, max_terms=3)
                y = random_element(rng, ctx, max_terms=3)
                left = densify(dense_matrix(x * y), ctx)
                right = exact_matmul(densify(dense_matrix(x), ctx), densify(dense_matrix(y), ctx))
                assert left == right

    def test_cap(self):
        ctx = AlgebraContext(3, 2)
        with pytest.raises(DenseCapError):
            dense_matrix(AlgebraElement.one(ctx), cap=8)

    def test_reads_only_the_tables_of_used_generators(self, monkeypatch):
        ctx = AlgebraContext(3, 2)
        calls = []
        original = rep.apply_generator
        monkeypatch.setattr(rep, "apply_generator", lambda i, s: calls.append(i) or original(i, s))
        dense_matrix(AlgebraElement.generator(ctx, 2))
        assert calls == [2] * ctx.dim  # one table, not all 2n

    def test_builds_each_distinct_power_once(self, monkeypatch):
        ctx = AlgebraContext(3, 2)
        element = eval_element(parse("c[1] c[2] + c[1] c[2]^2 + c[1]^2 c[2]"), ctx)
        expected = densify(dense_matrix(element), ctx)
        powers = []
        original = PhasedPermutation.__pow__
        monkeypatch.setattr(PhasedPermutation, "__pow__",
                            lambda t, k: powers.append(k) or original(t, k))
        assert densify(dense_matrix(element), ctx) == expected
        # c_1, c_1^2, c_2 and c_2^2; composed term by term they would be 6.
        assert sorted(powers) == [1, 1, 2, 2]

    def test_tables_come_from_the_representation(self, monkeypatch):
        ctx = AlgebraContext(3, 2)
        c1 = AlgebraElement.generator(ctx, 1)
        before = densify(dense_matrix(c1), ctx)
        original = rep.apply_odd
        monkeypatch.setattr(rep, "apply_odd", lambda k, s: -1 * original(k, s))
        flipped = densify(dense_matrix(c1), ctx)
        assert flipped == [[-cell for cell in row] for row in before]
        assert flipped != before


class TestOrderedBasis:
    def test_all_zero_digits_give_ground(self):
        ctx = AlgebraContext(3, 2)
        assert ordered_basis(ctx)[0] == ground_state(ctx)

    def test_first_digit(self):
        ctx = AlgebraContext(3, 2)
        assert ordered_basis(ctx)[3] == basis_state(ctx, (1, 0))

    def test_mixed_digits_unit_modulus(self):
        ctx = AlgebraContext(3, 2)
        v = ordered_basis(ctx)[4]
        assert set(v.amps) == {(1, 1)}
        amp = v.amplitude((1, 1))
        assert amp.conj() * amp == 1

    @pytest.mark.parametrize("N,n,zeta_exp", [
        (3, 2, None), (2, 3, 1), (2, 3, 3), (4, 2, 1), (4, 2, 5), (5, 1, None),
    ])
    def test_matches_the_letter_by_letter_oracle(self, N, n, zeta_exp):
        ctx = AlgebraContext(N, n, zeta_exp)
        expected = [ordered_basis_vector(ctx, digits) for digits in basis_indices(ctx)]
        assert repr(ordered_basis(ctx)) == repr(expected)


TABLE_CONTEXTS = [(3, 2, 4), (2, 3, 1), (2, 3, 3), (4, 2, 1), (4, 2, 5)]


class TestPhasedPermutation:
    def test_basis_label_inverts_row_major_order(self):
        ctx = AlgebraContext(3, 2)
        assert [basis_label(ctx, j) for j in range(ctx.dim)] == list(basis_indices(ctx))
        with pytest.raises(ValueError):
            basis_label(ctx, ctx.dim)

    @pytest.mark.parametrize("N,n,zeta_exp", TABLE_CONTEXTS)
    def test_columns_match_generator_action(self, N, n, zeta_exp):
        ctx = AlgebraContext(N, n, zeta_exp)
        for i, table in enumerate(generator_tables(ctx), start=1):
            for j, digits in enumerate(basis_indices(ctx)):
                assert table.column(j) == apply_generator(i, basis_state(ctx, digits))

    def test_chosen_tables_only(self):
        ctx = AlgebraContext(3, 2)
        full = generator_tables(ctx)
        chosen = generator_tables(ctx, {2, 3})
        assert chosen[1] == full[1] and chosen[2] == full[2]
        assert chosen[0] is None and chosen[3] is None
        assert generator_tables(ctx, set()) == [None] * 4

    @pytest.mark.parametrize("image,message", [
        (lambda state, out: {**out, (0, 0): state.ctx.one()},
         "c_2|(0, 1)> has 2 terms, expected 1"),
        (lambda state, out: {(0, 3): state.ctx.one()},
         "c_2|(0, 1)> lands on (0, 3), not a basis label"),
    ])
    def test_a_faulty_generator_is_named_at_its_first_basis_state(self, image, message,
                                                                  monkeypatch):
        # The fault hits c_2 (apply_even on qudit 1) on every label with a_2 = 1.
        ctx = AlgebraContext(3, 2)
        original = rep.apply_even

        def faulty(k, state):
            out = original(k, state)
            if k == 1 and next(iter(state.terms))[1] == 1:
                return rep.QuditState._raw(ctx, image(state, out.terms))
            return out

        monkeypatch.setattr(rep, "apply_even", faulty)
        with pytest.raises(rep.NotPhasedPermutationError) as caught:
            generator_tables(ctx)
        assert str(caught.value) == message

    @pytest.mark.parametrize("N,n,zeta_exp", TABLE_CONTEXTS)
    def test_composed_tables_match_apply_word(self, N, n, zeta_exp):
        ctx = AlgebraContext(N, n, zeta_exp)
        tables = generator_tables(ctx)
        rng = random.Random(31 * N + n + zeta_exp)
        for _ in range(20):
            word = random_word(rng, ctx, 8)
            product = PhasedPermutation.identity(ctx)
            for letter in word.letters:
                product = product @ tables[letter - 1]
            for j, digits in enumerate(basis_indices(ctx)):
                assert product.column(j) == apply_word(word, basis_state(ctx, digits))

    @pytest.mark.parametrize("N,n,zeta_exp", TABLE_CONTEXTS)
    def test_dagger_inverts(self, N, n, zeta_exp):
        ctx = AlgebraContext(N, n, zeta_exp)
        identity = PhasedPermutation.identity(ctx)
        for table in generator_tables(ctx):
            assert table.dagger() @ table == identity
            assert table @ table.dagger() == identity
            assert table ** ctx.N == identity
            assert table ** 0 == identity

    def test_scaling_and_equality(self):
        ctx = AlgebraContext(3, 2)
        c1, c2 = generator_tables(ctx)[:2]
        assert c1 @ c2 == (c2 @ c1).scaled(2)  # c_1 c_2 = q c_2 c_1
        assert c1 @ c2 != c2 @ c1
        assert c1.scaled(ctx.order) == c1
        assert c1 == PhasedPermutation(ctx, c1.perm, [f + ctx.order for f in c1.phase])

    def test_non_bijective_table_has_no_dagger(self):
        ctx = AlgebraContext(2, 1)
        collapse = PhasedPermutation(ctx, [0, 0], [0, 0])
        assert not collapse.is_bijection()
        with pytest.raises(ValueError):
            collapse.dagger()

    def test_constructor_validates(self):
        ctx = AlgebraContext(2, 1)
        with pytest.raises(ValueError):
            PhasedPermutation(ctx, [0], [0])
        with pytest.raises(ValueError):
            PhasedPermutation(ctx, [0, 2], [0, 0])
        with pytest.raises(ContextMismatchError):
            PhasedPermutation.identity(ctx) @ PhasedPermutation.identity(AlgebraContext(2, 2))


class TestStepTable:
    @pytest.mark.parametrize("N,n,zeta_exp", TABLE_CONTEXTS)
    def test_steps_act_as_the_slices_do(self, N, n, zeta_exp):
        # Every letter on every basis state and on a random multi-term state
        # gives the same state once the steps are built, and each raised
        # label is the key object of the same map.
        ctx = AlgebraContext(N, n, zeta_exp)
        rng = random.Random(17 * N + n)
        states = [basis_state(ctx, d) for d in basis_indices(ctx)] + [random_state(rng, ctx)]
        letters = range(1, ctx.num_generators + 1)
        before = [[apply_generator(i, s) for s in states] for i in letters]
        generator_tables(ctx)
        assert sorted(ctx._steps) == list(range(1, n + 1))
        for k, step in ctx._steps.items():
            assert list(step) == list(basis_indices(ctx))
            labels = {label: label for label in step}
            for label, (raised, ak, head) in step.items():
                assert raised is labels[raised]
                assert raised == label[: k - 1] + ((label[k - 1] + 1) % N,) + label[k:]
                assert (ak, head) == (label[k - 1], sum(label[: k - 1]))
        assert [[apply_generator(i, s) for s in states] for i in letters] == before

    def test_steps_are_built_for_the_qudits_read_only(self):
        ctx = AlgebraContext(3, 3)
        generator_tables(ctx, {3, 4})
        assert sorted(ctx._steps) == [2]
        generator_tables(ctx, {1, 6})
        assert sorted(ctx._steps) == [1, 2, 3]

    def test_a_label_without_a_step_is_sliced(self):
        # A step map that lacks a label (as for a faulty one) leaves that
        # label to the slices, and an index outside 1..n is still refused.
        ctx = AlgebraContext(3, 2)
        generator_tables(ctx)
        del ctx._steps[1][(2, 1)]
        assert apply_odd(1, basis_state(ctx, (2, 1))) == (
            ctx.zeta() * ctx.q(2) * basis_state(ctx, (0, 1))
        )
        with pytest.raises(ValueError, match="qudit index"):
            apply_even(3, ground_state(ctx))


class TestWeylForm:
    @pytest.mark.parametrize("N,n,zeta_exp", TABLE_CONTEXTS)
    def test_forms_compose_as_their_tables(self, N, n, zeta_exp):
        ctx = AlgebraContext(N, n, zeta_exp)
        tables = generator_tables(ctx)
        forms = [WeylForm.of_table(table) for table in tables]
        assert [form.table() for form in forms] == tables
        rng = random.Random(7 * N + n)
        built = list(zip(forms, tables))
        for _ in range(20):
            word = random_word(rng, ctx, 8)
            form, table = WeylForm.identity(ctx), PhasedPermutation.identity(ctx)
            for letter in word.letters:
                form, table = form @ forms[letter - 1], table @ tables[letter - 1]
            assert form.table() == table
            e = rng.randrange(3 * N)
            assert (form ** e).table() == table ** e
            assert WeylForm.of_table(table) == form
            built.append((form, table))
        # The operations the table checks use answer as they do on the tables.
        for form, table in built:
            assert form.is_bijection()
            assert form.dagger().table() == table.dagger()
            assert WeylForm.of_table(table.dagger()) == form.dagger()
            k = rng.randrange(ctx.order)
            assert form.scaled(k).table() == table.scaled(k)

    def test_generator_forms(self):
        # c_{2k}: shift e_k, phase q^{-(a_1+...+a_{k-1})}; c_{2k-1} adds zeta q^{a_k}.
        ctx = AlgebraContext(3, 2)
        forms = [WeylForm.of_table(table) for table in generator_tables(ctx)]
        assert forms == [
            WeylForm(ctx, (1, 0), ctx.zeta_exp, (2, 0)),
            WeylForm(ctx, (1, 0), 0, (0, 0)),
            WeylForm(ctx, (0, 1), ctx.zeta_exp, (-2, 2)),
            WeylForm(ctx, (0, 1), 0, (-2, 0)),
        ]

    def test_a_table_that_differs_anywhere_has_no_form(self):
        # Each table differs from c_1's only at its last basis position or
        # in an odd phase step; reading at 0 and e_k alone would miss the first.
        ctx = AlgebraContext(3, 2)
        c1 = generator_tables(ctx)[0]
        last = ctx.dim - 1
        moved = PhasedPermutation(ctx, c1.perm, c1.phase[:last] + (c1.phase[last] + 2,))
        swapped = PhasedPermutation(ctx, c1.perm[:-2] + c1.perm[:-3:-1], c1.phase)
        odd = PhasedPermutation(ctx, c1.perm, [f + j for j, f in enumerate(c1.phase)])
        for table in (moved, swapped, odd):
            assert WeylForm.of_table(table) is None

    def test_constructor_validates(self):
        ctx = AlgebraContext(3, 2)
        assert WeylForm(ctx, (4, -1), 7, (8, -2)) == WeylForm(ctx, (1, 2), 1, (2, 4))
        with pytest.raises(ValueError):
            WeylForm(ctx, (1,), 0, (0, 0))
        with pytest.raises(ValueError):
            WeylForm(ctx, (1, 0), 0, (1, 0))
        with pytest.raises(TypeError):
            WeylForm(ctx, (1.0, 0), 0, (0, 0))
        with pytest.raises(ValueError):
            WeylForm.identity(ctx) ** -1
        with pytest.raises(ContextMismatchError):
            WeylForm.identity(ctx) @ WeylForm.identity(AlgebraContext(3, 3))


class TestJson:
    def test_state_to_json_shape(self):
        rng = random.Random(506)
        ctx = AlgebraContext(3, 2)
        for _ in range(10):
            s = random_state(rng, ctx)
            data = state_to_json(s)
            assert set(data) == {"N", "n", "terms"}
            for term in data["terms"]:
                assert set(term) == {"index", "amp"}
