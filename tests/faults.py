"""A catalogue of injected faults: each one replaces one gcalg function.

``FAULTS`` maps a fault name to ``(owner, attribute, make)``, the owner a
module or a class; ``make`` takes the original function and returns the
faulty one, so ``inject`` is a single monkeypatch.  Every mutant reads its context from its arguments, so each
fault applies to any context.
"""

from gcalg import QuditState, cyclo, rep, symbolic


def _even_with_long_head(original):
    # Off by one in the head sum of c_{2k}: digit k is counted too.
    def even(k, state):
        ctx = state.ctx
        out = QuditState(ctx, {})
        for digits, amp in state.amps.items():
            bumped = digits[: k - 1] + ((digits[k - 1] + 1) % ctx.N,) + digits[k:]
            out = out + QuditState(ctx, {bumped: amp * ctx.q(-sum(digits[:k]))})
        return out

    return even


def _even_saturating(original):
    # c_{2k} stops at digit N-1 instead of wrapping round to 0.
    def even(k, state):
        ctx = state.ctx
        out = QuditState(ctx, {})
        for digits, amp in state.amps.items():
            raised = digits[: k - 1] + (min(digits[k - 1] + 1, ctx.N - 1),) + digits[k:]
            out = out + QuditState(ctx, {raised: amp * ctx.q(-sum(digits[: k - 1]))})
        return out

    return even


def _conjugated_amplitudes(original):
    # Both generators act on the complex conjugate of their input.
    def raise_digit(k, state, zeta_power):
        conjugated = {d: a.conj() for d, a in state.amps.items()}
        return original(k, QuditState(state.ctx, conjugated), zeta_power)

    return raise_digit


def _projector_keeps_digit_one(original):
    def projector(k, state):
        kept = {d: a for d, a in state.amps.items() if d[k - 1] == 1}
        return QuditState(state.ctx, kept)

    return projector


FAULTS = {
    # The four faults of acceptance criterion 7; the first is also a single
    # sign flip that the tables can still represent.
    "odd_sign_flip": (rep, "apply_odd", lambda original: lambda k, s: -1 * original(k, s)),
    "odd_without_q_ak": (
        rep, "apply_odd", lambda original: lambda k, s: s.ctx.zeta() * rep.apply_even(k, s)
    ),
    "even_long_head": (rep, "apply_even", _even_with_long_head),
    "odd_zeta_squared": (
        rep, "apply_odd", lambda original: lambda k, s: s.ctx.zeta() * original(k, s)
    ),
    # c_{2k} sends two labels to one: a table, but not a permutation.
    "even_saturates": (rep, "apply_even", _even_saturating),
    # Amplitude 2 on c_{2k}: no generator table can be built.
    "doubled_even": (rep, "apply_even", lambda original: lambda k, s: 2 * original(k, s)),
    "conjugated_amplitudes": (rep, "_raise_digit", _conjugated_amplitudes),
    # Amplitude 2 on every generator: no table, but c_{2k-1} = zeta c_{2k} still holds.
    "doubled_raise_digit": (
        rep, "_raise_digit", lambda original: lambda k, s, z: 2 * original(k, s, z)
    ),
    "projector_keeps_digit_one": (rep, "apply_projector", _projector_keeps_digit_one),
    # One extra swap when two normal monomials are merged.
    "cross_inversions_plus_one": (
        symbolic, "_cross_inversions", lambda original: lambda a, b: original(a, b) + 1
    ),
    # zeta = q w^zeta_exp wherever it is read as a scalar; the generators
    # read the exponent itself.
    "zeta_times_q": (
        cyclo.AlgebraContext, "zeta",
        lambda original: lambda ctx, k=1: ctx.omega((ctx.zeta_exp + 2) * k),
    ),
}


def inject(monkeypatch, fault: str) -> None:
    """Patch ``fault`` into gcalg for the rest of ``monkeypatch``'s scope."""
    owner, attribute, make = FAULTS[fault]
    monkeypatch.setattr(owner, attribute, make(getattr(owner, attribute)))
