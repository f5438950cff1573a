"""Unit tests for the lambda-bracket engine.

Hand-derived expected values are documented where they appear; random-input
properties (skew involution, reordering idempotence and confluence) run on
seeded generators so failures reproduce.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from celalg import lambdacalc as lc
from celalg.lambdacalc import (
    E,
    F,
    GenSymbol,
    I,
    J,
    UndefinedBracket,
    atomic_bracket,
    bracket_words,
    format_lambda_poly,
    integrate_commutator,
    is_canonical,
    normal_order,
    normal_order_poly,
    nproduct,
    skew,
    substitute_lambda_plus_mu,
    total_derivative,
    weight,
)
from celalg.celestial import rules_deformed, rules_extended
from celalg.liealg import simple_lie_algebra
from celalg.scalar import s_rational, s_scale


@pytest.fixture(scope="module")
def sl2():
    return simple_lie_algebra("A", 1)


@pytest.fixture(scope="module")
def base(sl2):
    # the current brackets: the extended table's J/I part
    return rules_extended(sl2)


@pytest.fixture(scope="module")
def extended(sl2):
    return rules_extended(sl2)


UNIT = s_rational(1)


def test_gensymbol_order_matches_kind_label_bidegree_dpow():
    assert J(0, 0, 0) < I(0, 0, 0) < E(0, 1) < F(0, 0)
    assert J(0, 0, 0) < J(1, 0, 0)
    assert J(1, 0, 0) < J(1, 0, 1)
    assert J(1, 0, 1) < J(1, 0, 1, dpow=1)


def test_e_zero_bidegree_forbidden():
    with pytest.raises(ValueError):
        E(0, 0)


def test_total_derivative_unit_word_is_zero():
    assert total_derivative({(): UNIT}) == {}


def test_total_derivative_single_letter():
    ws = {(J(0, 0, 0),): UNIT}
    assert total_derivative(ws) == {(J(0, 0, 0, 1),): UNIT}


def test_total_derivative_leibniz_two_letters():
    ws = {(J(0, 0, 0), I(1, 0, 0)): UNIT}
    out = total_derivative(ws)
    assert out == {
        (J(0, 0, 0, 1), I(1, 0, 0)): UNIT,
        (J(0, 0, 0), I(1, 0, 0, 1)): UNIT,
    }


def test_skew_lambda_free_word():
    p = {0: {(I(0, 0, 0),): UNIT}}
    assert skew(p) == {0: {(I(0, 0, 0),): s_rational(-1)}}


def test_skew_linear_term():
    # skew(lambda * I_c) = lambda * I_c + dI_c
    p = {1: {(I(0, 0, 0),): UNIT}}
    out = skew(p)
    assert out == {
        1: {(I(0, 0, 0),): UNIT},
        0: {(I(0, 0, 0, 1),): UNIT},
    }


from tests_support_random import random_letter
from tests_support_random import random_poly as _random_poly
from tests_support_random import random_word as _random_word
from tests_support_random import rightmost_normal_order


def test_skew_is_involution_500_random():
    rng = random.Random("skew-involution")
    for _ in range(500):
        p = _random_poly(rng)
        assert skew(skew(p)) == p


def test_integrate_commutator_examples():
    # lambda-free c -> T(c); lambda * c -> -T^2(c)/2; zero -> zero
    word = (I(0, 0, 0),)
    assert integrate_commutator({0: {word: UNIT}}) == {(I(0, 0, 0, 1),): UNIT}
    out = integrate_commutator({1: {word: UNIT}})
    assert out == {(I(0, 0, 0, 2),): {(0, 0, 0): Fraction(-1, 2)}}
    assert integrate_commutator({}) == {}


def test_substitute_lambda_plus_mu_binomial():
    word = (I(0, 0, 0),)
    out = substitute_lambda_plus_mu({2: {word: UNIT}})
    assert out == {
        (2, 0): {word: UNIT},
        (1, 1): {word: s_rational(2)},
        (0, 2): {word: UNIT},
    }


def test_sesquilinearity_left_derivative(base):
    # [T a _l b] = -lambda [a_l b] for every probe pair
    rng = random.Random("sesqui-left")
    for _ in range(50):
        a = GenSymbol(rng.choice([lc.KIND_J, lc.KIND_I]), rng.randrange(3),
                      (rng.randrange(2), rng.randrange(2)), 0)
        b = GenSymbol(rng.choice([lc.KIND_J, lc.KIND_I]), rng.randrange(3),
                      (rng.randrange(2), rng.randrange(2)), 0)
        plain = atomic_bracket(base, a, b)
        shifted = atomic_bracket(base, a.d(), b)
        expect = {}
        for k, ws in plain.items():
            lc.lp_iadd(expect, k + 1, ws, -1)
        assert shifted == expect


def test_sesquilinearity_right_derivative(base):
    # [a _l T b] = (lambda + T)[a_l b]
    rng = random.Random("sesqui-right")
    for _ in range(50):
        a = GenSymbol(rng.choice([lc.KIND_J, lc.KIND_I]), rng.randrange(3),
                      (rng.randrange(2), rng.randrange(2)), 0)
        b = GenSymbol(rng.choice([lc.KIND_J, lc.KIND_I]), rng.randrange(3),
                      (rng.randrange(2), rng.randrange(2)), 0)
        plain = atomic_bracket(base, a, b)
        shifted = atomic_bracket(base, a, b.d())
        expect = {}
        for k, ws in plain.items():
            lc.lp_iadd(expect, k + 1, ws)
            lc.lp_iadd(expect, k, total_derivative(ws))
        assert shifted == normal_order_poly(base, expect)


def test_wick_unit_and_single_letter(base):
    a = J(0, 0, 0)
    assert bracket_words(base, (a,), ()) == {}
    assert bracket_words(base, (), (a,)) == {}
    got = bracket_words(base, (a,), (J(1, 0, 0),))
    # [J_h J_e] = 2 J_e[0,0] in sl2 basis order (h, e, f)
    assert got == {0: {(J(1, 0, 0),): s_rational(2)}}


def test_wick_two_letter_hand_value(base):
    # [J_e[0,0]_l (J_f[0,0] I_h[0,0])] over sl2 (h,e,f) = (0,1,2):
    #   [e,f] = h, [e,h] = -2e, [[e,f],h] = 0
    # = J_h I_h - 2 J_f I_e + 0
    got = bracket_words(base, (J(1, 0, 0),), (J(2, 0, 0), I(0, 0, 0)))
    expect = {0: {
        (J(0, 0, 0), I(0, 0, 0)): UNIT,
        (J(2, 0, 0), I(1, 0, 0)): s_rational(-2),
    }}
    assert got == expect


def test_wick_integral_term_hand_value(base):
    # [J_h[0,0]_l (J_e[0,0] I_f[0,0])]: tensor terms cancel (2 - 2),
    # integral term survives: lambda * I_{[[h,e],f]} = 2 lambda I_h
    got = bracket_words(base, (J(0, 0, 0),), (J(1, 0, 0), I(2, 0, 0)))
    assert got == {1: {(I(0, 0, 0),): s_rational(2)}}


def test_left_bracket_unit_is_zero(base):
    assert bracket_words(base, (), (J(0, 0, 0),)) == {}


def test_left_bracket_dual_route_agreement(base, extended):
    # every multi-letter left argument exercises the assertion internally
    lc.reset_stats()
    words = [
        ((J(1, 0, 0), I(2, 0, 0)), (J(0, 0, 0),)),
        ((J(0, 1, 0), I(1, 0, 1)), (J(2, 0, 0),)),
        ((I(0, 0, 0), I(1, 0, 0)), (J(2, 1, 1),)),
    ]
    for left, right in words:
        bracket_words(base, left, right)
    assert lc.STATS["dual_path_checks"] >= 3
    lc.reset_stats()
    bracket_words(extended, (J(0, 1, 0), I(1, 0, 0)), (F(0, 0),))
    assert lc.STATS["dual_path_checks"] >= 1


def test_normal_order_sorted_word_unchanged(base):
    word = (J(0, 0, 0), I(1, 0, 0), I(2, 1, 0))
    assert normal_order(base, {word: UNIT}) == {word: UNIT}


def test_normal_order_swap_with_correction(base):
    # I_y J_x -> J_x I_y - d(I_{[x,y]});  x = e (label 1), y = f (label 2):
    # [x,y] = h (label 0), correction word -d.I_h
    got = normal_order(base, {(I(2, 0, 0), J(1, 0, 0)): UNIT})
    expect = {
        (J(1, 0, 0), I(2, 0, 0)): UNIT,
        (I(0, 0, 0, 1),): s_rational(-1),
    }
    assert got == expect


def test_normal_order_commuting_swap_pure_reorder(base):
    # two I letters: bracket vanishes, pure reorder
    got = normal_order(base, {(I(2, 0, 0), I(1, 0, 0)): UNIT})
    assert got == {(I(1, 0, 0), I(2, 0, 0)): UNIT}


def test_normal_order_idempotent_and_confluent_500_random(extended):
    rng = random.Random("normal-order")
    checked = 0
    while checked < 500:
        word = _random_word(rng, max_len=3)
        ws = {word: UNIT}
        once = normal_order(extended, ws)
        assert normal_order(extended, once) == once          # idempotent
        alt = rightmost_normal_order(extended, ws)
        assert once == alt                                    # confluent
        for w in once:
            assert is_canonical(w)
        checked += 1


def test_weight_grading():
    assert weight((J(0, 1, 2),)) == 4
    assert weight((E(1, 1), F(0, 0))) == 4
    assert weight(()) == 0


def test_undefined_bracket_reports_pair(sl2):
    # the deformed table defines J-J brackets only at the deformed patterns
    with pytest.raises(UndefinedBracket) as exc:
        bracket_words(rules_deformed(sl2), (J(0, 2, 0),), (J(1, 0, 1),))
    assert "J_0[2,0]" in str(exc.value) and "J_1[0,1]" in str(exc.value)


def test_format_stable_ordering(base):
    p = bracket_words(base, (J(0, 1, 0),), (J(1, 0, 1),))
    text = format_lambda_poly(p)
    assert text == format_lambda_poly(p)
    assert "J_1[1,1]" in text
    # [J_0[1,0] F[0,0]]: k = 1/2, so -(3/2) beta lambda I - (1/2) beta dI,
    # the lambda-free line first
    text = format_lambda_poly(bracket_words(base, (J(0, 1, 0),), (F(0, 0),)))
    assert text == "1 | d.I_0[1,0] | -1/2*beta\nlambda | I_0[1,0] | -3/2*beta"


@settings(max_examples=200, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(0, 3), st.integers(0, 3))
def test_scalar_ring_laws(a, b, ea, eb):
    from celalg.scalar import s_iadd, s_mul, s_monomial
    x = s_monomial((ea, 0, 0), a)
    y = s_monomial((0, eb, 0), b)
    assert s_mul(x, y) == s_mul(y, x)
    x_y, y_x, two_x = dict(x), dict(y), dict(x)
    s_iadd(x_y, y)
    s_iadd(y_x, x)
    s_iadd(two_x, x)
    assert x_y == y_x
    assert two_x == s_scale(x, 2)


@pytest.fixture(scope="module")
def extended_a2():
    return rules_extended(simple_lie_algebra("A", 2))


_BIDEGREES = st.tuples(st.integers(0, 3), st.integers(0, 3))
_DPOW = st.integers(0, 2)
# beyond the construction probe (labels < 3, bidegrees <= 2, no derivatives)
_LETTERS = st.one_of(
    st.builds(GenSymbol, st.sampled_from([lc.KIND_J, lc.KIND_I]),
              st.integers(0, 7), _BIDEGREES, _DPOW),
    st.builds(GenSymbol, st.just(lc.KIND_E), st.just(-1),
              _BIDEGREES.filter(lambda bid: bid != (0, 0)), _DPOW),
    st.builds(GenSymbol, st.just(lc.KIND_F), st.just(-1), _BIDEGREES, _DPOW),
)


@settings(max_examples=300, deadline=None)
@given(a=_LETTERS, b=_LETTERS)
def test_skew_symmetry_of_letters_on_extended_a2(extended_a2, a, b):
    # [b_l a] = -[a_{-l-T} b]: with sesquilinearity, the axiom behind both
    # identities that let the Jacobi grid compute sorted triples only
    rules = extended_a2
    forward = bracket_words(rules, (a,), (b,))
    assert bracket_words(rules, (b,), (a,)) == normal_order_poly(rules, skew(forward))


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_sesquilinearity_of_letters_on_extended_a2(extended_a2, rng):
    # [Ta_l b] = -l [a_l b] and [a_l Tb] = (l + T) [a_l b], for letters of
    # any kind with derivative powers 0-2 on the sl3 labels
    rules = extended_a2
    a, b = random_letter(rng, dim=8), random_letter(rng, dim=8)
    left, right = {}, {}
    for k, ws in bracket_words(rules, (a,), (b,)).items():
        lc.lp_iadd(left, k + 1, ws, -1)
        lc.lp_iadd(right, k + 1, ws)
        lc.lp_iadd(right, k, total_derivative(ws))
    assert bracket_words(rules, (a.d(),), (b,)) == left
    assert bracket_words(rules, (a,), (b.d(),)) == normal_order_poly(rules, right)


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_quasi_commutativity_of_nproduct_on_extended_a2(extended_a2, rng):
    # N(a, W) - N(W, a) is the integral of [a_l W] from -T to 0: a letter
    # against a sorted word of one or two letters on the sl3 labels
    rules = extended_a2
    a = random_letter(rng, dim=8)
    word = tuple(sorted(random_letter(rng, dim=8) for _ in range(rng.randint(1, 2))))
    difference = dict(nproduct(rules, (a,), word))
    lc.ws_add_scaled(difference, nproduct(rules, word, (a,)), -1)
    assert difference == normal_order(
        rules, integrate_commutator(bracket_words(rules, (a,), word)))


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_left_extension_matches_skewed_wick_on_extended_a1(extended, rng):
    # the two routes of a multi-letter word W against one letter c, on
    # random words: the derivative shift [W_l c] and the skew image of the
    # Wick expansion [c_l W], which bracket_words compares at run time
    left = tuple(random_letter(rng) for _ in range(rng.randint(2, 3)))
    c = random_letter(rng)
    assert lc._left_extension(extended, left, (c,)) == normal_order_poly(
        extended, skew(lc._wick(extended, c, left)))


def test_single_generator_word_brackets(base):
    # one generator against a word and a word against one generator: the
    # unit word brackets to zero on either side
    a = J(0, 0, 0)
    assert bracket_words(base, (a,), ()) == {}
    assert bracket_words(base, (), (a,)) == {}
    single = bracket_words(base, (J(1, 0, 0),), (J(2, 0, 0),))
    assert single == {0: {(J(0, 0, 0),): s_rational(1)}}


def test_format_lambda_poly_golden_deformed_value():
    # pins the stable dump ordering: (exponent key, then word order)
    from celalg.celestial import rules_deformed
    from celalg.liealg import simple_lie_algebra
    rd = rules_deformed(simple_lie_algebra("A", 1))
    text = format_lambda_poly(bracket_words(rd, (J(1, 1, 0),), (J(2, 0, 1),)))
    assert text == "\n".join([
        "1 | J_0[0,0]*I_0[0,0] | -2*C",
        "1 | J_0[1,1] | 1",
        "1 | J_1[0,0]*I_2[0,0] | -2*C",
        "1 | J_2[0,0]*I_1[0,0] | -2*C",
        "1 | d.I_0[0,0] | D",
        "1 | d.E[1,1] | -beta",
        "1 | F[0,0] | -beta",
        "lambda | I_0[0,0] | 2*D",
        "lambda | E[1,1] | -2*beta",
    ])
    assert format_lambda_poly({}) == "0"


def test_dual_route_disagreement_message_is_pinned(sl2, monkeypatch):
    # one extra lambda^5 term on the shift route, on a fresh table so no
    # memo keeps a planted value
    rules = rules_extended(sl2)
    left_extension = lc._left_extension
    monkeypatch.setattr(lc, "_left_extension", lambda rs, left, right: {
        **left_extension(rs, left, right), 5: {(J(0, 0, 0),): UNIT}})
    with pytest.raises(lc.InternalConsistencyError) as exc:
        bracket_words(rules, (J(1, 0, 0), I(2, 0, 0)), (J(0, 0, 0),))
    assert str(exc.value) == "\n".join([
        "left bracket routes disagree for J_1[0,0]*I_2[0,0] vs J_0[0,0]:",
        "  shift route: 1 | d.I_0[0,0] | 2",
        "lambda | I_0[0,0] | 2",
        "lambda^5 | J_0[0,0] | 1",
        "  skew route:  1 | d.I_0[0,0] | 2",
        "lambda | I_0[0,0] | 2",
    ])
