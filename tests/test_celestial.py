"""Rule tables, Jacobi defects, and the deformation-constant solver.

Hand expansions for the sl2 values are spelled out in comments next to the
assertions; basis order for sl2 is (h, e, f) = labels (0, 1, 2) with duals
(h/2, f, e).
"""

import copy
import dataclasses
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from celalg import celestial
from celalg.celestial import (
    ConstantSolution,
    DomainError,
    ModelError,
    RuleIntegrityError,
    closed_form_constants,
    closed_form_fractions,
    defect_poly,
    grid_generators,
    jacobi_defect,
    rules_deformed,
    rules_extended,
    solve_constants,
    verify_jacobi_grid,
)
from celalg.lambdacalc import (
    E,
    F,
    GenSymbol,
    I,
    J,
    KIND_I,
    KIND_J,
    UndefinedBracket,
    bracket_words,
    format_lambda_poly,
    lp_equal,
    lp_iadd,
    normal_order_poly,
    skew,
    ws_iadd,
)
from celalg.liealg import row_reduce, simple_lie_algebra
from celalg.scalar import s_monomial, s_rational, s_scale

BETA = (1, 0, 0)
DC = (0, 1, 0)
CC = (0, 0, 1)


@pytest.fixture(scope="module")
def sl2():
    return simple_lie_algebra("A", 1)


@pytest.fixture(scope="module")
def sl3():
    return simple_lie_algebra("A", 2)


# --- current brackets: the extended table's J/I part ----------------------------

def test_base_jj_bidegree_addition(sl2):
    rx = rules_extended(sl2)
    got = bracket_words(rx, (J(0, 1, 2),), (J(1, 3, 4),))
    # [h, e] = 2e
    assert got == {(0, 0): {(J(1, 4, 6),): s_rational(2)}}


def test_base_ii_zero_all_bidegrees(sl2):
    rx = rules_extended(sl2)
    for bids in [((0, 0), (0, 0)), ((1, 2), (3, 1))]:
        (n1, m1), (n2, m2) = bids
        assert bracket_words(rx, (I(0, n1, m1),), (I(1, n2, m2),)) == {}


def test_base_ji(sl2):
    rx = rules_extended(sl2)
    got = bracket_words(rx, (J(0, 0, 0),), (I(1, 0, 0),))
    assert got == {(0, 0): {(I(1, 0, 0),): s_rational(2)}}


# --- extended rules -------------------------------------------------------------

def test_extended_je_examples(sl2):
    rx = rules_extended(sl2)
    # (e2 j1 - e1 j2)/(e1+e2) = (1*1 - 0*0)/1 = 1
    got = bracket_words(rx, (J(0, 1, 0),), (E(0, 1),))
    assert got == {(0, 0): {(I(0, 0, 0),): s_monomial(BETA)}}
    # numerator vanishes
    assert bracket_words(rx, (J(0, 0, 0),), (E(1, 1),)) == {}


def test_extended_jf_examples(sl2):
    rx = rules_extended(sl2)
    # bidegree (0,0) on both: -beta lambda I_a[0,0]
    got = bracket_words(rx, (J(0, 0, 0),), (F(0, 0),))
    assert got == {(1, 0): {(I(0, 0, 0),): s_monomial(BETA, -1)}}
    # J[1,0] against F[0,0]: k = 1/2, so -(3/2) beta lambda I - (1/2) beta dI
    got = bracket_words(rx, (J(0, 1, 0),), (F(0, 0),))
    assert got == {
        (1, 0): {(I(0, 1, 0),): s_monomial(BETA, Fraction(-3, 2))},
        (0, 0): {(I(0, 1, 0, 1),): s_monomial(BETA, Fraction(-1, 2))},
    }


def test_abelian_sector_zero(sl2):
    rx = rules_extended(sl2)
    pairs = [((I(0, 0, 0),), (E(1, 0),)), ((E(1, 0),), (F(0, 0),)),
             ((F(0, 0),), (F(1, 1),)), ((E(0, 1),), (E(1, 0),)),
             ((I(1, 2, 2),), (F(0, 0),))]
    for left, right in pairs:
        assert bracket_words(rx, left, right) == {}
        assert bracket_words(rx, right, left) == {}


def test_skew_consistency_on_queries(sl2):
    rx = rules_extended(sl2)
    pairs = [((J(0, 1, 0)), (E(0, 1))), ((J(1, 2, 1)), (F(1, 0))),
             ((J(0, 1, 1)), (J(1, 0, 2))), ((J(1, 0, 0)), (I(2, 1, 1)))]
    for a, b in pairs:
        direct = bracket_words(rx, (a,), (b,))
        reversed_ = bracket_words(rx, (b,), (a,))
        assert lp_equal(reversed_, normal_order_poly(rx, skew(direct)))
        assert lp_equal(direct, normal_order_poly(rx, skew(reversed_)))


# --- deformed rules ---------------------------------------------------------------

def test_deformed_main_rule_sl2(sl2):
    # [J_e[1,0] J_f[0,1]] with (e,f) = 1 and [e,f] = h:
    #   J_h[1,1] - beta(2 lambda E[1,1] + dE[1,1] + F[0,0])
    #   + D(2 lambda I_h + dI_h) - 2C(J_h I_h + J_e I_f + J_f I_e)
    rd = rules_deformed(sl2)
    got = bracket_words(rd, (J(1, 1, 0),), (J(2, 0, 1),))
    expect = {
        (0, 0): {
            (J(0, 1, 1),): s_rational(1),
            (E(1, 1, 1),): s_monomial(BETA, -1),
            (F(0, 0),): s_monomial(BETA, -1),
            (I(0, 0, 0, 1),): s_monomial(DC),
            (J(0, 0, 0), I(0, 0, 0)): s_monomial(CC, -2),
            (J(1, 0, 0), I(2, 0, 0)): s_monomial(CC, -2),
            (J(2, 0, 0), I(1, 0, 0)): s_monomial(CC, -2),
        },
        (1, 0): {
            (E(1, 1),): s_monomial(BETA, -2),
            (I(0, 0, 0),): s_monomial(DC, 2),
        },
    }
    assert lp_equal(got, expect)


def test_deformed_low_rule(sl2):
    # n + m = 0: no E term at all
    rd = rules_deformed(sl2)
    got = bracket_words(rd, (J(0, 0, 0),), (J(1, 0, 0),))
    assert got == {(0, 0): {(J(1, 0, 0),): s_rational(2)}}
    # n + m = 1 with nonzero pairing: [J_e[1,0] J_f[0,0]], (e,f) = 1
    got = bracket_words(rd, (J(1, 1, 0),), (J(2, 0, 0),))
    expect = {
        (0, 0): {(J(0, 1, 0),): s_rational(1),
                 (E(1, 0, 1),): s_monomial(BETA, -1)},
        (1, 0): {(E(1, 0),): s_monomial(BETA, -1)},
    }
    assert lp_equal(got, expect)


def test_deformed_ji_rules_sign_split(sl2):
    rd = rules_deformed(sl2)
    # [J_e[1,0] I_f[0,1]] = I_h[1,1] - C (I x I words)
    got_main = bracket_words(rd, (J(1, 1, 0),), (I(2, 0, 1),))
    # [J_e[0,1] I_f[1,0]] = I_h[1,1] + C (same words)
    got_alt = bracket_words(rd, (J(1, 0, 1),), (I(2, 1, 0),))
    ws_main = got_main[(0, 0)]
    ws_alt = got_alt[(0, 0)]
    assert ws_main[(I(0, 1, 1),)] == ws_alt[(I(0, 1, 1),)] == s_rational(1)
    quad_main = {w: sc for w, sc in ws_main.items() if len(w) == 2}
    quad_alt = {w: sc for w, sc in ws_alt.items() if len(w) == 2}
    assert quad_main and set(quad_main) == set(quad_alt)
    for w, sc in quad_main.items():
        assert quad_alt[w] == {exp: -v for exp, v in sc.items()}
        assert all(g.kind == 1 for g in w)  # all letters are I


def test_deformed_undefined_patterns(sl2):
    rd = rules_deformed(sl2)
    with pytest.raises(UndefinedBracket):
        bracket_words(rd, (J(0, 1, 0),), (J(1, 1, 0),))
    with pytest.raises(UndefinedBracket):
        bracket_words(rd, (J(0, 2, 1),), (J(1, 0, 1),))
    # but the v2 patterns and their skew images resolve
    assert bracket_words(rd, (J(0, 0, 1),), (J(1, 1, 0),))  # skew of main
    assert bracket_words(rd, (J(0, 0, 0),), (J(1, 1, 1),))  # skew of low, n+m=2


def test_deformed_base_ji_other_patterns(sl2):
    rd = rules_deformed(sl2)
    got = bracket_words(rd, (J(0, 1, 1),), (I(1, 0, 0),))
    assert got == {(0, 0): {(I(1, 1, 1),): s_rational(2)}}


# --- Jacobi defects ---------------------------------------------------------------

def test_defect_zero_base_jjj(sl3):
    rx = rules_extended(sl3)
    rng = random.Random("base-jjj")
    for _ in range(20):
        labels = [rng.randrange(sl3.dim) for _ in range(3)]
        bids = [(rng.randrange(3), rng.randrange(3)) for _ in range(3)]
        triple = tuple(J(l, *b) for l, b in zip(labels, bids))
        assert not defect_poly(rx, *triple)


def test_defect_terms_structure(sl2):
    rd = rules_deformed(sl2)
    jd = jacobi_defect(rd, J(1, 1, 0), J(2, 0, 1), J(0, 0, 0))
    # defect = (1) - (2) - (3) in canonical form
    recombined = {}
    for term, sign in ((jd.term1, 1), (jd.term2, -1), (jd.term3, -1)):
        for key, ws in term.items():
            lp_iadd(recombined, key, ws, sign)
    assert lp_equal(recombined, jd.defect)
    assert jd.defect  # nonzero for generic D, C


def test_jacobi_defect_terms_match_defect_poly(sl3):
    rd = rules_deformed(sl3)
    rng = random.Random("jacobi-defect-a2")
    nonzero = 0
    for _ in range(40):
        la, lb, lc = (rng.randrange(sl3.dim) for _ in range(3))
        triple = (J(la, 1, 0), J(lb, 0, 1), J(lc, 0, 0))
        jd = jacobi_defect(rd, *triple)
        recombined = {}
        for term, sign in ((jd.term1, 1), (jd.term2, -1), (jd.term3, -1)):
            for key, ws in term.items():
                lp_iadd(recombined, key, ws, sign)
        assert lp_equal(recombined, jd.defect)
        assert lp_equal(jd.defect, defect_poly(rd, *triple))
        nonzero += bool(jd.defect)
    assert nonzero >= 10


def test_defect_extended_jje_grid(sl2):
    rx = rules_extended(sl2)
    for m in range(3):
        for n in range(3):
            for r in range(3):
                for s in range(3):
                    for t, u in [(0, 1), (1, 0), (1, 1), (2, 1)]:
                        d = defect_poly(rx, J(1, m, n), J(2, r, s), E(t, u))
                        assert not d, format_lambda_poly(d)


def test_verify_jacobi_grid_sl2(sl2):
    rep = verify_jacobi_grid(sl2, 2)
    assert rep.passed
    assert rep.details["triples"] == 71 ** 3
    assert rep.details["generators"] == 71
    # 35 patterns: 9 J, 9 I, 8 E and 9 F.  The C(37, 3) = 7770 pattern
    # triples less the 6435 with two slots in span(I, E, F) leave C(11, 3)
    # J-J-J and C(10, 2) 26 J-J-A ones; the 165 + 405 of them with three
    # labelled slots take dim = 3 representatives (x_-theta, x_theta, e_k)
    assert rep.details["computed"] == 1335 + 2 * 570 == 2475
    assert rep.details["spot_checked"] == 1024
    # 71^3 less the 27^3 J-J-J and 3 27^2 44 J-J-A ordered triples
    assert rep.details["abelian_ideal"] == {
        "patterns": 7770 - 1335, "triples": 242000, "spot_checked": 670}


def test_verify_jacobi_grid_ledger_sl3(sl3):
    rep = verify_jacobi_grid(sl3, 1)
    assert rep.passed
    # 15 patterns (4 J, 4 I, 3 E, 4 F): C(17, 3) = 680 pattern triples, of
    # which C(6, 3) J-J-J and C(5, 2) 11 J-J-A are computed, 130 in all,
    # 20 + 40 of them on dim = 8 representatives
    assert rep.details["computed"] == 130 + 7 * 60 == 550
    assert rep.details["spot_checked"] == 1024
    assert rep.details["abelian_ideal"] == {
        "patterns": 680 - 130, "triples": 205335, "spot_checked": 598}
    ideal = rep.details["abelian_ideal"]["triples"]
    scanned = 32 ** 3 + 3 * 32 ** 2 * 39
    assert scanned + ideal == rep.details["triples"] == 71 ** 3


def test_verify_jacobi_grid_ledger_g2():
    # the 15 patterns of A2 grid 1 over 14 labels, 119 generators: the 20
    # J-J-J and 40 J-J-I pattern triples take 6 representatives each, one
    # per label that generates G2 over the theta-centralizer (14 each with
    # every label, 910 in all), and the 70 J-J-E and J-J-F ones one each
    rep = verify_jacobi_grid(simple_lie_algebra("G", 2), 1)
    assert rep.passed
    assert rep.details["generators"] == 119
    assert rep.details["triples"] == 119 ** 3
    assert rep.details["spot_checked"] == 1024
    assert rep.details["computed"] == 60 * 6 + 70 == 430


@pytest.mark.parametrize("build,kinds", [
    pytest.param(rules_extended, {"I", "E", "F"}, id="rules_extended-kinds1"),
    pytest.param(rules_deformed, {"I", "E", "F"}, id="rules_deformed-kinds2")])
def test_abelian_kinds_are_derived_from_the_rules(sl2, build, kinds):
    # the declared ideal, and the zero block each table is built on
    rs = build(sl2)
    assert {"JIEF"[k] for k in rs.abelian} == kinds
    assert {pair for pair, rule in rs.rules.items() if rule is celestial._zero_rule} == {
        (ka, kb) for ka in rs.abelian for kb in rs.abelian}


def _not_lie(L):
    """L with [h, e] = 3e (and [e, h] = -3e): skew, but no Lie algebra."""
    f = {key: dict(val) for key, val in L.f.items()}
    f[(0, 1)], f[(1, 0)] = {1: 3}, {1: -3}
    return dataclasses.replace(L, f=f)


def test_verify_jacobi_grid_fails_a_non_lie_algebra(sl2):
    rep = verify_jacobi_grid(_not_lie(sl2), 1)
    assert not rep.passed
    # a real defect: the identities rest on skew-symmetry and
    # sesquilinearity only, which the broken bracket keeps
    assert "shortcut" not in rep.first_counterexample
    # the first representative (x_-theta, x_theta, e_0) of J[0,0]^3
    assert rep.first_counterexample["triple"] == ["J_2[0,0]", "J_1[0,0]", "J_0[0,0]"]


def test_reduced_scan_finds_the_brute_force_patterns(sl2, monkeypatch):
    # no equivariance to lean on: the representatives must still meet every
    # kind/bidegree pattern triple with a nonzero defect somewhere
    broken = _not_lie(sl2)
    rules = rules_extended(broken)
    gens = grid_generators(broken, 1)
    brute = set()
    for ia in range(len(gens)):
        for ib in range(ia, len(gens)):
            for ic in range(ib, len(gens)):
                triple = (gens[ia], gens[ib], gens[ic])
                if defect_poly(rules, *triple):
                    brute.add(tuple(sorted(map(celestial._pattern, triple))))
    monkeypatch.setattr(celestial, "_DEFECT_LIMIT", 10 ** 9)
    _, decided, _ = celestial._scan_patterns(rules, gens, range(broken.dim))
    assert {key for key, clean in decided.items() if not clean} == brute
    assert len(brute) == 60


def test_each_spot_sample_costs_one_defect(sl2, monkeypatch):
    calls = []
    orig = celestial.defect_poly

    def counting(rules, a, b, c):
        calls.append((a, b, c))
        return orig(rules, a, b, c)

    monkeypatch.setattr(celestial, "defect_poly", counting)
    rep = verify_jacobi_grid(sl2, 1)
    assert rep.passed and rep.details["spot_checked"] == celestial._SPOT_CHECKS
    # on a passing run every pattern is decided clean, so every draw is
    # checked, at the cost of its own defect alone
    assert len(calls) == rep.details["computed"] + rep.details["spot_checked"]


def test_spot_check_is_exhaustive_on_a_small_grid(sl2, monkeypatch):
    # A1 grid 0 has 7 generators, so the draws cover all 7^3 ordered triples
    # and a fault planted on any one of them is caught
    rep = verify_jacobi_grid(sl2, 0)
    assert rep.passed and rep.details["spot_checked"] == 7 ** 3
    gens = grid_generators(sl2, 0)
    orig = celestial.defect_poly
    for planted in random.Random("planted-fault").sample(
            [(a, b, c) for a in gens for b in gens for c in gens], 3):

        def faulty(rules, a, b, c, planted=planted):
            d = orig(rules, a, b, c)
            if (a, b, c) == planted:
                lp_iadd(d, (0, 0), {(c,): s_rational(1)})
            return d

        monkeypatch.setattr(celestial, "defect_poly", faulty)
        rep = verify_jacobi_grid(sl2, 0)
        assert not rep.passed
        assert rep.first_counterexample["triple"] == [str(g) for g in planted]


def test_label_reduction_spot_check_catches_a_non_equivariant_rule(sl3, monkeypatch):
    # J-E doubled on one positive root vector only: the representatives
    # (x_-theta, x_theta, e_k) never meet the fault, a few samples do
    orig = celestial.je_rule_poly
    faulty = sl3.pos_root_index(0)

    def doubled(rs, a, b):
        val = orig(rs, a, b)
        if a.label == faulty:
            for key, ws in list(val.items()):
                val[key] = {w: s_scale(sc, 2) for w, sc in ws.items()}
        return val

    monkeypatch.setattr(celestial, "je_rule_poly", doubled)
    rep = verify_jacobi_grid(sl3, 1)
    assert not rep.passed
    assert rep.first_counterexample["shortcut"] == "label reduction"
    assert rep.first_counterexample["inferred"] == "0"


def _must_not_run(*args, **kwargs):
    raise AssertionError("the grid started work for a level it cannot run")


# a bad level or grid is named first, whatever jobs is
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("level,grid_max,words", [
    # the deformed table defines J-J brackets only at the deformed patterns,
    # so its grid would stop on an undefined bracket
    pytest.param("deformed", 1, ("extended", "'deformed'"), id="deformed"),
    # the base current algebra is the extended table's J/I part
    pytest.param("base", 1, ("extended", "'base'"), id="base"),
    pytest.param("no-such-level", 1, ("extended", "'no-such-level'"),
                 id="no-such-level"),
    # a negative grid has no generators, so it would pass on zero triples
    pytest.param("extended", -1, ("grid_max >= 0", "-1"), id="negative-grid"),
    # a bad level is named before a bad grid
    pytest.param("base", -2, ("extended", "'base'"), id="negative-base-grid"),
])
def test_verify_jacobi_grid_rejects_other_levels(sl2, monkeypatch, level, grid_max,
                                                 words, jobs):
    # refused before any generator list or spot sample exists
    monkeypatch.setattr(celestial, "grid_generators", _must_not_run)
    monkeypatch.setattr(celestial, "_seeded_triples", _must_not_run)
    with pytest.raises(ValueError) as exc:
        verify_jacobi_grid(sl2, grid_max, level=level, jobs=jobs)
    assert all(word in str(exc.value) for word in words), str(exc.value)


@pytest.mark.parametrize("jobs", [0, 2])
def test_verify_jacobi_grid_rejects_jobs_other_than_one(sl2, monkeypatch, jobs):
    # the grid runs serially; jobs stays in the signature for the benchmark
    monkeypatch.setattr(celestial, "grid_generators", _must_not_run)
    monkeypatch.setattr(celestial, "_seeded_triples", _must_not_run)
    with pytest.raises(ValueError, match=f"jobs must be 1, not {jobs}"):
        verify_jacobi_grid(sl2, 1, jobs=jobs)


def _swapped(p):
    """-p(mu, lambda)."""
    return {(j, i): {w: s_scale(sc, -1) for w, sc in ws.items()}
            for (i, j), ws in p.items()}


def _transposed(rules, p):
    """-p(lambda, -lambda - mu - T), normal ordered: (-lambda - mu - T)^j is
    multiplied out factor by factor, and T acts on each word letter by letter
    (Leibniz)."""
    out = {}
    for (i, j), ws in p.items():
        # monomials lambda^x mu^y T^z of -(-lambda - mu - T)^j
        power = {(0, 0, 0): -1}
        for _ in range(j):
            nxt = {}
            for (x, y, z), k in power.items():
                for key in ((x + 1, y, z), (x, y + 1, z), (x, y, z + 1)):
                    nxt[key] = nxt.get(key, 0) - k
            power = nxt
        for (x, y, z), k in power.items():
            for word, sc in ws.items():
                derived = {word: 1}
                for _ in range(z):
                    nxt = {}
                    for w, m in derived.items():
                        for pos, g in enumerate(w):
                            bumped = w[:pos] + (g._replace(dpow=g.dpow + 1),) + w[pos + 1:]
                            nxt[bumped] = nxt.get(bumped, 0) + m
                    derived = nxt
                for w, m in derived.items():
                    lp_iadd(out, (i + x, y), {w: s_scale(sc, k * m)})
    return normal_order_poly(rules, out)


def test_swap_identity_on_deformed_triples(sl3):
    # both transpositions, exactly, with derivative powers on the letters:
    # defect(b, a, c)(lambda, mu) == -defect(a, b, c)(mu, lambda) and
    # defect(a, c, b)(lambda, mu) == -defect(a, b, c)(lambda, -lambda - mu - T)
    rd = rules_deformed(sl3)
    rng = random.Random("swap-identity-a2")
    bids = [(1, 0), (0, 1), (0, 0)]
    nonzero = 0
    for _ in range(60):
        rng.shuffle(bids)
        a, b, c = (J(rng.randrange(sl3.dim), *bid, rng.randrange(2)) for bid in bids)
        d = defect_poly(rd, a, b, c)
        assert lp_equal(defect_poly(rd, b, a, c), _swapped(d)), (a, b, c)
        assert lp_equal(defect_poly(rd, a, c, b), _transposed(rd, d)), (a, b, c)
        nonzero += bool(d)
    assert nonzero >= 10


# --- constant solving ----------------------------------------------------------------

def test_solve_constants_a1(sl2):
    sol = solve_constants(sl2)
    assert sol.status == "unique"
    assert sol.d_over_beta2 == Fraction(-1, 8)
    assert sol.c_over_beta2 == Fraction(3, 16)


def test_solve_constants_a2(sl3):
    sol = solve_constants(sl3)
    assert sol.status == "unique"
    assert (sol.d_over_beta2, sol.c_over_beta2) == (Fraction(-1, 6), Fraction(1, 6))


def test_solve_constants_excluded_types():
    assert solve_constants(simple_lie_algebra("A", 3)).status == "trivial_only"
    assert solve_constants(simple_lie_algebra("B", 2)).status == "trivial_only"


def test_solve_constants_g2():
    sol = solve_constants(simple_lie_algebra("G", 2))
    assert sol.status == "unique"
    assert (sol.d_over_beta2, sol.c_over_beta2) == (Fraction(-1, 5), Fraction(3, 20))
    assert closed_form_fractions(simple_lie_algebra("G", 2)) == \
        (Fraction(-1, 5), Fraction(3, 20))


def _solver_rows(L, monkeypatch):
    """The row set solve_constants hands to _solve_rows."""
    seen = []
    orig = celestial._solve_rows

    def capture(rows, k):
        seen.append(set(rows))
        return orig(rows, k)

    monkeypatch.setattr(celestial, "_solve_rows", capture)
    solve_constants(L)
    assert len(seen) == 1
    return seen[0]


def _span(rows):
    """The reduced basis the solver returns for the rows."""
    return celestial._solve_rows(rows, 3)[2]


def _columns(rules):
    """The solver's unknowns: beta^2, then the table's formal D and C."""
    return ((2, 0, 0), *rules.d_const, *rules.c_const)


def _label_rows(rules, la, lb, lc):
    """The defect rows of the label triple (J_la[1,0], J_lb[0,1], J_lc[0,0])."""
    return celestial._defect_rows(rules, (J(la, 1, 0), J(lb, 0, 1), J(lc, 0, 0)),
                                  _columns(rules))


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("G", 2), ("B", 2)])
def test_reduced_rows_span_all_label_triples(monkeypatch, series, rank):
    # the triples (x_-theta, x_theta, e_k), e_k over the labels that
    # generate g over the theta-centralizer (all of them on A1 and A2, 6 of
    # 14 on G2 and 6 of 10 on B2), decide the whole system: their rows span
    # the rows of all dim^3 label triples
    L = simple_lie_algebra(series, rank)
    fresh = rules_deformed(L)
    n = L.dim
    full = set()
    for la in range(n):
        for lb in range(n):
            for lc in range(n):
                full.update(_label_rows(fresh, la, lb, lc))
    reduced = _solver_rows(L, monkeypatch)
    assert len(reduced) < len(full)
    assert _span(reduced) == _span(full)


def test_span_spot_check_catches_a_non_equivariant_table(monkeypatch, capsys):
    from celalg.cli import main
    from celalg.lambdacalc import InternalConsistencyError
    orig = celestial._quadratic_words

    def perturbed(rs, kind_left, la, lb, coeff):
        # one dual-bracket entry, [e_0, e^3] at e_9, plus 1: the table is no
        # longer g-equivariant
        out = orig(rs, kind_left, la, lb, coeff)
        if lb == 0:
            extra = GenSymbol(KIND_I, 9, (0, 0), 0)
            for k, ck in rs.algebra.bracket_basis(la, 3).items():
                word = tuple(sorted((GenSymbol(kind_left, k, (0, 0), 0), extra)))
                ws_iadd(out, word, s_scale(coeff, ck))
        return out

    monkeypatch.setattr(celestial, "_quadratic_words", perturbed)
    G2 = simple_lie_algebra("G", 2)
    rd = rules_deformed(G2)
    # the reduced rows alone still give the closed form, so only the spot
    # check can see the fault
    low, high = celestial._theta_labels(G2)
    status, solution, _ = celestial._solve_rows(
        {row for k in range(G2.dim) for row in _label_rows(rd, low, high, k)}, 3)
    assert (status, solution) == ("unique", (Fraction(-1, 5), Fraction(3, 20)))
    with pytest.raises(InternalConsistencyError, match=r"triple \(J_\d+\[1,0\], "
                       r"J_\d+\[0,1\], J_\d+\[0,0\]\) of G2"):
        solve_constants(G2)
    capsys.readouterr()
    assert main(["solve", "G2"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("internal error: InternalConsistencyError: triple (J_")


def _kills_theta_pair(L, z):
    """z (x_-theta (x) x_theta) = [z, x_-theta] (x) x_theta
    + x_-theta (x) [z, x_theta] vanishes, summed in the tensor basis."""
    low, high = celestial._theta_labels(L)
    acc = {}
    for k, v in L.bracket_basis(z, low).items():
        acc[k, high] = acc.get((k, high), 0) + v
    for k, v in L.bracket_basis(z, high).items():
        acc[low, k] = acc.get((low, k), 0) + v
    return not any(acc.values())


def _module_dimension(L, acting, seeds):
    """dim U(acting) span(seeds), exactly: every image ad_z v of a vector v
    of the span is reduced against an echelon basis of general vectors
    keyed by their least label, and one that does not reduce to zero joins
    it, until no image adds to the span."""
    rows = {}

    def reduce(v):
        while v:
            lead = min(v)
            if lead not in rows:
                return v
            row = rows[lead]
            m = v[lead] / row[lead]
            for k, x in row.items():
                v[k] = v.get(k, 0) - m * x
            v = {k: x for k, x in v.items() if x}
        return v

    todo = [{s: Fraction(1)} for s in seeds]
    while todo:
        v = reduce(todo.pop())
        if not v:
            continue
        rows[min(v)] = v
        for z in acting:
            image = {}
            for y, cy in v.items():
                for k, ck in L.bracket_basis(z, y).items():
                    image[k] = image.get(k, 0) + cy * ck
            todo.append({k: x for k, x in image.items() if x})
    return len(rows)


_EXTENDED = pytest.mark.skipif(not os.environ.get("CELALG_EXTENDED"),
                               reason="set CELALG_EXTENDED=1 to run the large-algebra suite")


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
    ("C", 4), ("D", 4), ("G", 2), ("F", 4),
    *(pytest.param("E", r, marks=_EXTENDED) for r in (6, 7, 8))])
def test_centralizer_generators_generate_g(series, rank):
    L = simple_lie_algebra(series, rank)
    rs = L.root_system
    c = celestial._theta_centralizer(L)
    # c holds exactly the basis elements that kill x_-theta (x) x_theta: the
    # Cartan slots and the root vectors orthogonal to theta
    assert c == [z for z in range(L.dim) if _kills_theta_pair(L, z)]
    assert c == list(range(L.rank)) + [
        p for r, p in rs.position.items() if rs.inner(r, rs.highest_root) == 0]
    seeds = celestial._centralizer_generators(L)
    assert _module_dimension(L, c, seeds) == L.dim
    if L.name in ("A1", "A2"):
        # c = h: every basis element spans its own c-module
        assert seeds == list(range(L.dim))
    else:
        assert len(seeds) < L.dim


def test_theta_centralizer_refuses_a_same_sign_scaling():
    # [h_i, x_theta] negated: h_i scales x_-theta and x_theta by the same
    # factor, so it no longer kills x_-theta (x) x_theta and leaves c
    L = simple_lie_algebra("G", 2)
    low, high = celestial._theta_labels(L)
    i = next(i for i in range(L.rank) if L.bracket_basis(i, high))
    ((k, v),) = L.f[i, high].items()
    planted = dataclasses.replace(L, f={**L.f, (i, high): {k: -v}, (high, i): {k: v}})
    c = celestial._theta_centralizer(planted)
    assert i in celestial._theta_centralizer(L) and i not in c
    assert c == [z for z in range(L.dim) if _kills_theta_pair(planted, z)]


def test_centralizer_walk_generates_g_under_any_acting_set(monkeypatch):
    # the walk is exact for any acting set, not only for the centralizer:
    # on C3, every set of one or two opposite root-vector pairs, with and
    # without the Cartan slots, leaves labels that generate g under it.
    # Some sets bracket a pair into a sum of Cartan slots that are all
    # still outside the span.
    L = simple_lie_algebra("C", 3)
    rs = L.root_system
    positive = range(L.rank, L.rank + len(rs.positive_roots))
    for size in (1, 2):
        for pairs in combinations(positive, size):
            for cartan in ((), tuple(range(L.rank))):
                acting = [*cartan, *pairs, *(rs.opposite[p] for p in pairs)]
                monkeypatch.setattr(celestial, "_theta_centralizer", lambda _: acting)
                seeds = celestial._centralizer_generators(L)
                assert _module_dimension(L, acting, seeds) == L.dim, acting


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("G", 2), ("B", 3), ("D", 4)])
def test_quadratic_words_match_the_dense_dual_basis_sum(series, rank):
    # _quadratic_words reads e^i at the Cartan block or opposite[i] alone;
    # the reference sums [e_b, e^i] over every entry pairing_inv[i][l]
    L = simple_lie_algebra(series, rank)
    rs = celestial.RuleSet(L, {})
    n = L.dim
    dual = []  # dual[b][i] = [e_b, e^i] over the basis
    for b in range(n):
        dual.append([])
        for row in L.pairing_inv:
            acc = {}
            for l, v in enumerate(row):
                for k, c in L.bracket_basis(b, l).items():
                    acc[k] = acc.get(k, 0) + v * c
            dual[b].append({k: v for k, v in acc.items() if v})
    for kind in (KIND_J, KIND_I):
        for la in range(n):
            for lb in range(n):
                want = {}
                for i in range(n):
                    for k, ck in L.bracket_basis(la, i).items():
                        for l, cl in dual[lb][i].items():
                            word = tuple(sorted((GenSymbol(kind, k, (0, 0), 0),
                                                 GenSymbol(KIND_I, l, (0, 0), 0))))
                            want[word] = want.get(word, 0) + ck * cl
                got = celestial._quadratic_words(rs, kind, la, lb, s_rational(1))
                assert got == {w: s_rational(v) for w, v in want.items() if v}


def _rank(rows, k):
    return len(row_reduce(rows, k)[1])


@pytest.mark.parametrize("rows,status,d,c", [
    # rank 3: only beta = D = C = 0
    ([(1, 0, 0), (0, 1, 0), (1, 1, 1)], "trivial_only", None, None),
    # rank 1: a two-dimensional null space, so no unique ratio
    ([(1, 2, 3), (2, 4, 6)], "inconsistent", None, None),
    # rank 2, null space (0, 1, 1): beta must vanish
    ([(1, 0, 0), (0, 1, -1)], "inconsistent", None, None),
    # rank 2, null space (4, 2, -1): D = beta^2 / 2, C = -beta^2 / 4
    ([(1, 0, 4), (0, 1, 2), (1, 1, 6)], "unique", Fraction(1, 2), Fraction(-1, 4)),
    # rank 2, null space (-6, -3, 1)
    ([(Fraction(1, 2), -1, 0), (0, 1, 3)], "unique", Fraction(1, 2), Fraction(-1, 6)),
])
def test_solve_rows_outcomes(rows, status, d, c):
    got, solution, basis = celestial._solve_rows(set(rows), 3)
    assert got == status
    assert solution == (None if d is None else (d, c))
    assert len(basis) == _rank(rows, 3)


@pytest.mark.parametrize("rows,k,status,solution", [
    # one unknown beside beta^2: D = -beta^2 / 2
    ([(1, 2)], 2, "unique", (Fraction(-1, 2),)),
    # beta^2 free, D = 0
    ([(0, 1)], 2, "unique", (Fraction(0),)),
    # the null space (0, 1): beta must vanish
    ([(1, 0)], 2, "inconsistent", None),
    ([(1, 2), (3, 4)], 2, "trivial_only", None),
    # no rows: a two-dimensional null space
    ([], 2, "inconsistent", None),
    # null space (2, -3, -1, 1)
    ([(1, 0, 0, -2), (0, 1, 0, 3), (0, 0, 1, 1)], 4, "unique",
     (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2))),
    # the same without its last row: a two-dimensional null space
    ([(1, 0, 0, -2), (0, 1, 0, 3)], 4, "inconsistent", None),
    ([(1, 0, 0, -2), (0, 1, 0, 3), (0, 0, 1, 1), (0, 0, 0, 5)], 4, "trivial_only", None),
])
def test_solve_rows_over_k_unknowns(rows, k, status, solution):
    assert celestial._solve_rows(set(rows), k)[:2] == (status, solution)


@given(st.integers(2, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.tuples(*[st.integers(-3, 3)] * k), max_size=5))))
def test_solve_rows_reads_the_null_space(case):
    k, rows = case
    status, solution, basis = celestial._solve_rows(set(rows), k)
    rank = _rank(rows, k)
    # the basis is a basis of the row space
    assert len(basis) == rank == _rank(basis + rows, k)
    beta_in_span = _rank(rows + [(1,) + (0,) * (k - 1)], k) == rank
    if status == "unique":
        # a one-dimensional null space, spanned by (1, *solution)
        assert rank == k - 1
        v = (1, *solution)
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)
    elif status == "trivial_only":
        assert rank == k
    else:
        assert status == "inconsistent"
        assert solution is None
        # a larger null space, or a line on which beta^2 vanishes
        assert rank < k - 1 or (rank == k - 1 and beta_in_span)


@pytest.mark.parametrize("series,rank,distinct", [("A", 1, 2), ("A", 2, 4), ("G", 2, 16)])
def test_jji_rows_are_inconsistent(series, rank, distinct):
    # the current model: the (J_-theta[1,0], J_theta[0,1], I_k[0,0]) triples
    # force C = 0 and so contradict the J-J-J solution.  This records the
    # deformed table as it stands; it does not close J-J-I.
    L = simple_lie_algebra(series, rank)
    rules = rules_deformed(L)
    low, high = celestial._theta_labels(L)
    rows = {row for k in range(L.dim) for row in celestial._defect_rows(
        rules, (J(low, 1, 0), J(high, 0, 1), I(k, 0, 0)), _columns(rules))}
    assert len(rows) == distinct
    status, solution, basis = celestial._solve_rows(rows, 3)
    assert (status, solution) == ("inconsistent", None)
    assert basis == [[0, 0, 1]]


def test_seeded_triple_draws_are_stable():
    # the solver's span check and the grid's spot samples decode one seeded
    # draw over the n^3 grid: a seed keeps drawing the same ordered triples
    assert celestial._seeded_triples("0:solve:A2", 8, 64)[:6] == [
        (3, 7, 5), (5, 2, 3), (6, 5, 4), (5, 0, 2), (4, 5, 1), (5, 1, 3)]
    draws = celestial._seeded_triples("any", 3, 64)
    assert sorted(draws) == [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]


def test_substituted_solution_kills_all_defects(sl2):
    sol = solve_constants(sl2)
    d_scalar = s_monomial((2, 0, 0), sol.d_over_beta2)
    c_scalar = s_monomial((2, 0, 0), sol.c_over_beta2)
    rd = rules_deformed(sl2, d_const=d_scalar, c_const=c_scalar)
    n = sl2.dim
    for la in range(n):
        for lb in range(n):
            for lc in range(n):
                d = defect_poly(rd, J(la, 1, 0), J(lb, 0, 1), J(lc, 0, 0))
                assert not d, format_lambda_poly(d)


def test_defect_poly_leaves_the_shared_memos_as_it_found_them(sl2):
    # atomic_bracket and resolve hand callers the memo dicts' own values; a
    # second pass over the solver's representatives must find every value
    # the first pass memoized unchanged
    rd = rules_deformed(sl2)
    reps = list(celestial._representatives(sl2, (J(0, 1, 0), J(0, 0, 1), J(0, 0, 0)),
                                           celestial._centralizer_generators(sl2)))
    for triple in reps:
        defect_poly(rd, *triple)
    base, full = copy.deepcopy(rd.base_memo), copy.deepcopy(rd.full_memo)
    assert base and full
    for triple in reps:
        defect_poly(rd, *triple)
    assert {key: rd.base_memo[key] for key in base} == base
    assert {key: rd.full_memo[key] for key in full} == full


def test_generic_constants_leave_defects(sl2):
    rd = rules_deformed(sl2, d_const=s_rational(1), c_const=s_rational(1))
    found = any(
        defect_poly(rd, J(la, 1, 0), J(lb, 0, 1), J(lc, 0, 0))
        for la in range(3) for lb in range(3) for lc in range(3))
    assert found


# --- closed forms -----------------------------------------------------------------------

def test_closed_form_constants_a1(sl2):
    d, c = closed_form_constants(sl2)
    assert d == s_monomial((2, 0, 0), Fraction(-1, 8))
    assert c == s_monomial((2, 0, 0), Fraction(3, 16))


def test_deformed_table_leaves_a_jji_defect(sl2):
    # J-I falls back to the current bracket away from the two +-C patterns,
    # so with the solver's own constants a J-J-I triple keeps a defect: the
    # current model, not a pass
    d_const, c_const = closed_form_constants(sl2)
    rd = rules_deformed(sl2, d_const=d_const, c_const=c_const)
    d = defect_poly(rd, I(0, 0, 0), J(0, 0, 1), J(1, 1, 0))
    # -3/2 beta^2 I_0[0,0] I_1[0,0]
    assert d == {(0, 0): {(I(0, 0, 0), I(1, 0, 0)): {(2, 0, 0): Fraction(-3, 2)}}}


def test_closed_form_rejects_non_admissible():
    with pytest.raises(DomainError):
        closed_form_constants(simple_lie_algebra("A", 3))


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("D", 4),
                                         ("G", 2), ("F", 4), ("E", 6)])
def test_closed_form_consistent_with_alpha_form(series, rank):
    # -1/(8 h alpha) == -(2+dim)/(20 h) and 3/(8 h^2 alpha) == 3(2+dim)/(20 h^2)
    from celalg.adinv import expected_alpha
    L = simple_lie_algebra(series, rank)
    alpha = expected_alpha(L.dim)
    h = L.h_dual_coxeter
    d, c = closed_form_fractions(L)
    assert Fraction(-1, 1) / (8 * h * alpha) == d
    assert Fraction(3, 1) / (8 * h * h * alpha) == c


# --- guards and fault injection ----------------------------------------------------------

def test_model_error_on_foreign_monomial(sl2, monkeypatch):
    orig = celestial._quadratic_words

    def polluted(rs, kind_left, la, lb, coeff):
        return orig(rs, kind_left, la, lb, s_mul_beta(coeff))

    def s_mul_beta(sc):
        from celalg.scalar import s_mul, s_monomial as mono
        return s_mul(sc, mono(BETA))

    monkeypatch.setattr(celestial, "_quadratic_words", polluted)
    # the message names the span in letters and the triple by its generators
    with pytest.raises(ModelError, match=r"\(1, 0, 1\) outside span\(beta\^2, D, C\) "
                       r"on triple \(J_\d+\[1,0\], J_\d+\[0,1\], J_\d+\[0,0\]\)$"):
        solve_constants(sl2)


def test_tampered_jf_rule_fails_with_jjf_triple(sl2, monkeypatch):
    orig = celestial.jf_rule_poly

    def tampered(rs, a, b):
        val = orig(rs, a, b)
        out = {}
        for key, ws in val.items():
            if key == (0, 0):  # flip only the derivative-term coefficient
                out[key] = {w: s_scale(sc, -1) for w, sc in ws.items()}
            else:
                out[key] = ws
        return out

    monkeypatch.setattr(celestial, "jf_rule_poly", tampered)
    rep = verify_jacobi_grid(sl2, 1)
    assert not rep.passed
    # a real nonzero defect found by the scan, not a broken shortcut
    assert "shortcut" not in rep.first_counterexample
    names = rep.first_counterexample["triple"]
    kinds = [next(ch for ch in n if ch in "JIEF") for n in names]
    assert sorted(kinds) == ["F", "J", "J"], names


def _fake_mirror_defect(a, b, c):
    # nonzero only on J-J-J triples with pattern(a) > pattern(b): triples the
    # swap identity carries onto pattern-ordered ones
    patterns = [celestial._pattern(g) for g in (a, b, c)]
    jjj = all(g.kind == KIND_J for g in (a, b, c))
    return {(0, 0): {(c,): s_rational(1)}} if jjj and patterns[0] > patterns[1] else {}


def _fake_transposed_defect(a, b, c):
    # nonzero only on J-J-J triples with pattern(b) > pattern(c): triples the
    # b <-> c identity carries onto pattern-ordered ones
    patterns = [celestial._pattern(g) for g in (a, b, c)]
    jjj = all(g.kind == KIND_J for g in (a, b, c))
    return {(0, 0): {(a,): s_rational(1)}} if jjj and patterns[1] > patterns[2] else {}


@pytest.mark.parametrize("fake,identity", [
    (_fake_mirror_defect, "swap identity"),
    (_fake_transposed_defect, "b<->c identity"),
])
def test_spot_check_catches_a_broken_shortcut(sl2, monkeypatch, fake, identity):
    # a fake defect out of pattern order only, breaking one S3 identity: the
    # scan computes pattern-ordered representatives and never meets it, and
    # the pattern-ordered permutation of a failing sample vanishes, so the
    # ordered spot check names the S3 identities
    orig = celestial.defect_poly

    def faulty(rules, a, b, c):
        d = orig(rules, a, b, c)
        for key, ws in fake(a, b, c).items():
            lp_iadd(d, key, ws)
        return d

    monkeypatch.setattr(celestial, "defect_poly", faulty)
    rep = verify_jacobi_grid(sl2, 1)
    assert not rep.passed
    assert rep.first_counterexample["shortcut"] == "sorted patterns"
    assert rep.first_counterexample["inferred"] == "0"
    assert len(rep.first_counterexample["triple"]) == 3


def test_construction_guard_rejects_weight_raising_rule(sl2, monkeypatch):
    def heavier(rs, a, b):
        # J_a against E answered by a letter of higher total weight
        return {(0, 0): {(I(a.label, 5, 5),): s_rational(1)}}

    monkeypatch.setattr(celestial, "je_rule_poly", heavier)
    with pytest.raises(RuleIntegrityError, match="does not decrease total weight"):
        rules_extended(sl2)


def test_construction_guard_rejects_skew_inconsistent_zero_sector(sl2, monkeypatch):
    orig = celestial._zero_rule

    def one_sided(rs, a, b):
        # [E[1,0] F[0,0]] = F[0,0] keeps the weight bound, but the reverse
        # stays zero, which is not its skew image
        if a == E(1, 0) and b == F(0, 0):
            return {(0, 0): {(F(0, 0),): s_rational(1)}}
        return orig(rs, a, b)

    monkeypatch.setattr(celestial, "_zero_rule", one_sided)
    for build in (rules_extended, rules_deformed):
        with pytest.raises(RuleIntegrityError, match="skew inconsistency"):
            build(sl2)


def _leaky_je(min_label):
    """J-E plus J_a[0,0] on the labels a >= min_label: a J letter out of the
    abelian ideal, of lower weight than the pair."""
    orig = celestial.je_rule_poly

    def leaky(rs, a, b):
        val = orig(rs, a, b)
        if a.label >= min_label:
            lp_iadd(val, (0, 0), {(J(a.label, 0, 0),): s_rational(1)})
        return val
    return leaky


def test_construction_guard_rejects_a_j_letter_from_je(sl2, monkeypatch):
    monkeypatch.setattr(celestial, "je_rule_poly", _leaky_je(0))
    for build in (rules_extended, rules_deformed):
        with pytest.raises(RuleIntegrityError, match=r"abelian ideal span\(I, E, F\)"):
            build(sl2)


def test_abelian_ideal_spot_check_catches_a_leak_past_the_probe(sl3, monkeypatch):
    # the probe grid holds the labels 0, 1 and 2 only, so a J letter from
    # J_a-E with a >= 3 builds; the lemma's patterns are uncomputed, and
    # only their spot samples can see the fault
    monkeypatch.setattr(celestial, "je_rule_poly", _leaky_je(3))
    rules_extended(sl3)
    rep = verify_jacobi_grid(sl3, 1)
    assert not rep.passed
    assert rep.first_counterexample["shortcut"] == "abelian ideal"
    assert rep.first_counterexample["inferred"] == "0"


def test_rule_integrity_negative_bidegree_guard(sl2):
    rx = rules_extended(sl2)
    # direct builder call with an artificial negative-output request:
    # J[0,1] against E[1,0] has numerator e2*j1 - e1*j2 = -1, output [0,0]
    got = celestial.je_rule_poly(rx, J(0, 0, 1), E(1, 0))
    assert got  # legal: bidegree stays nonnegative exactly when coeff nonzero


def test_grid_generators_exclude_e00(sl2):
    gens = grid_generators(sl2, 1)
    assert all(not (g.kind == 2 and g.bidegree == (0, 0)) for g in gens)
    kinds = {g.kind for g in gens}
    assert kinds == {0, 1, 2, 3}


@pytest.mark.parametrize("run", ["solve G2", "grid A1"])
def test_memo_scalars_hold_integral_values_as_ints(monkeypatch, run):
    # no float and no integral Fraction among the scalars a real run memoizes
    made = []
    for name in ("rules_deformed", "rules_extended"):
        def recording(*args, _build=getattr(celestial, name), **kwargs):
            made.append(_build(*args, **kwargs))
            return made[-1]
        monkeypatch.setattr(celestial, name, recording)
    if run == "solve G2":
        celestial.solve_constants(simple_lie_algebra("G", 2))
    else:
        celestial.verify_jacobi_grid(simple_lie_algebra("A", 1), 1)
    coeffs = [c for rs in made for memo in (rs.base_memo, rs.full_memo)
              for val in memo.values() for ws in val.values()
              for sc in ws.values() for c in sc.values()]
    assert coeffs and any(isinstance(c, Fraction) for c in coeffs)
    assert not [c for c in coeffs if isinstance(c, float)
                or (isinstance(c, Fraction) and c.denominator == 1)]
