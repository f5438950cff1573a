"""Larger-algebra runs, gated behind CELALG_EXTENDED=1.

Covers the bigger exceptional types: trace-identity batches on F4 and E6,
the full constant solve of F4, E6, E7 and E8, the E7/E8 quartic alpha
values, and the D4 solve and G2 verify through the CLI; and the defining
representation of every classical type up to rank 8 (D to rank 9).
"""

import os
import random
from fractions import Fraction

import pytest

from celalg.adinv import (DefiningRep, check_classical_table, expected_alpha,
                          quartic_alpha, random_element, trace_identity_suite)
from celalg.celestial import closed_form_fractions, solve_constants
from celalg.liealg import simple_lie_algebra

extended = pytest.mark.skipif(
    not os.environ.get("CELALG_EXTENDED"),
    reason="set CELALG_EXTENDED=1 to run the large-algebra suite")


@extended
@pytest.mark.parametrize("series,rank", [("F", 4), ("E", 6)])
def test_trace_identity_suite_large_exceptional(series, rank):
    L = simple_lie_algebra(series, rank)
    reports = trace_identity_suite(L, samples=25, master_seed=11)
    assert all(r.passed for r in reports), [r.check for r in reports if not r.passed]


@extended
@pytest.mark.parametrize("series,rank,alpha", [
    ("E", 7, Fraction(1, 54)),
    ("E", 8, Fraction(1, 100)),
])
def test_quartic_alpha_e_series(series, rank, alpha):
    L = simple_lie_algebra(series, rank)
    assert quartic_alpha(L, master_seed=11) == alpha == expected_alpha(L.dim)


@extended
@pytest.mark.parametrize("series,rank", [("F", 4), ("E", 6), ("E", 7), ("E", 8)])
def test_full_solve_large_exceptional(series, rank):
    # one reduced triple per label that generates g over the
    # theta-centralizer (5 on F4 and E7, 6 on E6 and E8), plus 64 spot
    # checks, decide all dim^3 triples
    L = simple_lie_algebra(series, rank)
    sol = solve_constants(L, master_seed=11)
    assert sol.triples == L.dim ** 3
    assert sol.computed == {"F4": 5, "E6": 6, "E7": 5, "E8": 6}[L.name]
    assert sol.spot_checked == 64
    assert sol.status == "unique"
    assert (sol.d_over_beta2, sol.c_over_beta2) == closed_form_fractions(L)


@extended
def test_cli_solve_d4_agreement(capsys):
    from celalg.cli import main
    assert main(["solve", "D4", "--json"]) == 0
    import json
    doc = json.loads(capsys.readouterr().out)
    res = doc["results"][0]
    assert res["agreement"] and res["solution"]["status"] == "unique"
    assert res["solution"]["D_over_beta2"] == "-1/4"
    assert res["solution"]["C_over_beta2"] == "1/8"


@extended
def test_cli_verify_g2(capsys):
    from celalg.cli import main
    assert main(["verify", "G2", "--grid", "1", "--samples", "100",
                 "--seed", "7", "--json"]) == 0
    import json
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True


@extended
@pytest.mark.parametrize("series,rank", [(s, r) for s, low, high in (
    ("A", 1, 8), ("B", 2, 8), ("C", 3, 8), ("D", 4, 9)) for r in range(low, high + 1)])
def test_defining_rep_sweep_to_rank_8(series, rank):
    # the construction runs _verify, the exact homomorphism check; then one
    # seeded classical row
    L = simple_lie_algebra(series, rank)
    rep = DefiningRep(L)
    rng = random.Random(f"test-extended:sweep-{L.name}")
    assert check_classical_table(L, random_element(L, rng), rep).passed
