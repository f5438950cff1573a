"""Adjoint trace invariant tests.

Expected values below were computed with independent oracles: hand-built
3x3 ad matrices for sl2 (documented inline), the closed form
5 / (2 (2 + dim)) for alpha, and explicit 2x2 defining matrices.
"""

import copy
import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

from celalg import adinv
from celalg.adinv import (
    DefiningRep,
    check_classical_table,
    check_commutator_identity,
    check_contract_identity,
    check_dihedral,
    check_polarized,
    classify,
    expected_alpha,
    footnote_witness_trace,
    quartic_alpha,
    quartic_trace,
    random_element,
    trace_identity_suite,
)
from celalg.liealg import (
    ConstructionError,
    LieAlgebra,
    UsageError,
    build_root_system,
    simple_lie_algebra,
)


def _rng(tag):
    return random.Random(f"test-adinv:{tag}")


def test_quartic_trace_sl2_h():
    # oracle: ad_h = diag(0, 2, -2) in basis (h, e, f), so Tr(ad_h^4) = 16+16
    L = simple_lie_algebra("A", 1)
    h = L.basis_element(0)
    assert quartic_trace(L, h, h, h, h) == 32


def test_quartic_trace_nilpotent_and_zero():
    L = simple_lie_algebra("A", 1)
    e = L.basis_element(1)
    assert quartic_trace(L, e, e, e, e) == 0  # ad_e is nilpotent of order 3
    z = L.zero()
    h = L.basis_element(0)
    assert quartic_trace(L, z, h, h, h) == 0  # multilinearity


def test_quartic_trace_multilinearity():
    L = simple_lie_algebra("A", 2)
    rng = _rng("multilinear")
    for _ in range(10):
        a, b, c, d, a2 = (random_element(L, rng) for _ in range(5))
        s = tuple(x + y for x, y in zip(a, a2))
        lhs = quartic_trace(L, s, b, c, d)
        rhs = quartic_trace(L, a, b, c, d) + quartic_trace(L, a2, b, c, d)
        assert lhs == rhs


def test_quartic_trace_basis_dihedral_invariance():
    L = simple_lie_algebra("A", 2)
    rng = _rng("cache")

    def basis_trace(*idx):
        return quartic_trace(L, *(L.basis_element(i) for i in idx))

    for _ in range(10):
        i, j, k, l = (rng.randrange(L.dim) for _ in range(4))
        v = basis_trace(i, j, k, l)
        assert v == basis_trace(j, k, l, i)    # rotation
        assert v == basis_trace(i, l, k, j)    # reversal
        assert v == basis_trace(j, i, l, k)    # (12)(34)


def test_contract_identity_sl2_hhh():
    # oracle computed by hand: both sides equal -16 h
    L = simple_lie_algebra("A", 1)
    h = L.basis_element(0)
    rep = check_contract_identity(L, h, h, h)
    assert rep.passed
    n = L.dim
    lhs = [0] * n
    for i in range(n):
        t = L.bracket(h, L.bracket(h, L.basis_element(i)))
        u = L.bracket(h, L.dual_element(i))
        for k, v in enumerate(L.bracket(t, u)):
            lhs[k] += v
    assert tuple(lhs) == (-16, 0, 0)


def test_contract_identity_zero_argument():
    L = simple_lie_algebra("A", 2)
    z = L.zero()
    h = L.basis_element(0)
    assert check_contract_identity(L, z, h, h).passed


@pytest.mark.parametrize("series,rank,n", [("G", 2, 100), ("A", 2, 50)])
def test_contract_identity_random(series, rank, n):
    L = simple_lie_algebra(series, rank)
    rng = _rng(f"contract-{series}{rank}")
    for _ in range(n):
        a, b, c = (random_element(L, rng) for _ in range(3))
        assert check_contract_identity(L, a, b, c).passed


def test_dihedral_random_sl3():
    L = simple_lie_algebra("A", 2)
    rng = _rng("dihedral")
    for _ in range(30):
        tup = [random_element(L, rng) for _ in range(4)]
        assert check_dihedral(L, *tup).passed


def test_commutator_identity_equal_arguments_trivial():
    L = simple_lie_algebra("A", 1)
    h = L.basis_element(0)
    assert check_commutator_identity(L, h, h, h, h).passed


@pytest.mark.parametrize("series,rank,n", [("A", 1, 50), ("B", 2, 25), ("F", 4, 3)])
def test_commutator_identity_random(series, rank, n):
    L = simple_lie_algebra(series, rank)
    rng = _rng(f"comm-{series}{rank}")
    for _ in range(n):
        tup = [random_element(L, rng) for _ in range(4)]
        assert check_commutator_identity(L, *tup).passed


@pytest.mark.parametrize("series,rank,alpha", [
    ("A", 1, Fraction(1, 2)),
    ("A", 2, Fraction(1, 4)),
    ("D", 4, Fraction(1, 12)),
    ("G", 2, Fraction(5, 32)),
])
def test_quartic_alpha_admissible(series, rank, alpha):
    L = simple_lie_algebra(series, rank)
    got = quartic_alpha(L, master_seed=7)
    assert got == alpha == expected_alpha(L.dim)


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 2), ("C", 3)])
def test_quartic_alpha_absent(series, rank):
    L = simple_lie_algebra(series, rank)
    assert quartic_alpha(L, master_seed=7) is None


# the 32 types of rank <= 8 (D to rank 9), decided from root data alone
_ROOT_DATA_TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
                    + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 10)]
                    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)])


def test_root_data_admits_exactly_the_admissible_types():
    admitted = {}
    for series, rank in _ROOT_DATA_TYPES:
        rs = build_root_system(series, rank)
        alpha = adinv.weight_alpha(adinv.root_weights(rs))
        if alpha is not None:
            admitted[f"{series}{rank}"] = alpha
            assert alpha == expected_alpha(rank + 2 * len(rs.positive_roots))
    assert len(_ROOT_DATA_TYPES) == 32
    assert sorted(admitted) == ["A1", "A2", "D4", "E6", "E7", "E8", "F4", "G2"]


def _with_h1_bracket(L, b, comp):
    """L with [h_1, e_b] = comp, every other constant as built."""
    return dataclasses.replace(L, f={**L.f, (0, b): comp})


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2), ("A", 3)])
def test_quartic_alpha_refuses_a_broken_cartan(series, rank):
    L = simple_lie_algebra(series, rank)
    b = min(j for i, j in L.f if i == 0)
    ((k, c),) = L.f[0, b].items()
    assert b == k >= L.rank  # a root vector on the diagonal
    # one Cartan weight changed: the diagonal no longer matches the root data
    with pytest.raises(ConstructionError, match="differ from the root data"):
        quartic_alpha(_with_h1_bracket(L, b, {b: c + 1}))
    # one entry of ad_{h_1} moved off the diagonal
    with pytest.raises(ConstructionError, match="off the diagonal"):
        quartic_alpha(_with_h1_bracket(L, b, {k + 1: c}))


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2)])
def test_quartic_alpha_spot_tuple_refuses_a_flipped_constant(series, rank):
    # the Cartan entries are intact, so only the tuple away from h sees it
    L = _flipped(series, rank)
    assert adinv.cartan_alpha(L) == expected_alpha(L.dim)
    with pytest.raises(ConstructionError, match="fails on the spot tuple"):
        quartic_alpha(L)


@pytest.mark.parametrize("series,rank,n_products", [("A", 2, 6), ("G", 2, 6),
                                                    ("A", 3, 0)])
def test_quartic_alpha_cost(monkeypatch, series, rank, n_products):
    # the Cartan route forms no matrix product; the spot tuple forms the six
    # of one polarized check, and only where alpha exists
    L = simple_lie_algebra(series, rank)
    product, formed = adinv._product, []
    monkeypatch.setattr(adinv, "_product",
                        lambda *args: formed.append(args) or product(*args))
    quartic_alpha(L, master_seed=3)
    assert len(formed) == n_products


@pytest.mark.parametrize("series,rank,witness", [
    ("A", 3, {"elements": [[1, 0, 0], [1, 0, 1]], "ratios": ["5/32", "1/8"]}),
    ("B", 2, {"elements": [[1, 0], [0, 1]], "ratios": ["1/4", "1/6"]}),
    ("C", 3, {"elements": [[1, 0, 0], [0, 0, 1]], "ratios": ["13/128", "5/32"]}),
    ("B", 3, {"elements": [[1, 0, 0], [0, 0, 1]], "ratios": ["11/100", "1/10"]}),
    ("B", 4, {"elements": [[1, 0, 0, 0], [0, 0, 0, 1]], "ratios": ["13/196", "1/14"]}),
    ("C", 4, {"elements": [[1, 0, 0, 0], [0, 0, 0, 1]], "ratios": ["7/100", "11/100"]}),
    ("D", 5, {"elements": [[1, 0, 0, 0, 0], [0, 0, 0, 1, 1]], "ratios": ["7/128", "1/16"]}),
])
def test_polarized_report_names_a_cartan_witness(series, rank, witness):
    L = simple_lie_algebra(series, rank)
    polarized = trace_identity_suite(L, samples=2, master_seed=5)[3]
    assert polarized.passed and polarized.first_counterexample is None
    assert polarized.details == {"alpha": None, "witness": witness}
    # the ratios, recomputed as Tr(ad_h^4) / Tr(ad_h^2)^2 by the definition
    for x, ratio in zip(witness["elements"], witness["ratios"]):
        h = tuple(x) + (0,) * (L.dim - L.rank)
        m = L.ad_matrix(h)
        assert Fraction(quartic_trace(L, h, h, h, h), adinv.trace_mul(m, m) ** 2) \
            == Fraction(ratio)


def test_polarized_collapse_equal_arguments():
    # a=b=c=d reduces to 3 Tr(ad_a^4) = 3 alpha (Tr ad_a^2)^2
    L = simple_lie_algebra("A", 1)
    h = L.basis_element(0)
    assert check_polarized(L, h, h, h, h, Fraction(1, 2)).passed


def test_polarized_random_g2():
    L = simple_lie_algebra("G", 2)
    rng = _rng("polarized-g2")
    for _ in range(25):
        tup = [random_element(L, rng) for _ in range(4)]
        assert check_polarized(L, *tup, Fraction(5, 32)).passed


def test_polarized_counterexample_a3():
    # no candidate alpha makes the polarized identity hold on A3: the two
    # witness elements have different ratios, so (h, h, h, h) fails at one
    L = simple_lie_algebra("A", 3)
    rng = _rng("a3-candidates")
    candidates = set()
    while len(candidates) < 3:
        a = random_element(L, rng)
        m = L.ad_matrix(a)
        t2 = adinv.trace_mul(m, m)
        if t2:
            m2 = adinv.mat_mul(m, m)
            candidates.add(Fraction(adinv.trace_mul(m2, m2), t2 * t2))
    witness = [tuple(x) + (0,) * (L.dim - L.rank)
               for x in adinv._cartan_witness(L)["elements"]]
    for alpha in candidates:
        assert not all(check_polarized(L, h, h, h, h, alpha).passed for h in witness)


def test_classify_default_list():
    rows = {name: (dim, alpha) for name, dim, alpha in classify(max_rank=4)}
    assert set(rows) == {"A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                         "D4", "D5", "G2", "F4", "E6", "E7", "E8"}
    admissible = {"A1": Fraction(1, 2), "A2": Fraction(1, 4),
                  "D4": Fraction(1, 12), "G2": Fraction(5, 32),
                  "F4": Fraction(5, 108), "E6": Fraction(1, 32),
                  "E7": Fraction(1, 54), "E8": Fraction(1, 100)}
    for name, (dim, alpha) in rows.items():
        rs = build_root_system(name[0], int(name[1:]))
        assert dim == rs.rank + 2 * len(rs.positive_roots)
        assert alpha == admissible.get(name)


def test_classical_table_a1_diagonal():
    # a = h = diag(1,-1): 32 = 2*2*Tr(h^4) + 6*(Tr h^2)^2 = 8 + 24
    L = simple_lie_algebra("A", 1)
    h = L.basis_element(0)
    rep = DefiningRep(L)
    assert rep.matrix(h) == [[1, 0], [0, -1]]
    assert check_classical_table(L, h, rep).passed


@pytest.mark.parametrize("series,rank", [("A", 2), ("A", 3), ("B", 2),
                                         ("C", 3), ("D", 4), ("D", 5)])
def test_classical_table_random(series, rank):
    L = simple_lie_algebra(series, rank)
    rep = DefiningRep(L)
    rng = _rng(f"table-{series}{rank}")
    for _ in range(10):
        assert check_classical_table(L, random_element(L, rng), rep).passed


# every classical type of rank <= 4; test_extended_suite sweeps to rank 8
CLASSICAL_TO_RANK_4 = ([("A", r) for r in range(1, 5)] + [("B", r) for r in range(2, 5)]
                       + [("C", 3), ("C", 4), ("D", 4), ("D", 5)])


@pytest.mark.parametrize("series,rank", CLASSICAL_TO_RANK_4)
def test_defining_rep_sweep(series, rank):
    # the construction runs _verify, the exact homomorphism check; then one
    # seeded classical row
    L = simple_lie_algebra(series, rank)
    rep = DefiningRep(L)
    assert check_classical_table(L, random_element(L, _rng(f"sweep-{L.name}")), rep).passed


# sha256 of the defining-representation matrices, one line per matrix row
# with its entries as str, first 16 hex digits
DEFINING_REP_SHA256 = {
    "A1": "046da51262741171", "A3": "49306e73a7714bd0", "B2": "f8081de5e2b130b5",
    "B3": "8ec786a9f661a2fd", "C3": "6d2ab9d9839a181e", "D4": "cdbef801a2caf88e",
}


@pytest.mark.parametrize("name", sorted(DEFINING_REP_SHA256))
def test_defining_rep_matrices_are_pinned(name):
    rep = DefiningRep(simple_lie_algebra(name[0], int(name[1:])))
    text = "\n".join(" ".join(map(str, row)) for m in rep.matrices for row in m)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DEFINING_REP_SHA256[name]


def test_defining_rep_check_catches_a_scaled_non_simple_root():
    # _verify brackets only the simple generators against the basis; a
    # non-simple root matrix scaled by 2 must still fail it
    L = simple_lie_algebra("A", 3)
    bad = copy.copy(DefiningRep(L))
    top = L.pos_root_index(len(L.root_system.positive_roots) - 1)
    bad.matrices = list(bad.matrices)
    bad.matrices[top] = [[2 * v for v in row] for row in bad.matrices[top]]
    with pytest.raises(ConstructionError, match="not a homomorphism"):
        bad._verify()


def test_classical_table_d4_quartic_coefficient_cancels():
    assert adinv.CLASSICAL_TABLE["D"](4) == (0, 3)


def test_classical_table_rejects_exceptional():
    # a classical row reads a through a DefiningRep, which exceptional types
    # do not have
    with pytest.raises(UsageError, match="exceptional type G2"):
        DefiningRep(simple_lie_algebra("G", 2))


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("A", 3),
                                         ("B", 2), ("G", 2), ("D", 4)])
def test_footnote_witness_nonzero(series, rank):
    L = simple_lie_algebra(series, rank)
    assert footnote_witness_trace(L) != 0


def test_footnote_witness_sl2_value():
    # hand computation: ad_h ad_e ad_f has trace 4 in basis (h, e, f)
    assert footnote_witness_trace(simple_lie_algebra("A", 1)) == 4


# --- the identity checks can fail --------------------------------------------
#
# One root-root structure constant flipped in both orders: the bracket stays
# antisymmetric, but the Jacobi identity fails, so the build would refuse
# it; the algebra is assembled past it.

def _flipped(series, rank):
    L = simple_lie_algebra(series, rank)
    i, j = next(k for k in sorted(L.f) if min(k) >= L.rank and k[0] < k[1])
    f = dict(L.f)
    for key in ((i, j), (j, i)):
        f[key] = {k: -v for k, v in f[key].items()}
    return dataclasses.replace(L, f=f)


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2)])
def test_identity_checks_fail_on_a_flipped_constant(series, rank):
    L = _flipped(series, rank)
    alpha = expected_alpha(L.dim)
    rng = _rng(f"flipped-{series}{rank}")
    for _ in range(20):
        a, b, c, d = (random_element(L, rng) for _ in range(4))
        assert not check_contract_identity(L, a, b, c).passed
        assert not check_dihedral(L, a, b, c, d).passed
        assert not check_commutator_identity(L, a, b, c, d).passed
        assert not check_polarized(L, a, b, c, d, alpha).passed


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2)])
def test_suite_fails_on_a_flipped_constant(series, rank):
    reports = trace_identity_suite(_flipped(series, rank), samples=10, master_seed=20240)
    assert [r.check for r in reports] == ["contract_identity", "dihedral_symmetry",
                                          "commutator_trace_identity", "polarized_quartic"]
    # the polarized batch takes alpha from h, where the flip does not reach,
    # and its first tuple away from h sees the flip like the other three
    for r in reports:
        assert not r.passed and r.first_counterexample["sample_index"] == 0
    assert reports[3].details == {"alpha": str(expected_alpha(_flipped(series, rank).dim))}


def test_contract_sides_are_their_definitions_on_a_flipped_constant():
    # the reported sides, against the bracket route sum_i [[c,[b,e_i]],[a,e^i]]
    # and the trace route -sum_i Tr(ad_a ad_b ad_c ad_{e_i}) e^i
    L = _flipped("A", 2)
    rng = _rng("contract-sides")
    a, b, c = (random_element(L, rng) for _ in range(3))
    lhs, rhs = [0] * L.dim, [0] * L.dim
    for i in range(L.dim):
        e_i, dual = L.basis_element(i), L.dual_element(i)
        t = L.bracket(L.bracket(c, L.bracket(b, e_i)), L.bracket(a, dual))
        tr = quartic_trace(L, a, b, c, e_i)
        for k in range(L.dim):
            lhs[k] += t[k]
            rhs[k] -= tr * dual[k]
    assert lhs != rhs
    assert check_contract_identity(L, a, b, c).first_counterexample == {
        "lhs": [str(x) for x in lhs], "rhs": [str(x) for x in rhs]}


def test_identity_checks_read_only_the_ad_matrices(monkeypatch):
    # each ad matrix taken once and prepared for the kernel once, each
    # distinct product formed once, and no route through the bracket or the
    # basis and dual elements
    L = simple_lie_algebra("A", 2)
    ad_matrix, prepare, product = LieAlgebra.ad_matrix, adinv._prepare, adinv._product
    ads, prepared, formed = [], [], []

    def taken(self, x):
        ads.append(ad_matrix(self, x))
        return ads[-1]

    def counted_prepare(m):
        prepared.append(m)
        return prepare(m)

    def counted_product(*args):
        formed.append(args)
        return product(*args)

    def refused(*args):
        raise AssertionError("identity checks read only the ad matrices")

    monkeypatch.setattr(LieAlgebra, "ad_matrix", taken)
    monkeypatch.setattr(adinv, "_prepare", counted_prepare)
    monkeypatch.setattr(adinv, "_product", counted_product)
    for name in ("bracket", "basis_element", "dual_element"):
        monkeypatch.setattr(LieAlgebra, name, refused)
    rng = _rng("read-only-ad")
    tup = [random_element(L, rng) for _ in range(4)]
    for check, args, n_ads, n_products in [
            (check_contract_identity, tup[:3], 3, 6),
            (check_dihedral, tup, 4, 8),
            (check_commutator_identity, tup, 4, 10),
            (check_polarized, tup + [expected_alpha(L.dim)], 4, 6)]:
        for seen in (ads, prepared, formed):
            seen.clear()
        assert check(L, *args).passed
        assert len(ads) == n_ads, check.__name__
        assert [sum(m is ad for m in prepared) for ad in ads] == [1] * n_ads, check.__name__
        assert len(formed) == n_products, check.__name__


# --- the packed exact matrix kernel -------------------------------------------
#
# Oracle: the definition (ab)_ij = sum_k a_ik b_kj, summed entry by entry.

def _product_by_definition(a, b):
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for row in a]


_ENTRIES = {
    "mixed-sign ints": lambda rng: rng.randint(-10**6, 10**6) * rng.randint(0, 1),
    "near 2^62": lambda rng: rng.choice((-1, 1)) * ((1 << 62) + rng.randint(-3, 3)),
    "wide ints": lambda rng: rng.randint(-(1 << 200), 1 << 200),
    "fractions": lambda rng: Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
    "ints and fractions": lambda rng: rng.choice(
        (rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 7)))),
}


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (2, 4, 7), (6, 6, 6)])
def test_mat_mul_matches_definition(kind, shape):
    rng = _rng(f"mat_mul:{kind}:{shape}")
    p, q, r = shape
    entry = _ENTRIES[kind]
    for _ in range(5):
        a = [[entry(rng) for _ in range(q)] for _ in range(p)]
        b = [[entry(rng) for _ in range(r)] for _ in range(q)]
        a[rng.randrange(p)] = [0] * q  # a zero row on each side
        b[rng.randrange(q)] = [0] * r
        assert adinv.mat_mul(a, b) == _product_by_definition(a, b)
        # Tr(a a^T): a square product for any shape of a
        at = [list(col) for col in zip(*a)]
        assert adinv.trace_mul(a, at) == adinv.trace(adinv.mat_mul(a, at))
        assert adinv.trace_mul(a, at) == adinv.trace(_product_by_definition(a, at))


@pytest.mark.parametrize("power,offset", [(14, -1), (14, 0), (14, 1),
                                          (62, -1), (62, 0), (62, 1),
                                          (126, -1), (126, 0)])
@pytest.mark.parametrize("sign", [1, -1])
def test_mat_mul_slot_boundaries(power, offset, sign):
    # product entries of +-2x land just below, at and above +-2^15, +-2^63
    # and +-2^127, the edges of 16-bit and one- and two-word slots
    x = (1 << power) + offset
    a = [[1, 1], [sign, 0], [0, -sign]]
    b = [[sign * x, 1], [sign * x, -1]]
    assert adinv.mat_mul(a, b) == _product_by_definition(a, b)
    assert adinv.mat_mul(a, b)[0][0] == 2 * sign * x


@pytest.mark.parametrize("sign", [1, -1])
def test_mat_mul_width_from_the_row_norm_bound(monkeypatch, sign):
    # the largest row sum of |a| is 2 against rows(b) max|a| = 4, so the
    # bound 2 max|b| = 2^15 - 2 picks 16-bit slots where 4 max|b| would not,
    # and the product still reaches that bound
    x = (1 << 14) - 1
    a = [[1, 1, 0, 0], [0, sign, -sign, 0], [0, 0, 0, 1]]
    b = [[sign * x, 1], [sign * x, -1], [-sign * x, 0], [x, -x]]
    bounds = []
    slot_bits = adinv._slot_bits
    monkeypatch.setattr(adinv, "_slot_bits",
                        lambda bound: bounds.append(bound) or slot_bits(bound))
    assert adinv.mat_mul(a, b) == _product_by_definition(a, b)
    assert adinv.mat_mul(a, b)[:2] == [[2 * sign * x, 0], [2 * x, -sign]]
    assert bounds == [2 * x] * 2 and slot_bits(2 * x) == 16 < slot_bits(4 * x)


def test_mat_mul_zero_matrix_and_types():
    rng = _rng("mat_mul:zero")
    b = [[rng.randint(-(1 << 70), 1 << 70) for _ in range(3)] for _ in range(4)]
    assert adinv.mat_mul([[0] * 4] * 2, b) == [[0] * 3] * 2
    assert adinv.mat_mul([[1, 0], [0, 1]], [[0, 0], [0, 0]]) == [[0, 0], [0, 0]]
    # int operands give ints; a denominator gives exact Fractions
    assert all(type(v) is int for row in adinv.mat_mul(b, [[1]] * 3) for v in row)
    half = adinv.mat_mul([[Fraction(1, 2)]], [[3]])
    assert half == [[Fraction(3, 2)]] and type(half[0][0]) is Fraction
