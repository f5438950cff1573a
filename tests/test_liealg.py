"""Lie algebra construction tests.

Oracles used here are independent of the construction code: hand-coded sl2
matrices, the closed-form dimension / dual-Coxeter tables, and the comark
formula h = 1 + sum of comarks of the highest root.
"""

import hashlib
import random
import re
from fractions import Fraction

import pytest

from celalg.adinv import cartan_alpha, root_weights
from celalg.liealg import (
    CACHE_FORMAT,
    VALID_RANKS,
    ConfigurationError,
    UsageError,
    _format_structure_constants,
    _string_depth,
    algebra_from_cache,
    build_root_system,
    chevalley_basis,
    generator_positions,
    load_structure_constants,
    row_reduce,
    save_structure_constants,
    simple_lie_algebra,
    verify_cached_algebra,
)


# literal table: dim, dual Coxeter number, number of positive roots
CLOSED_FORM = {
    ("A", 1): (3, 2, 1),
    ("A", 2): (8, 3, 3),
    ("A", 3): (15, 4, 6),
    ("A", 4): (24, 5, 10),
    ("B", 2): (10, 3, 4),
    ("B", 3): (21, 5, 9),
    ("B", 4): (36, 7, 16),
    ("C", 3): (21, 4, 9),
    ("C", 4): (36, 5, 16),
    ("D", 4): (28, 6, 12),
    ("D", 5): (45, 8, 20),
    ("G", 2): (14, 4, 6),
    ("F", 4): (52, 9, 24),
    ("E", 6): (78, 12, 36),
    ("E", 7): (133, 18, 63),
    ("E", 8): (248, 30, 120),
}


def test_root_system_a1_smallest_case():
    rs = build_root_system("A", 1)
    assert len(rs.positive_roots) == 1
    assert rs.cartan_matrix == ((2,),)


def test_root_system_g2_count():
    # cross-check: dim = 2 * npos + rank = 14 for G2
    rs = build_root_system("G", 2)
    assert len(rs.positive_roots) == 6
    assert 2 * 6 + 2 == 14


def test_root_system_e8_count():
    rs = build_root_system("E", 8)
    assert len(rs.positive_roots) == 120  # dim 248 = 2*120 + 8


@pytest.mark.parametrize("series,rank", sorted(CLOSED_FORM))
def test_closed_form_tables(series, rank):
    dim, hdc, npos = CLOSED_FORM[(series, rank)]
    rs = build_root_system(series, rank)
    assert len(rs.positive_roots) == npos
    L = simple_lie_algebra(series, rank)
    assert L.dim == dim == rank + 2 * npos
    assert L.h_dual_coxeter == hdc


def test_dual_coxeter_accessor():
    assert simple_lie_algebra("G", 2).h_dual_coxeter == 4
    assert simple_lie_algebra("A", 1).h_dual_coxeter == 2


@pytest.mark.parametrize("series,rank", sorted(CLOSED_FORM))
def test_root_data_match_sympy(series, rank):
    # an independent construction of the same root data, test-only
    pytest.importorskip("sympy.liealgebras")
    from sympy.liealgebras.cartan_type import CartanType
    from sympy.liealgebras.root_system import RootSystem as SympyRootSystem
    name = f"{series}{rank}"
    rs = build_root_system(series, rank)
    roots = len(SympyRootSystem(name).all_roots())
    assert roots == 2 * len(rs.positive_roots) == 2 * CLOSED_FORM[(series, rank)][2]
    # both write a_ij = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j); Kac writes
    # the transpose, which differs on B, C, F4 and G2, so the convention is
    # pinned rather than allowed per type.  sympy cannot build A1's 1x1
    # matrix (IndexError), and test_root_system_a1_smallest_case pins it.
    if rank > 1:
        theirs = CartanType(name).cartan_matrix().tolist()
        assert [list(row) for row in rs.cartan_matrix] == theirs


# every type up to rank 8, E8 among them
ALL_TYPES_TO_RANK_8 = [(s, r) for s in "ABCDEFG" for r in range(1, 9)
                       if VALID_RANKS[s](r)]


@pytest.mark.parametrize("series,rank", ALL_TYPES_TO_RANK_8 + [("D", 9)])
def test_basis_layout_is_read_from_the_root_system(series, rank):
    # the Cartan slots, then the positive roots in order, then their
    # negatives in the same order
    rs = build_root_system(series, rank)
    npos = len(rs.positive_roots)
    want = {r: rank + k for k, r in enumerate(rs.positive_roots)}
    want.update({tuple(-c for c in r): rank + npos + k for k, r in enumerate(rs.positive_roots)})
    assert list(rs.position.items()) == list(want.items())
    assert rs.dim == rank + 2 * npos == len(rs.opposite)
    opposite = rs.opposite
    assert [opposite[opposite[i]] for i in range(rs.dim)] == list(range(rs.dim))
    assert [i for i in range(rs.dim) if opposite[i] == i] == list(range(rank))
    weights = root_weights(rs)
    assert all(weights[opposite[i]] == tuple(-w for w in weights[i]) for i in range(rs.dim))


@pytest.mark.parametrize("series,rank", ALL_TYPES_TO_RANK_8)
def test_norm_table_matches_inner_product(series, rank):
    rs = build_root_system(series, rank)
    for root in rs.positive_roots:
        neg = tuple(-c for c in root)
        assert rs.norm2(root) == rs.inner(root, root)
        assert rs.norm2(neg) == rs.inner(neg, neg)


@pytest.mark.parametrize("series,rank", sorted(CLOSED_FORM))
def test_dual_coxeter_equals_one_plus_comark_sum(series, rank):
    # independent oracle: theta^vee = sum c_i alpha_i^vee, h = 1 + sum c_i
    rs = build_root_system(series, rank)
    theta = rs.highest_root
    total = 0
    for i, k in enumerate(theta):
        c = k * rs.gram[i][i] / rs.norm2(theta)
        assert c.denominator == 1
        total += int(c)
    assert simple_lie_algebra(series, rank).h_dual_coxeter == 1 + total


@pytest.mark.parametrize("series,rank", sorted(CLOSED_FORM))
def test_cartan_matrix_entries(series, rank):
    rs = build_root_system(series, rank)
    for i in range(rank):
        assert rs.cartan_matrix[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan_matrix[i][j] in (0, -1, -2, -3)


@pytest.mark.parametrize("series,rank", sorted(CLOSED_FORM))
def test_positive_roots_nonnegative_combinations(series, rank):
    rs = build_root_system(series, rank)
    for root in rs.positive_roots:
        assert all(c >= 0 for c in root)
        assert sum(root) >= 1


@pytest.mark.parametrize("series,rank", sorted(CLOSED_FORM))
def test_root_brackets_obey_the_root_string_theorem(series, rank):
    # every ordered pair (r, s) of signed roots against the theorem, not the
    # height induction: [e_r, e_s] = N(r,s) e_{r+s} exactly when r + s is a
    # root, |N(r,s)| = p + 1 with p the depth of the r-string through s,
    # N(-r,-s) = -N(r,s), and N(r,s)/(t,t) = N(s,-t)/(r,r) for t = r + s
    L = simple_lie_algebra(series, rank)
    rs = L.root_system
    pos = rs.positive_roots
    index = {r: rank + k for k, r in enumerate(pos)}
    index.update({tuple(-c for c in r): rank + len(pos) + k for k, r in enumerate(pos)})
    for r, i in index.items():
        neg_r = tuple(-c for c in r)
        for s, j in index.items():
            t = tuple(x + y for x, y in zip(r, s))
            if t not in index:
                if any(t):
                    assert (i, j) not in L.f, (r, s)
                continue
            neg_t = tuple(-c for c in t)
            n = L.f[i, j][index[t]]
            assert list(L.f[i, j]) == [index[t]]
            assert abs(n) == _string_depth(index.__contains__, r, s) + 1, (r, s)
            assert L.f[index[neg_r], index[tuple(-c for c in s)]] == {index[neg_t]: -n}
            assert (Fraction(n) / rs.norm2(t)
                    == Fraction(L.f[j, index[neg_t]][index[neg_r]]) / rs.norm2(r)), (r, s)


# sha256 of the structure-constant cache text, first 16 hex digits: every
# constant of these types, byte for byte
STRUCTURE_CONSTANT_SHA256 = {
    "A1": "5c6effd079fae4e4", "A2": "3fd3af9fd251b5f5", "G2": "f64474b2c7567565",
    "B3": "483a1a1a8239cf8a", "C3": "452eee1eff742518", "D4": "6936558ff9c7f4b6",
    "F4": "df50ea698cea78aa", "E6": "92b17cefc4e67eee", "E7": "17c25c3ab9b3b57f",
    "E8": "fa946e96997bd936",
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_CONSTANT_SHA256))
def test_structure_constants_are_pinned(name):
    text = _format_structure_constants(simple_lie_algebra(name[0], int(name[1:])))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == STRUCTURE_CONSTANT_SHA256[name]


def test_invalid_series_rank_pairs():
    for series, rank in [("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9),
                         ("F", 3), ("G", 3), ("A", 0), ("X", 2)]:
        with pytest.raises(ConfigurationError):
            build_root_system(series, rank)


# --- sl2 oracle: 2x2 matrices e = E12, f = E21, h = diag(1, -1) -------------

def _sl2_matrix_bracket(x, y):
    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]
    ab, ba = mul(x, y), mul(y, x)
    return [[ab[i][j] - ba[i][j] for j in range(2)] for i in range(2)]


def test_sl2_chevalley_relations_match_matrix_oracle():
    L = simple_lie_algebra("A", 1)
    assert L.dim == 3
    h, e, f = L.basis_element(0), L.basis_element(1), L.basis_element(2)
    # engine brackets
    assert L.bracket(h, e) == L.element([0, 2, 0])    # [h,e] = 2e
    assert L.bracket(h, f) == L.element([0, 0, -2])   # [h,f] = -2f
    assert L.bracket(e, f) == L.element([1, 0, 0])    # [e,f] = h
    # oracle: same relations from explicit 2x2 matrices
    E = [[0, 1], [0, 0]]
    F = [[0, 0], [1, 0]]
    H = [[1, 0], [0, -1]]
    assert _sl2_matrix_bracket(H, E) == [[0, 2], [0, 0]]
    assert _sl2_matrix_bracket(H, F) == [[0, 0], [-2, 0]]
    assert _sl2_matrix_bracket(E, F) == H


def test_bracket_antisymmetry_and_dimension_error():
    L = simple_lie_algebra("A", 2)
    rng = random.Random(11)
    for _ in range(20):
        x = L.element([rng.randint(-3, 3) for _ in range(L.dim)])
        y = L.element([rng.randint(-3, 3) for _ in range(L.dim)])
        assert L.bracket(x, x) == L.zero()
        lhs = L.bracket(x, y)
        rhs = L.bracket(y, x)
        assert lhs == tuple(-c for c in rhs)
    with pytest.raises(UsageError):
        L.bracket((1, 0), L.zero())


def test_ad_matrix_sl2():
    L = simple_lie_algebra("A", 1)
    h = L.basis_element(0)
    ad_h = L.ad_matrix(h)
    # basis order (h, e, f): ad_h = diag(0, 2, -2)
    assert ad_h == [[0, 0, 0], [0, 2, 0], [0, 0, -2]]
    assert L.ad_matrix(L.zero()) == [[0] * 3 for _ in range(3)]


def test_ad_is_bracket_homomorphism():
    L = simple_lie_algebra("B", 2)
    rng = random.Random(5)
    n = L.dim

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    for _ in range(5):
        x = L.element([rng.randint(-2, 2) for _ in range(n)])
        y = L.element([rng.randint(-2, 2) for _ in range(n)])
        ax, ay = L.ad_matrix(x), L.ad_matrix(y)
        lhs = L.ad_matrix(L.bracket(x, y))
        comm = matmul(ax, ay)
        ba = matmul(ay, ax)
        rhs = [[comm[i][j] - ba[i][j] for j in range(n)] for i in range(n)]
        assert lhs == rhs


def test_sl2_pairing_values():
    # oracle: ad matrices in basis (h,e,f) by hand, Tr(ad_a ad_b) / (2*2)
    L = simple_lie_algebra("A", 1)
    h, e, f = (L.basis_element(i) for i in range(3))
    assert L.pair(h, h) == 2      # Tr(diag(0,4,4)) = 8, /4
    assert L.pair(h, e) == 0
    assert L.pair(e, f) == 1      # Tr(ad_e ad_f) = 4, /4


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("D", 4)])
def test_pairing_bi_invariance_random_elements(series, rank):
    L = simple_lie_algebra(series, rank)
    rng = random.Random(20240 + rank)
    for _ in range(200):
        a = L.element([rng.randint(-3, 3) for _ in range(L.dim)])
        b = L.element([rng.randint(-3, 3) for _ in range(L.dim)])
        c = L.element([rng.randint(-3, 3) for _ in range(L.dim)])
        assert L.pair(L.bracket(a, b), c) == L.pair(a, L.bracket(b, c))


def test_pairing_equals_trace_formula():
    L = simple_lie_algebra("A", 2)
    n = L.dim
    for i in range(n):
        for j in range(n):
            ai = L.ad_matrix(L.basis_element(i))
            aj = L.ad_matrix(L.basis_element(j))
            tr = sum(ai[r][c] * aj[c][r] for r in range(n) for c in range(n))
            assert L.pairing[i][j] == Fraction(tr, 2 * L.h_dual_coxeter)


def test_dual_basis_sl2():
    L = simple_lie_algebra("A", 1)
    duals = [L.dual_element(i) for i in range(3)]
    # basis (h, e, f) -> duals (h/2, f, e)
    assert duals[0] == (Fraction(1, 2), 0, 0)
    assert duals[1] == (0, 0, 1)
    assert duals[2] == (0, 1, 0)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_dual_basis_properties(series, rank):
    L = simple_lie_algebra(series, rank)
    n = L.dim
    for i in range(n):
        for j in range(n):
            assert L.pair(L.basis_element(i), L.dual_element(j)) == (1 if i == j else 0)
    # completeness: sum_i (e_i, x)(e^i, y) = (x, y)
    rng = random.Random(3)
    for _ in range(10):
        x = L.element([rng.randint(-3, 3) for _ in range(n)])
        y = L.element([rng.randint(-3, 3) for _ in range(n)])
        total = sum(L.pair(L.basis_element(i), x) * L.pair(L.dual_element(i), y)
                    for i in range(n))
        assert total == L.pair(x, y)
    # pairing matrix of the duals equals pairing_inv
    for i in range(n):
        for j in range(n):
            assert L.pair(L.dual_element(i), L.dual_element(j)) == L.pairing_inv[i][j]


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2)])
def test_index_raising_identity(series, rank):
    # ad_a K^{-1} = -K^{-1} ad_a^T for every basis element a
    L = simple_lie_algebra(series, rank)
    n = L.dim
    kinv = L.pairing_inv
    for a in range(n):
        ad = L.ad_matrix(L.basis_element(a))
        for i in range(n):
            for j in range(n):
                lhs = sum(ad[i][k] * kinv[k][j] for k in range(n))
                rhs = -sum(kinv[i][k] * ad[j][k] for k in range(n))
                assert lhs == rhs


def test_structure_constant_cache_round_trip(tmp_path):
    L = simple_lie_algebra("B", 2)
    path = tmp_path / "b2.sc"
    save_structure_constants(L, str(path))
    dim, rank, hdc, f = load_structure_constants(str(path))
    assert (dim, rank, hdc) == (L.dim, L.rank, L.h_dual_coxeter)
    assert set(f) == set(L.f)
    for key, comp in L.f.items():
        assert f[key] == {k: Fraction(v) for k, v in comp.items()}
    # bit-exact: saving again yields identical bytes
    path2 = tmp_path / "b2_again.sc"
    save_structure_constants(L, str(path2))
    assert path.read_bytes() == path2.read_bytes()
    assert verify_cached_algebra(L, str(path))
    # written through a temp file that does not outlive the save
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b2.sc", "b2_again.sc"]


def test_structure_constant_save_is_atomic(tmp_path, monkeypatch):
    # a save that fails before the final rename keeps the old file whole
    # and leaves no temp file behind
    import os
    path = tmp_path / "A2.sc"
    save_structure_constants(simple_lie_algebra("A", 1), str(path))
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_structure_constants(simple_lie_algebra("A", 2), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["A2.sc"]


@pytest.mark.parametrize("series,rank", [("A", 1), ("B", 3), ("C", 3), ("D", 4),
                                         ("G", 2), ("F", 4), ("E", 6)])
def test_algebra_from_cache_matches_fresh(tmp_path, series, rank):
    fresh = simple_lie_algebra(series, rank)
    path = tmp_path / f"{series}{rank}.sc"
    save_structure_constants(fresh, str(path))
    loaded = algebra_from_cache(series, rank, str(path))
    assert loaded.dim == fresh.dim
    assert loaded.h_dual_coxeter == fresh.h_dual_coxeter
    assert loaded.f == fresh.f
    assert loaded.pairing == fresh.pairing
    assert loaded.pairing_inv == fresh.pairing_inv
    assert loaded.basis_labels == fresh.basis_labels
    # the readers of f agree although the two tables were filled in
    # different orders, build order and file order
    assert list(loaded.f) != list(fresh.f)
    rng = random.Random(f"cache:{series}{rank}")
    x = tuple(rng.randint(-3, 3) for _ in range(fresh.dim))
    assert loaded.ad_matrix(x) == fresh.ad_matrix(x)
    assert cartan_alpha(loaded) == cartan_alpha(fresh)


def test_cache_load_runs_jacobi_check(tmp_path, monkeypatch):
    from celalg import liealg
    path = tmp_path / "a2.sc"
    save_structure_constants(simple_lie_algebra("A", 2), str(path))

    def failing_check(rs, f):
        raise liealg.ConstructionError("Jacobi identity fails")

    monkeypatch.setattr(liealg, "_jacobi_check", failing_check)
    with pytest.raises(ConfigurationError, match="a2.sc: Jacobi identity fails"):
        algebra_from_cache("A", 2, str(path))


def _simple_bracket_line(lines, target):
    """Index of the cache line "a b c N", a < b, for the bracket of a simple
    root vector e_a with e_b: with e_b simple and c the first root of height
    two (target "root"), or with e_b = f_a and c a Cartan index (target
    "coroot").  Nothing else brackets to h_c alone; e_c is also the bracket
    of a longer root vector with some f_i from rank 3 on."""
    dim, rank = (int(x) for x in lines[1].split()[:2])
    npos = (dim - rank) // 2
    for n, ln in enumerate(lines[2:], 2):
        a, b, c = (int(x) for x in ln.split()[:3])
        if not rank <= a < 2 * rank:
            continue
        if target == "root" and a < b < 2 * rank and c == 2 * rank:
            return n
        if target == "coroot" and b == a + npos and c < rank:
            return n


def _other_order(lines, n):
    i, j, k, v = lines[n].split()
    return lines.index(f"{j} {i} {k} {-int(v)}")


def _omega_image(lines, n):
    """Index of the line that the Chevalley involution maps line n to:
    x_a <-> x_-a on the basis positions, the constant negated."""
    dim, rank = (int(x) for x in lines[1].split()[:2])
    npos = (dim - rank) // 2

    def sigma(i):
        return i if i < rank else i + npos if i < rank + npos else i - npos

    i, j, k, v = (int(x) for x in lines[n].split())
    return lines.index(f"{sigma(i)} {sigma(j)} {sigma(k)} {-v}")


INVOLUTION_ERROR = "structure constants are not invariant under the Chevalley involution"


@pytest.mark.parametrize("corrupt", ["one order flipped", "self-bracket",
                                     "both orders flipped", "root zeroed",
                                     "coroot zeroed", "involution broken"])
@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2), ("B", 3), ("A", 4)])
def test_cache_failing_a_lie_algebra_check(tmp_path, series, rank, corrupt):
    # one corrupted root-root constant; with its omega-image corrupted alike
    # the table stays omega-invariant and the derivation argument catches it
    path = tmp_path / "f.sc"
    save_structure_constants(simple_lie_algebra(series, rank), str(path))
    lines = path.read_text().splitlines()
    n = _simple_bracket_line(lines, "coroot" if corrupt == "coroot zeroed" else "root")
    if corrupt in ("one order flipped", "self-bracket"):
        error = "structure constants are not antisymmetric at basis pair"
    elif corrupt == "coroot zeroed" or (
            corrupt == "root zeroed" and (series, rank) in (("A", 2), ("G", 2))):
        # [e_a, f_a] is the only bracket that gives h_c alone, and on A2 and
        # G2 the bracket of two simple root vectors the only one giving e_c
        error = "the simple root vectors do not generate basis element"
    elif corrupt == "involution broken":
        error = INVOLUTION_ERROR
    else:
        # Jacobi at the generators fails; a zeroed e_c stays generated on B3
        # and A4 through a longer root
        error = "Jacobi identity fails on basis triple"
    # the line, its other order, and their omega-images ("coroot zeroed"
    # drops a pair that is its own image)
    both = [n, _other_order(lines, n)]
    images = [_omega_image(lines, p) for p in both]
    targets = {"one order flipped": both[:1], "self-bracket": [],
               "both orders flipped": both + images, "root zeroed": both + images,
               "coroot zeroed": both, "involution broken": images}[corrupt]
    if corrupt == "self-bracket":
        lines.append(f"2 2 {lines[n].split()[2]} 1")
    elif corrupt.endswith("zeroed"):
        # a zero constant has no line (a line with value 0 is refused)
        lines = [ln for p, ln in enumerate(lines) if p not in targets]
    else:
        for p in targets:
            i, j, k, v = lines[p].split()
            lines[p] = f"{i} {j} {k} {-int(v)}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=f"f.sc: {re.escape(error)}"):
        algebra_from_cache(series, rank, str(path))


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2), ("A", 3), ("B", 3), ("A", 4),
                                         ("F", 4), ("E", 6)])
def test_derivation_argument_without_the_sample(monkeypatch, series, rank):
    # with no sampled triples the generator checks alone pass the true
    # constants and reject one root-root constant flipped in both orders
    # together with its omega-image: an omega-invariant table, so the
    # derivation check at the e_i alone must see it
    from celalg import liealg
    monkeypatch.setattr(liealg, "JACOBI_SAMPLE", 0)
    rs = build_root_system(series, rank)
    f = liealg._build_f(rs)
    liealg._jacobi_check(rs, f)
    npos = len(rs.positive_roots)
    a, b = next((a, b) for (a, b), comp in sorted(f.items())
                if rank <= a < b and list(comp) == [2 * rank])
    for key in ((a, b), (b, a), (a + npos, b + npos), (b + npos, a + npos)):
        f[key] = {k: -v for k, v in f[key].items()}
    with pytest.raises(liealg.ConstructionError, match="Jacobi identity fails"):
        liealg._jacobi_check(rs, f)


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 3), ("B", 2), ("C", 3), ("G", 2),
                                         ("F", 4)])
def test_generation_steps_reach_each_element_once(series, rank):
    # the walk of the build, as DefiningRep follows it: each step
    # (k, x, y, c) reaches a new basis element e_k = [e_x, e_y] / c from the
    # e_i, f_i and earlier steps, and together they reach every element
    L = simple_lie_algebra(series, rank)
    e, f = generator_positions(L.root_system)
    assert [L.root_system.positive_roots[x - rank] for x in e] == list(L.root_system.simple_roots)
    assert f == [x + len(L.root_system.positive_roots) for x in e]
    reached = set(e + f)
    for k, x, y, c in L.generation_steps:
        assert {x, y} <= reached and k not in reached
        assert L.bracket_basis(x, y) == {k: c}
        reached.add(k)
    assert reached == set(range(L.dim))
    assert len(L.generation_steps) == L.dim - 2 * rank


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2), ("B", 3), ("A", 4)])
def test_jacobi_sample_without_the_derivation_argument(monkeypatch, series, rank):
    # the omega-invariant flip of the test above, with the derivation check
    # turned off: the seeded sample alone must see it (on A2 and G2 it holds
    # every one of the C(dim, 3) triples)
    from celalg import liealg
    monkeypatch.setattr(liealg, "_check_derivations", lambda dim, generators, row: None)
    rs = build_root_system(series, rank)
    f = liealg._build_f(rs)
    liealg._jacobi_check(rs, f)
    npos = len(rs.positive_roots)
    a, b = next((a, b) for (a, b), comp in sorted(f.items())
                if rank <= a < b and list(comp) == [2 * rank])
    for key in ((a, b), (b, a), (a + npos, b + npos), (b + npos, a + npos)):
        f[key] = {k: -v for k, v in f[key].items()}
    with pytest.raises(liealg.ConstructionError,
                       match=r"Jacobi identity fails on basis triple"):
        liealg._jacobi_check(rs, f)


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2), ("B", 3), ("F", 4)])
def test_table_not_invariant_under_the_involution_is_refused(series, rank):
    # the omega-image of one root-root constant flipped in both orders: the
    # table stays antisymmetric, and the involution pass refuses it
    from celalg import liealg
    rs = build_root_system(series, rank)
    f = liealg._build_f(rs)
    npos = len(rs.positive_roots)
    a, b = next((a, b) for (a, b), comp in sorted(f.items())
                if rank <= a < b and list(comp) == [2 * rank])
    for key in ((a + npos, b + npos), (b + npos, a + npos)):
        f[key] = {k: -v for k, v in f[key].items()}
    with pytest.raises(liealg.ConstructionError,
                       match=f"{INVOLUTION_ERROR} at basis pair"):
        liealg._jacobi_check(rs, f)
    with pytest.raises(liealg.ConstructionError, match=INVOLUTION_ERROR):
        liealg._finish(rs, f)


def _block_entry(rs, block):
    """One off-diagonal entry (i, j) of the trace pairing in the given block."""
    rank, npos = rs.rank, len(rs.positive_roots)
    return {"cartan": (0, 1), "cartan-root": (0, rank),
            "positive-root": (rank, rank + 1),
            "negative-negative": (rank + npos, rank + npos + 1)}[block]


@pytest.mark.parametrize("block", ["cartan", "cartan-root", "positive-root",
                                   "negative-negative"])
@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2)])
def test_perturbed_trace_pairing_is_rejected(tmp_path, monkeypatch, series, rank, block):
    # the exact inverse check must see a wrong entry in every block of the
    # pairing, on fresh builds and on cache loads alike
    from celalg import liealg
    path = tmp_path / f"{series}{rank}.sc"
    save_structure_constants(simple_lie_algebra(series, rank), str(path))
    rs = build_root_system(series, rank)
    i, j = _block_entry(rs, block)
    orig = liealg._killing_matrix

    def perturbed(dim, f):
        kf = orig(dim, f)
        kf[i][j] += 4
        kf[j][i] += 4
        return kf

    monkeypatch.setattr(liealg, "_killing_matrix", perturbed)
    with pytest.raises(liealg.ConstructionError, match="pairing inverse"):
        chevalley_basis(rs)
    with pytest.raises(ConfigurationError, match=f"{series}{rank}.sc: .*pairing inverse"):
        algebra_from_cache(series, rank, str(path))


@pytest.mark.parametrize("block", ["cartan-root", "positive-root", "negative-negative"])
@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2)])
def test_off_pattern_pairing_inverse_is_rejected(tmp_path, monkeypatch, series, rank, block):
    # a nonzero inverse entry where the closed form has a zero, such as
    # (x_alpha, x_beta) with beta != -alpha: the sparse row check must reach
    # it, on fresh builds and on cache loads alike
    from celalg import liealg
    path = tmp_path / f"{series}{rank}.sc"
    save_structure_constants(simple_lie_algebra(series, rank), str(path))
    rs = build_root_system(series, rank)
    i, j = _block_entry(rs, block)
    orig = liealg._pairing_inverse

    def perturbed(rs):
        inv = orig(rs)
        assert inv[i][j] == 0
        inv[i][j] = Fraction(1, 3)
        return inv

    monkeypatch.setattr(liealg, "_pairing_inverse", perturbed)
    with pytest.raises(liealg.ConstructionError, match="pairing inverse"):
        chevalley_basis(rs)
    with pytest.raises(ConfigurationError, match=f"{series}{rank}.sc: .*pairing inverse"):
        algebra_from_cache(series, rank, str(path))


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2), ("B", 3), ("F", 4)])
def test_killing_matrix_is_the_trace_of_ad_products(series, rank):
    # the sparse join against its definition, K_ij = Tr(ad_i ad_j), entry by entry
    from celalg import liealg
    from celalg.adinv import trace_mul
    L = simple_lie_algebra(series, rank)
    ads = [L.ad_matrix(L.basis_element(i)) for i in range(L.dim)]
    assert liealg._killing_matrix(L.dim, L.f) == [
        [trace_mul(a, b) for b in ads] for a in ads]


def test_row_reduce_augmented_block():
    rows, pivots = row_reduce([[2, 1, 1, 0], [1, 1, 0, 1]], 2)
    assert pivots == [0, 1]
    assert rows == [[1, 0, 1, -1], [0, 1, -1, 2]]
    assert all(isinstance(x, Fraction) for row in rows for x in row)
    # a dependent row ends up zero below the pivot rows
    rows, pivots = row_reduce([[0, 2, 4], [0, 1, 2], [3, 0, 3]], 3)
    assert pivots == [0, 1]
    assert rows == [[1, 0, 1], [0, 1, 2], [0, 0, 0]]


@pytest.mark.parametrize("header,entry,error", [
    ("8 2 4", None, "dual Coxeter number 4 disagrees"),
    ("15 3 4", None, "shape does not match type A2"),
    ("8 2 x", None, "invalid literal for int"),
    (None, "1/2", "non-integral"),
    # a value is a plain integer token; any other token is refused by line
    (None, "3/2", "non-integral cached structure constant"),
    (None, "1.5", "non-integral cached structure constant"),
    (None, "7.0", "'7.0' in line '0 2 2 7.0'"),
    (None, "one", "'one' in line '0 2 2 one'"),
    # an integer that is not the negative of its antisymmetric partner
    (None, "7", "not antisymmetric"),
])
def test_corrupt_cache_is_configuration_error(tmp_path, header, entry, error):
    path = tmp_path / "a2.sc"
    save_structure_constants(simple_lie_algebra("A", 2), str(path))
    lines = path.read_text().splitlines()
    if header:
        lines[1] = header
    if entry:
        lines[2] = " ".join(lines[2].split()[:3] + [entry])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=f"a2.sc: .*{error}"):
        algebra_from_cache("A", 2, str(path))


@pytest.mark.parametrize("line,error", [
    ("{i} {j} {k} {v} 0", "malformed line '{i} {j} {k} {v} 0'"),
    ("{i} {j} 8 {v}", "index out of range in line '{i} {j} 8 {v}'"),
])
def test_malformed_cache_line_is_configuration_error(tmp_path, line, error):
    path = tmp_path / "a2.sc"
    save_structure_constants(simple_lie_algebra("A", 2), str(path))
    lines = path.read_text().splitlines()
    i, j, k, v = lines[2].split()
    lines[2] = line.format(i=i, j=j, k=k, v=v)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError,
                       match=f"a2.sc: {re.escape(error.format(i=i, j=j, k=k, v=v))}$"):
        algebra_from_cache("A", 2, str(path))


@pytest.mark.parametrize("added,before,error", [
    # A1 is (h, e, f) = (0, 1, 2): a zero constant appended in each order
    (["1 2 1 0", "2 1 1 0"], None, "zero structure constant in line '1 2 1 0'"),
    # a second value of [h, e] before the true "0 1 1 2": the later line is named
    (["0 1 1 99"], "0 1 1 2", "repeated structure constant in line '0 1 1 2'"),
], ids=["zero", "repeated"])
def test_zero_or_repeated_cache_constant_is_configuration_error(tmp_path, added, before,
                                                                error):
    path = tmp_path / "a1.sc"
    save_structure_constants(simple_lie_algebra("A", 1), str(path))
    lines = path.read_text().splitlines()
    at = len(lines) if before is None else lines.index(before)
    path.write_text("\n".join(lines[:at] + added + lines[at:]) + "\n")
    with pytest.raises(ConfigurationError, match=f"a1.sc: {re.escape(error)}$"):
        algebra_from_cache("A", 1, str(path))


@pytest.mark.parametrize("first,error", [
    # a file written before the version line existed starts with its header
    (None, "no format version line: first line '8 2 3'"),
    ("celalg-structure-constants 2", "unknown format version: first line "
                                     "'celalg-structure-constants 2'"),
    ("celalg-structure-constants 0", "unknown format version: first line "
                                     "'celalg-structure-constants 0'"),
])
def test_cache_format_version_is_required(tmp_path, first, error):
    path = tmp_path / "a2.sc"
    save_structure_constants(simple_lie_algebra("A", 2), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CACHE_FORMAT
    lines = lines[1:] if first is None else [first] + lines[1:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError) as info:
        algebra_from_cache("A", 2, str(path))
    message = str(info.value)
    assert message.startswith(f"cache file {path}: {error}, expected ")
    assert "\n" not in message


def test_chevalley_constants_are_integers():
    for series, rank in [("G", 2), ("F", 4), ("C", 3)]:
        L = simple_lie_algebra(series, rank)
        for comp in L.f.values():
            for v in comp.values():
                assert isinstance(v, int)


def _inexact(v):
    """A float, or a Fraction that should have been held as its int."""
    return isinstance(v, float) or (isinstance(v, Fraction) and v.denominator == 1)


@pytest.mark.parametrize("series,rank", ALL_TYPES_TO_RANK_8)
def test_integral_values_are_held_as_ints(series, rank):
    # pairing, pairing inverse, root norms, and the pair and inner products
    # built from them: ints where integral, never floats
    L = simple_lie_algebra(series, rank)
    rs = L.root_system
    assert not any(_inexact(v) for m in (L.pairing, L.pairing_inv) for row in m for v in row)
    assert not any(map(_inexact, rs.norms.values()))
    basis = [L.basis_element(i) for i in range(L.dim)]
    assert not any(_inexact(L.pair(basis[i], basis[j]))
                   for i in range(L.rank) for j in range(L.dim))
    assert not any(_inexact(rs.inner(a, b)) for a in rs.simple_roots
                   for b in rs.positive_roots)
