"""Adjoint trace invariants and the quartic trace-identity classification.

Provides exact quartic traces Tr(ad ad ad ad), the identities they satisfy
(dual-basis contraction, dihedral symmetry, the commutator trace relation,
and the polarized quartic identity), and the resulting classification of
simple algebras where Tr(ad_a^4) is proportional to Tr(ad_a^2)^2 for all a.
Every identity is read from the ad matrices alone (L.ad_matrix, the structure
constants L.f, L.pairing_inv) through the one matrix kernel below, and each
check forms each distinct product once.

The proportionality is decided exactly, not sampled.  Both sides are
ad-invariant polynomials on g, so by Chevalley's restriction theorem
(Humphreys 1972, section 23) they agree on g iff they agree on the Cartan
subalgebra h, where ad is diagonal and the identity is one polynomial
comparison in rank variables (cartan_alpha).  The diagonal is read off the
built algebra and cross-checked against the root data, and quartic_alpha
adds one seeded polarized tuple away from h; a failure of any of the three
is a ConstructionError.  Where no alpha exists, _cartan_witness names two
elements of h with different quartic ratios, read from the same checked
diagonal, so no alpha can hold at both.  classify runs this on every
exceptional type and on the classical series up to a rank, so its scan holds
the whole admissible list.

For classical types the quartic trace is also checked against the defining
representation: Tr(ad_a^4) = c4 * Tr(a^4) + c22 * (Tr(a^2))^2 with exact
series-dependent coefficients.
"""

from __future__ import annotations

import random
import struct
from fractions import Fraction
from itertools import chain, combinations_with_replacement, compress, product
from math import lcm
from operator import mul
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .liealg import (ConstructionError, Element, LieAlgebra, RootSystem, UsageError,
                     _ratio, generator_positions, simple_lie_algebra)
from .report import Report


def expected_alpha(dim: int) -> Fraction:
    """5 / (2 (2 + dim)), the proportionality constant on admissible types."""
    return Fraction(5, 2 * (2 + dim))


# --- exact matrix helpers (lists of rows, int or Fraction entries) ----------
#
# The product kernel is exact Kronecker substitution.  Each row of a right
# operand b is packed into one Python int, slot j holding b_kj in w bits, so
# a row of the product is a sum of (small int) * (packed int) products done
# in C bigint arithmetic.  Every product entry is bounded by
# max_i sum_k |a_ik| * max|b| (the largest row sum of |a| times the largest
# |b|), and w is the narrowest of 16 and 64 k bits that puts this bound
# and max|b| below 2^(w-1).  Biasing each slot by 2^(w-1) keeps it in
# [0, 2^w), so no borrow crosses slots and unpacking the slots recovers
# every entry exactly (_Slots).

_WORD = 64
_WORD_MASK = (1 << _WORD) - 1


class _Operand(NamedTuple):
    """A matrix m = ints / denom, with the largest row sum of |ints| and the
    largest |ints|: the bounds on the products it takes part in."""
    ints: List[List[int]]
    denom: int
    row_norm: int
    top: int


def _prepare(m: List[List]) -> _Operand:
    """m scaled to ints by the lcm of its entries' denominators, and its
    bounds."""
    d = 1
    if not set(map(type, chain.from_iterable(m))) <= {int}:
        d = lcm(*(v.denominator for v in chain.from_iterable(m)))
        m = [[v.numerator * (d // v.denominator) for v in row] for row in m]
    return _Operand(m, d, max((sum(map(abs, row)) for row in m), default=0),
                    max(map(abs, chain.from_iterable(m)), default=0))


def _slot_bits(bound: int) -> int:
    """The narrowest slot width w of 16 or 64 k bits with bound < 2^(w-1)."""
    if bound < 1 << 15:
        return 16
    return _WORD * (bound.bit_length() // _WORD + 1)


class _Slots:
    """Length-n int rows packed into one int, w bits a slot, for entries of
    absolute value below 2^(w-1).

    A packed row is the int sum_j row_j 2^(w j).  Adding the bias
    sum_j 2^(w-1) 2^(w j) makes each slot the digit row_j + 2^(w-1) in
    [0, 2^w), and flipping the top bit of every slot (xor with the bias)
    turns that digit into row_j in w-bit two's complement, which the struct
    codes read and write directly."""

    def __init__(self, n: int, w: int):
        self.k = max(w // _WORD, 1)  # 64-bit words per slot
        self.shifts = range(0, w, _WORD)
        # a 16-bit word, or k 64-bit words with the sign in the last
        code = "h" if w == 16 else "Q" * (self.k - 1) + "q"
        self.words = struct.Struct("<" + code * n)
        self.bias = (1 << (w - 1)) * (((1 << (w * n)) - 1) // ((1 << w) - 1))

    def pack(self, row: List[int]) -> int:
        if self.k > 1:
            top = self.shifts[-1]
            row = [x >> s if s == top else x >> s & _WORD_MASK
                   for x in row for s in self.shifts]
        return (int.from_bytes(self.words.pack(*row), "little") ^ self.bias) - self.bias

    def unpack(self, value: int) -> List[int]:
        entries = self.words.unpack(
            ((value + self.bias) ^ self.bias).to_bytes(self.words.size, "little"))
        if self.k > 1:
            k = self.k
            return [sum(x << s for x, s in zip(entries[j:j + k], self.shifts))
                    for j in range(0, len(entries), k)]
        return list(entries)


def _product(a: _Operand, b: _Operand, packed: List[int], slots: _Slots) -> List[List]:
    """a b from a and the packed rows of b."""
    d = a.denom * b.denom
    out = []
    for row in a.ints:
        entries = slots.unpack(sum(map(mul, compress(row, row), compress(packed, row))))
        out.append(entries if d == 1 else [Fraction(x, d) for x in entries])
    return out


def products(mats: Sequence[List[List]], pairs: Iterable[Tuple[int, int]]
             ) -> Dict[Tuple[int, int], List[List]]:
    """{(i, j): mats[i] mats[j]} for each pair, exact: int entries for int
    operands, else Fractions.  Each operand is scaled to ints and scanned
    once, and each right operand packed once, in the narrowest slots that
    fit its products with every left operand it is paired with."""
    pairs = list(dict.fromkeys(pairs))
    ops = {i: _prepare(mats[i]) for i in dict.fromkeys(chain.from_iterable(pairs))}
    left_norm: Dict[int, int] = {}
    for i, j in pairs:
        left_norm[j] = max(left_norm.get(j, 0), ops[i].row_norm)
    packing = {}
    for j, norm in left_norm.items():
        b = ops[j]
        # max(norm, 1) * max|b| bounds the products and max|b| itself
        slots = _Slots(len(b.ints[0]), _slot_bits(max(norm, 1) * b.top))
        packing[j] = [slots.pack(row) for row in b.ints], slots
    return {(i, j): _product(ops[i], ops[j], *packing[j]) for i, j in pairs}


def mat_mul(a: List[List], b: List[List]) -> List[List]:
    """The exact product a b: int entries for int operands, else Fractions."""
    return products((a, b), [(0, 1)])[0, 1]


def mat_sub(a: List[List], b: List[List]) -> List[List]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_comm(a: List[List], b: List[List]) -> List[List]:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace_mul(a: List[List], b: List[List]):
    """Tr(a b) without forming the product."""
    return sum(sum(map(mul, r, c)) for r, c in zip(a, zip(*b)))


def trace(a: List[List]):
    return sum(a[i][i] for i in range(len(a)))


# --- quartic traces ----------------------------------------------------------

DIHEDRAL = (
    (0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
    (0, 3, 2, 1), (3, 2, 1, 0), (2, 1, 0, 3), (1, 0, 3, 2),
)


def quartic_trace(L: LieAlgebra, a: Element, b: Element, c: Element, d: Element):
    """Tr(ad_a ad_b ad_c ad_d), exact and multilinear."""
    ads = [L.ad_matrix(x) for x in (a, b, c, d)]
    pairs = products(ads, [(0, 1), (2, 3)])
    return trace_mul(pairs[0, 1], pairs[2, 3])


# --- identity checks ---------------------------------------------------------

def check_contract_identity(L: LieAlgebra, a: Element, b: Element,
                            c: Element) -> Report:
    """Dual-basis contraction: sum_i [[c,[b,e_i]],[a,e^i]] against the
    quartic-trace expansion -sum_i Tr(ad_a ad_b ad_c ad_{e_i}) e^i.

    With e^i = sum_q P^-1_iq e_q (P^-1 = L.pairing_inv) the left side is
    sum_pq N_pq [e_p, e_q] for N = ad_c ad_b P^-1 ad_a^T.  The expansion is
    bilinear and uses no Jacobi identity, so both sides are read off the
    structure constants L.f in one loop.  With ad_a ad_b ad_c formed as
    A (B C), each ad matrix enters the kernel once.  P^-1 enters as Q / d
    with Q an int matrix, so both sides are compared times d, in ints."""
    A, B, C = (L.ad_matrix(x) for x in (a, b, c))
    bc, cb = products([B, C], [(0, 1), (1, 0)]).values()
    m = mat_mul(A, bc)
    inv = _prepare(L.pairing_inv)
    Q, d = inv.ints, inv.denom
    N = mat_mul(mat_mul(cb, Q), list(zip(*A)))
    lhs = [0] * L.dim
    traces = [0] * L.dim
    for (i, q), comp in L.f.items():
        mq, nq = m[q], N[i][q]
        # (ad_{e_i})_{kq} = coeff: [e_i, e_q] = coeff e_k
        for k, coeff in comp.items():
            traces[i] += mq[k] * coeff
            lhs[k] += nq * coeff
    rhs = [-x for x in mat_mul([traces], Q)[0]]
    ok = lhs == rhs
    ce = None if ok else {"lhs": [str(Fraction(x, d)) for x in lhs],
                          "rhs": [str(Fraction(x, d)) for x in rhs]}
    return Report(check="contract_identity", algebra=L.name, passed=ok,
                  first_counterexample=ce)


def check_dihedral(L: LieAlgebra, a1: Element, a2: Element, a3: Element,
                   a4: Element) -> Report:
    """Tr(ad_a1 ad_a2 ad_a3 ad_a4) under the eight dihedral permutations;
    each image is the trace of two of the eight adjacent-pair products."""
    ads = [L.ad_matrix(x) for x in (a1, a2, a3, a4)]
    pairs = products(ads, [perm[k:k + 2] for perm in DIHEDRAL for k in (0, 2)])
    base = trace_mul(pairs[0, 1], pairs[2, 3])
    for perm in DIHEDRAL[1:]:
        val = trace_mul(pairs[perm[:2]], pairs[perm[2:]])
        if val != base:
            return Report(check="dihedral_symmetry", algebra=L.name, passed=False,
                          first_counterexample={"perm": perm, "base": str(base),
                                                "value": str(val)})
    return Report(check="dihedral_symmetry", algebra=L.name, passed=True)


def check_commutator_identity(L: LieAlgebra, a: Element, b: Element,
                              c: Element, d: Element) -> Report:
    """2 Tr([A,D][B,C]) + Tr([A,B][C,D]) against the quartic combination
    4(Tr(ABCD)+Tr(ACDB)+Tr(ADBC)) - 6(Tr(ABCD)+Tr(BACD)), A = ad_a etc.;
    the ten distinct products are formed once each."""
    ab, ba, cd, dc, ad, da, bc, cb, ac, db = products(
        [L.ad_matrix(x) for x in (a, b, c, d)],
        [(0, 1), (1, 0), (2, 3), (3, 2), (0, 3), (3, 0), (1, 2), (2, 1), (0, 2),
         (3, 1)]).values()
    lhs = 2 * trace_mul(mat_sub(ad, da), mat_sub(bc, cb)) \
        + trace_mul(mat_sub(ab, ba), mat_sub(cd, dc))
    t_abcd = trace_mul(ab, cd)
    rhs = 4 * (t_abcd + trace_mul(ac, db) + trace_mul(ad, bc)) \
        - 6 * (t_abcd + trace_mul(ba, cd))
    ok = lhs == rhs
    ce = None if ok else {"lhs": str(lhs), "rhs": str(rhs)}
    return Report(check="commutator_trace_identity", algebra=L.name, passed=ok,
                  first_counterexample=ce)


def check_polarized(L: LieAlgebra, a: Element, b: Element, c: Element,
                    d: Element, alpha: Fraction) -> Report:
    """Polarized quartic identity: the symmetrized quartic trace equals
    alpha times the matching symmetric sum of pairing products."""
    A, B, C, D = ads = [L.ad_matrix(x) for x in (a, b, c, d)]
    ab, cd, ac, db, ad, bc = products(
        ads, [(0, 1), (2, 3), (0, 2), (3, 1), (0, 3), (1, 2)]).values()
    lhs = trace_mul(ab, cd) + trace_mul(ac, db) + trace_mul(ad, bc)
    t = (trace_mul(A, B) * trace_mul(C, D)
         + trace_mul(A, C) * trace_mul(D, B)
         + trace_mul(A, D) * trace_mul(B, C))
    rhs = alpha * t
    ok = lhs == rhs
    ce = None if ok else {"alpha": str(alpha), "lhs": str(lhs), "rhs": str(rhs)}
    return Report(check="polarized_quartic", algebra=L.name, passed=ok,
                  first_counterexample=ce)


# --- sampling ----------------------------------------------------------------

def random_element(L: LieAlgebra, rng: random.Random) -> Element:
    """Nonzero element with integer coefficients in [-3, 3]."""
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(L.dim)]
        if any(coeffs):
            return tuple(coeffs)


def element_rng(master_seed, L: LieAlgebra, check: str) -> random.Random:
    """Deterministic per-(seed, algebra, check) stream."""
    return random.Random(f"{master_seed}:{L.name}:{check}")


# --- the quartic identity on the Cartan subalgebra ---------------------------
#
# On h = sum_i x_i h_i, ad_h is diagonal in the Chevalley basis: 0 on the
# Cartan slots and w(h) = w.x on the root vector of weight w, with w_i the
# pairing <root, alpha_i^vee>.  So Tr(ad_h^4) = P4(x) = sum_w (w.x)^4 and
# Tr(ad_h^2) = P2(x) = sum_w (w.x)^2 over the nonzero weights w (the roots).

def root_weights(rs: RootSystem) -> List[Tuple[int, ...]]:
    """(w(h_1), ..., w(h_rank)) for each basis slot in the basis order: 0 on
    the Cartan slots and the Cartan pairings of each root on its vector,
    rs.position being keyed in basis order."""
    return [(0,) * rs.rank] * rs.rank + [
        tuple(rs.cartan_pairing(r, i) for i in range(rs.rank)) for r in rs.position]


def weight_alpha(weights: Sequence[Tuple[int, ...]]) -> Optional[Fraction]:
    """alpha with P4 = alpha P2^2 as polynomials in x_1..x_rank, else None.

    The x_i x_j x_k x_l coefficient (i <= j <= k <= l) of P4 is the
    multinomial of (i, j, k, l) times T4_ijkl = sum_w w_i w_j w_k w_l, and
    that of P2^2 the same multinomial times
    (T2_ij T2_kl + T2_ik T2_jl + T2_il T2_jk) / 3, T2_ij = sum_w w_i w_j.
    alpha is read at x_1^4, T4_1111 / T2_11^2, and every coefficient is
    compared times 3 T2_11^2, in ints.  T2_11 = Tr(ad_{h_1}^2) > 0 for root
    data: the first simple root pairs to 2 with h_1."""
    cols = list(zip(*(w for w in weights if any(w))))
    pairs = {ij: list(map(mul, cols[ij[0]], cols[ij[1]]))
             for ij in combinations_with_replacement(range(len(cols)), 2)}
    t2 = {ij: sum(p) for ij, p in pairs.items()}
    top, base = sum(map(mul, pairs[0, 0], pairs[0, 0])), t2[0, 0] ** 2
    for i, j, k, l in combinations_with_replacement(range(len(cols)), 4):
        t4 = sum(map(mul, pairs[i, j], pairs[k, l]))
        if 3 * t4 * base != top * (t2[i, j] * t2[k, l] + t2[i, k] * t2[j, l]
                                   + t2[i, l] * t2[j, k]):
            return None
    return Fraction(top, base)


def cartan_alpha(L: LieAlgebra) -> Optional[Fraction]:
    """The quartic alpha of L decided on h, or None where there is none.

    ad_{h_i} is read off the structure constants [h_i, e_b] =
    L.bracket_basis(i, b).  It must be diagonal, and its diagonal must be
    the root values of root_weights(L.root_system); either failure is a
    ConstructionError.  Then weight_alpha compares the two polynomials."""
    diagonal = [[0] * L.dim for _ in range(L.rank)]
    for i, row in enumerate(diagonal):
        for b in range(L.dim):
            for k, c in L.bracket_basis(i, b).items():
                if b != k:
                    raise ConstructionError(
                        f"{L.name}: ad_h{i + 1} has an entry off the diagonal, "
                        f"[h{i + 1}, {L.basis_labels[b]}] has a "
                        f"{L.basis_labels[k]} component")
                row[b] = c
    weights = root_weights(L.root_system)
    for b, (got, want) in enumerate(zip(zip(*diagonal), weights)):
        if got != want:
            raise ConstructionError(
                f"{L.name}: the Cartan weights {got} of {L.basis_labels[b]} "
                f"differ from the root data {want}")
    return weight_alpha(weights)


def quartic_alpha(L: LieAlgebra, master_seed=0) -> Optional[Fraction]:
    """The exact alpha with Tr(ad_a^4) = alpha (Tr(ad_a^2))^2 for all a in g,
    or None where no constant alpha exists.

    Both sides are ad-invariant polynomials on g, so by Chevalley's
    restriction theorem they agree on g iff they agree on the Cartan
    subalgebra h; cartan_alpha decides that and cross-checks the diagonal of
    ad_h against the root data.  When alpha exists, one polarized 4-tuple
    drawn from element_rng(master_seed, L, "quartic_alpha") checks the
    construction away from h.  An off-diagonal or misweighted ad_h, or a
    failing spot tuple, raises ConstructionError: the algebra is then not
    the one its root data describe."""
    alpha = cartan_alpha(L)
    if alpha is None:
        return None
    rng = element_rng(master_seed, L, "quartic_alpha")
    spot = check_polarized(L, *(random_element(L, rng) for _ in range(4)), alpha)
    if not spot.passed:
        raise ConstructionError(
            f"{L.name}: the polarized quartic identity holds on h at alpha "
            f"{alpha} but fails on the spot tuple at seed {master_seed}: "
            f"{spot.first_counterexample}")
    return alpha


def _cartan_witness(L: LieAlgebra) -> dict:
    """Two Cartan elements with different quartic ratios P4(x) / P2(x)^2:
    h_1 and the first h = sum_i x_i h_i, x in {0..4}^rank in lexicographic
    order, whose ratio differs from that of h_1.

    P4 and P2 are summed over root_weights(L.root_system), the diagonal of
    ad_h that cartan_alpha checked against the built algebra before it found
    no alpha, so each ratio is Tr(ad_h^4) / Tr(ad_h^2)^2.  For a type without
    alpha, Q(x) = P4(x) P2(e_1)^2 - P4(e_1) P2(x)^2 is a nonzero polynomial
    of degree at most 4 in each x_i, so it is nonzero at some x in
    {0..4}^rank (Combinatorial Nullstellensatz, Alon 1999), and there
    P2(x) > 0 and the two ratios differ.  So for any alpha the polarized
    identity fails at (h, h, h, h) for one of the two."""
    weights = root_weights(L.root_system)

    def ratio(x):
        values = [sum(map(mul, w, x)) for w in weights]
        p2 = sum(v * v for v in values)
        return Fraction(sum(v ** 4 for v in values), p2 * p2) if p2 else None

    first = (1,) + (0,) * (L.rank - 1)
    r1 = ratio(first)
    for x in product(range(5), repeat=L.rank):
        r = ratio(x)
        if r is not None and r != r1:
            return {"elements": [list(first), list(x)], "ratios": [str(r1), str(r)]}
    raise ConstructionError(f"{L.name}: no alpha on h, but every ratio on "
                            f"{{0..4}}^{L.rank} equals that of h1")


def footnote_witness_trace(L: LieAlgebra):
    """Tr(ad_{[e,f]} ad_e ad_f) for the highest-root sl2 triple; nonzero in
    every simple algebra, which is what makes the non-symmetric quartic
    combination independent."""
    e, h, f = L.highest_root_triple()
    m = mat_mul(L.ad_matrix(h), L.ad_matrix(e))
    return trace_mul(m, L.ad_matrix(f))


# --- classification ----------------------------------------------------------

def classification_types(max_rank: int = 4) -> List[Tuple[str, int]]:
    """Type list scanned by classify: classical series up to max_rank (the D
    series one rank further, so a non-degenerate D appears next to D4) plus
    every exceptional type, so the scan holds the whole admissible list A1,
    A2, G2, D4, F4, E6, E7 and E8."""
    types: List[Tuple[str, int]] = []
    types += [("A", r) for r in range(1, max_rank + 1)]
    types += [("B", r) for r in range(2, max_rank + 1)]
    types += [("C", r) for r in range(3, max_rank + 1)]
    types += [("D", r) for r in range(4, max_rank + 2)]
    types += [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
    return types


def classify(max_rank: int = 4, master_seed=0
             ) -> List[Tuple[str, int, Optional[Fraction]]]:
    """(name, dim, alpha or None) for each scanned type."""
    out = []
    for series, rank in classification_types(max_rank):
        L = simple_lie_algebra(series, rank)
        out.append((L.name, L.dim, quartic_alpha(L, master_seed=master_seed)))
    return out


def trace_identity_suite(L: LieAlgebra, samples: int = 100, master_seed=0) -> List[Report]:
    """The four trace-identity batches on seeded random tuples.

    The polarized batch takes alpha from cartan_alpha: where it exists the
    identity must hold on every sampled tuple; where it does not, the report
    names two Cartan elements with different quartic ratios.
    """
    reports: List[Report] = []

    def batch(name: str, runner) -> None:
        rng = element_rng(master_seed, L, name)
        first = None
        for k in range(samples):
            rep = runner(rng)
            if not rep.passed:
                first = {"sample_index": k, **(rep.first_counterexample or {})}
                break
        reports.append(Report(check=name, algebra=L.name, passed=first is None,
                              samples=samples, seed=master_seed,
                              first_counterexample=first))

    batch("contract_identity",
          lambda rng: check_contract_identity(
              L, *(random_element(L, rng) for _ in range(3))))
    batch("dihedral_symmetry",
          lambda rng: check_dihedral(
              L, *(random_element(L, rng) for _ in range(4))))
    batch("commutator_trace_identity",
          lambda rng: check_commutator_identity(
              L, *(random_element(L, rng) for _ in range(4))))

    alpha = cartan_alpha(L)
    if alpha is not None:
        batch("polarized_quartic",
              lambda rng: check_polarized(
                  L, *(random_element(L, rng) for _ in range(4)), alpha))
        reports[-1].details["alpha"] = str(alpha)
    else:
        reports.append(Report(
            check="polarized_quartic", algebra=L.name, passed=True,
            samples=samples, seed=master_seed,
            details={"alpha": None, "witness": _cartan_witness(L)}))
    return reports


# --- classical defining representations --------------------------------------

CLASSICAL_TABLE = {
    # series -> (coefficient of Tr(a^4), coefficient of (Tr(a^2))^2), as
    # functions of the rank
    "A": lambda n: (2 * (n + 1), 6),
    "B": lambda n: (2 * n - 7, 3),
    "C": lambda n: (2 * (n + 4), 3),
    "D": lambda n: (2 * (n - 4), 3),
}


def _simple_generator_matrices(series: str, rank: int
                               ) -> Tuple[int, List[List[List]], List[List[List]]]:
    """(size, raising, lowering) matrices rho(e_i), rho(f_i) of the defining
    representation for the simple roots, in the same Bourbaki ordering the
    root systems use.  Each lowering matrix is the transpose of its raising
    matrix, times 2 on B's short simple root: there the transpose f' gives
    [[e, f'], e] = e, and the Chevalley relation [[e, f], e] = 2e needs
    f = 2 f'."""
    n = rank
    if series == "A":
        size = n + 1
        entries = [[(i, i + 1, 1)] for i in range(n)]
    elif series == "B":
        size = 2 * n + 1
        entries = [[(i, i + 1, 1), (2 * n - 1 - i, 2 * n - i, -1)] for i in range(n - 1)]
        entries.append([(n - 1, n, 1), (n, n + 1, -1)])
    elif series == "C":
        size = 2 * n
        entries = [[(i, i + 1, 1), (n + i + 1, n + i, -1)] for i in range(n - 1)]
        entries.append([(n - 1, 2 * n - 1, 1)])
    elif series == "D":
        size = 2 * n
        entries = [[(i, i + 1, 1), (2 * n - 2 - i, 2 * n - 1 - i, -1)] for i in range(n - 1)]
        entries.append([(n - 2, n, 1), (n - 1, n + 1, -1)])
    else:
        raise UsageError(f"no defining representation for exceptional type {series}{rank}")
    es = [[[0] * size for _ in range(size)] for _ in entries]
    for e, lst in zip(es, entries):
        for (i, j, v) in lst:
            e[i][j] = v
    fs = [[list(col) for col in zip(*e)] for e in es]
    if series == "B":
        fs[-1] = [[2 * v for v in row] for row in fs[-1]]
    return size, es, fs


class DefiningRep:
    """Defining-representation matrices for every Chevalley basis element of
    a classical algebra, verified to be a Lie algebra homomorphism.

    rho(e_i) and rho(f_i) come from _simple_generator_matrices, which
    refuses the exceptional types.  Every other basis element, the h_i
    among them, follows the walk by which the build showed that the e_i and
    f_i generate g: rho(e_k) = [rho(e_x), rho(e_y)] / c for each step
    (k, x, y, c) of L.generation_steps, e_x and e_y set at earlier steps.
    """

    def __init__(self, L: LieAlgebra):
        self.algebra = L
        self.size, es, fs = _simple_generator_matrices(L.series, L.rank)
        mats: List[Optional[List[List]]] = [None] * L.dim
        for x, y, e, f in zip(*generator_positions(L.root_system), es, fs):
            mats[x], mats[y] = e, f
        for k, x, y, c in L.generation_steps:
            mats[k] = [[_ratio(v, c) for v in row] for row in mat_comm(mats[x], mats[y])]
        self.matrices = mats
        self._verify()

    def _verify(self) -> None:
        """rho[x, y] = [rho x, rho y] for each simple generator x = e_i, f_i
        and every basis element y.  The x for which this holds at every y
        form a subalgebra (Jacobi in g and in the matrices), and the simple
        generators generate g, so it then holds on every basis pair."""
        L = self.algebra
        for i in chain.from_iterable(generator_positions(L.root_system)):
            for j in range(L.dim):
                comp = L.bracket_basis(i, j)
                expect = self.matrix(tuple(comp.get(k, 0) for k in range(L.dim)))
                got = mat_comm(self.matrices[i], self.matrices[j])
                if got != expect:
                    raise ConstructionError(
                        f"defining representation of {L.name} is not a "
                        f"homomorphism at basis pair ({i},{j})")

    def matrix(self, x: Element) -> List[List]:
        out = [[0] * self.size for _ in range(self.size)]
        for i, xi in enumerate(x):
            if xi:
                mi = self.matrices[i]
                for r in range(self.size):
                    row = mi[r]
                    orow = out[r]
                    for s, v in enumerate(row):
                        if v:
                            orow[s] += xi * v
        return out


def check_classical_table(L: LieAlgebra, a: Element, rep: DefiningRep) -> Report:
    """One classical row: Tr(ad_a^4) = c4 Tr(a^4) + c22 (Tr(a^2))^2, with a
    read through rep, the DefiningRep of L."""
    c4, c22 = CLASSICAL_TABLE[L.series](L.rank)
    m = L.ad_matrix(a)
    m2 = mat_mul(m, m)
    lhs = trace_mul(m2, m2)
    p = rep.matrix(a)
    p2 = mat_mul(p, p)
    t2 = trace(p2)
    t4 = trace_mul(p2, p2)
    rhs = c4 * t4 + c22 * t2 * t2
    ok = lhs == rhs
    ce = None if ok else {"lhs": str(lhs), "rhs": str(rhs),
                          "c4": c4, "c22": c22}
    return Report(check="classical_trace_table", algebra=L.name, passed=ok,
                  first_counterexample=ce)
