"""Finite-dimensional simple Lie algebras over exact rationals.

Builds the full Chevalley basis of any simple type (A through G) from root
data alone: positive roots are enumerated by height induction from the
normalized Gram matrix of simple roots, structure constants come from the
extraspecial-pair sign convention into one table with a row per basis
position, f[i][j] = {k: c} for [e_i, e_j] = sum_k c e_k, so that row f[i]
is the sparse ad(e_i); each positive root pair writes its zero-sum triple
and that triple's negative once (_build_f).  The bi-invariant pairing

    (a, b) = Tr(ad_a ad_b) / (2 h)

is computed from adjoint traces, where h is the dual Coxeter number.  Simple
root lengths are normalized so the highest root theta has (theta, theta) = 2,
which makes h a positive integer; this is asserted during construction along
with the structure-constant Jacobi identity.  That identity is decided by the
derivation argument: the constants are antisymmetric and invariant under the
Chevalley involution omega, the simple root vectors e_i, f_i generate every
basis element, and Jacobi holds on each triple (e_i, y, z), which omega
carries to (f_i, y, z); a seeded sample of basis triples is recomputed beside
it (_jacobi_check).

Everything is exact: structure constants are ints; root norms and pairing
entries are ints where integral, else Fractions.  No floating point is used.
"""

from __future__ import annotations

import os
import random
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Dict, List, Sequence, Tuple, Union

Coeffs = Tuple[int, ...]
Element = Tuple  # length-dim tuple of ints / Fractions
Rat = Union[int, Fraction]
# (k, x, y, c): basis element e_k = [e_x, e_y] / c
Step = Tuple[int, int, int, int]
# f[i][j] = {k: c}: [e_i, e_j] = sum_k c e_k over the nonzero c, so row f[i]
# is the sparse ad(e_i); every basis position has a row, in basis order
Table = Dict[int, Dict[int, Dict[int, int]]]


class ConfigurationError(ValueError):
    """Invalid (series, rank) request or malformed input file."""


class ConstructionError(RuntimeError):
    """Internal inconsistency detected while building an algebra."""


class UsageError(ValueError):
    """Operands do not fit the algebra (e.g. dimension mismatch)."""


VALID_RANKS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 3,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


def _gram_matrix(series: str, rank: int) -> List[List[Fraction]]:
    """Gram matrix of simple roots, normalized to (theta, theta) = 2."""
    one = Fraction(1)
    half = Fraction(1, 2)
    if series == "A":
        norms = [2 * one] * rank
        edges = {(i, i + 1): -one for i in range(rank - 1)}
    elif series == "B":
        norms = [2 * one] * (rank - 1) + [one]
        edges = {(i, i + 1): -one for i in range(rank - 1)}
    elif series == "C":
        norms = [one] * (rank - 1) + [2 * one]
        edges = {(i, i + 1): -half for i in range(rank - 2)}
        edges[(rank - 2, rank - 1)] = -one
    elif series == "D":
        norms = [2 * one] * rank
        edges = {(i, i + 1): -one for i in range(rank - 2)}
        edges[(rank - 3, rank - 1)] = -one
    elif series == "E":
        norms = [2 * one] * rank
        pairs = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        edges = {p: -one for p in pairs if p[0] < rank and p[1] < rank}
    elif series == "F":
        norms = [2 * one, 2 * one, one, one]
        edges = {(0, 1): -one, (1, 2): -one, (2, 3): -half}
    else:  # G
        norms = [Fraction(2, 3), 2 * one]
        edges = {(0, 1): -one}
    gram = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = norms[i]
    for (i, j), v in edges.items():
        gram[i][j] = v
        gram[j][i] = v
    return gram


@dataclass(frozen=True)
class RootSystem:
    """Root data and the Chevalley basis layout, the one place it is worked
    out: the Cartan slots 0..rank-1 come first, then the vectors of the
    positive roots in their order, then those of their negatives, so the
    opposite of a root vector sits npos slots away."""

    series: str
    rank: int
    gram: Tuple[Tuple[Fraction, ...], ...]
    simple_roots: Tuple[Coeffs, ...]
    positive_roots: Tuple[Coeffs, ...]  # ordered by (height, lexicographic)
    cartan_matrix: Tuple[Tuple[int, ...], ...]
    # (root, root) for every positive and negative root, computed once
    norms: Dict[Coeffs, Rat] = field(compare=False, repr=False)
    # the basis position of each root vector, keyed in basis order
    position: Dict[Coeffs, int] = field(compare=False, repr=False)
    # opposite[i]: the position of the opposite root vector, i on the Cartan slots
    opposite: Tuple[int, ...] = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.opposite)

    def norm2(self, root: Coeffs) -> Rat:
        """(root, root) of a positive or negative root, read from the table."""
        return self.norms[root]

    def inner(self, a: Coeffs, b: Coeffs) -> Rat:
        """(a, b) from the Gram matrix: an int where integral."""
        g = self.gram
        total = 0
        for i, ai in enumerate(a):
            if ai:
                row = g[i]
                total += ai * sum(row[j] * bj for j, bj in enumerate(b) if bj)
        return _ratio(total, 1)

    def cartan_pairing(self, root: Coeffs, i: int) -> int:
        """2 (root, alpha_i) / (alpha_i, alpha_i) = sum_j root_j cartan[j][i]."""
        return sum(r * row[i] for r, row in zip(root, self.cartan_matrix) if r)

    def coroot(self, root: Coeffs) -> Coeffs:
        """root^vee = 2 root / (root, root) over the simple coroots, always integral."""
        n2 = self.norms[root]
        out = []
        for k, simple in zip(root, self.simple_roots):
            c, rem = divmod(k * self.norms[simple], n2)
            if rem:
                raise ConstructionError(f"non-integral coroot of {root}")
            out.append(c)
        return tuple(out)

    @property
    def highest_root(self) -> Coeffs:
        return self.positive_roots[-1]


def build_root_system(series: str, rank: int) -> RootSystem:
    """Enumerate the positive roots and Cartan matrix of a simple type."""
    series = series.upper()
    if series not in VALID_RANKS or not isinstance(rank, int) or not VALID_RANKS[series](rank):
        raise ConfigurationError(f"invalid simple type {series}{rank}")
    gram = _gram_matrix(series, rank)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    # cartan[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)
    cartan = tuple(tuple(2 * gram[i][j] / gram[j][j] for j in range(rank))
                   for i in range(rank))
    bad = next((v for row in cartan for v in row if v.denominator != 1), None)
    if bad is not None:
        raise ConstructionError(f"non-integral Cartan pairing {bad}")
    cartan = tuple(tuple(map(int, row)) for row in cartan)

    interim = RootSystem(series, rank, tuple(map(tuple, gram)), tuple(simple), (), cartan,
                         {}, {}, ())
    roots = set(simple)
    by_height = [list(simple)]
    while by_height[-1]:
        nxt = []
        for gamma in by_height[-1]:
            for i in range(rank):
                cand = _vadd(gamma, simple[i])
                if cand in roots:
                    continue
                # root-string condition: gamma + alpha_i is a root iff
                # p - <gamma, alpha_i^vee> >= 1, with p the depth of the string.
                # Every root below gamma is already in roots.
                p = _string_depth(roots.__contains__, simple[i], gamma)
                if p - interim.cartan_pairing(gamma, i) >= 1:
                    roots.add(cand)
                    nxt.append(cand)
        by_height.append(nxt)

    positive = sorted(roots, key=lambda t: (sum(t), t))
    heights = [sum(t) for t in positive]
    if heights.count(max(heights)) != 1:
        raise ConstructionError("highest root is not unique")

    # 6 (r, r) from 6 gram, integral on every type; (r, r) an int where it is
    g6 = [[int(6 * v) for v in row] for row in gram]
    norms = {}
    for r in positive:
        n6 = sum(ri * sum(g6[i][j] * rj for j, rj in enumerate(r) if rj)
                 for i, ri in enumerate(r) if ri)
        norms[r] = norms[_vneg(r)] = _ratio(n6, 6)
    position = {r: rank + k for k, r in enumerate(positive)}
    position.update({_vneg(r): rank + len(positive) + k for k, r in enumerate(positive)})
    opposite = (*range(rank), *(position[_vneg(r)] for r in position))

    rs = RootSystem(series, rank, interim.gram, interim.simple_roots,
                    tuple(positive), cartan, norms, position, opposite)
    n2 = rs.norm2(rs.highest_root)
    if n2 != 2:
        raise ConstructionError(f"highest-root norm {n2} != 2: bad normalization")
    return rs


def _ratio(num: Rat, den: int) -> Rat:
    """num / den exactly: an int where it is integral, else a Fraction."""
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def _vadd(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(x - y for x, y in zip(a, b))


def _vneg(a: Coeffs) -> Coeffs:
    return tuple(-x for x in a)


def _string_depth(is_root: Callable[[Coeffs], bool], alpha: Coeffs,
                  beta: Coeffs) -> int:
    """The largest p with beta - alpha, ..., beta - p alpha all roots."""
    p = 0
    cur = _vsub(beta, alpha)
    while is_root(cur):
        p += 1
        cur = _vsub(cur, alpha)
    return p


@dataclass
class LieAlgebra:
    """Simple Lie algebra in a Chevalley basis with exact invariant pairing.

    The basis layout is the root system's: Cartan generators h_1..h_rank,
    then root vectors for the positive roots in height order, then the
    corresponding negative ones (RootSystem.position, .opposite).  f holds
    the structure constants by row, f[i][j] = {k: c} (Table): row f[i] is
    the sparse ad(e_i), and every reader takes the rows in place.
    generation_steps is the walk by which the build showed that the e_i and
    f_i generate g (_check_generated).  Immutable after construction.
    """

    root_system: RootSystem
    basis_labels: Tuple[str, ...]
    f: Table
    pairing: List[List[Rat]]
    pairing_inv: List[List[Rat]]
    h_dual_coxeter: int
    generation_steps: Tuple[Step, ...]

    @property
    def series(self) -> str:
        return self.root_system.series

    @property
    def rank(self) -> int:
        return self.root_system.rank

    @property
    def name(self) -> str:
        return f"{self.series}{self.rank}"

    @property
    def dim(self) -> int:
        return self.root_system.dim

    def zero(self) -> Element:
        return (0,) * self.dim

    def basis_element(self, i: int) -> Element:
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def element(self, coeffs: Sequence) -> Element:
        if len(coeffs) != self.dim:
            raise UsageError(f"expected {self.dim} coefficients, got {len(coeffs)}")
        return tuple(coeffs)

    def pos_root_index(self, k: int) -> int:
        rs = self.root_system
        return rs.position[rs.positive_roots[k]]

    def bracket_basis(self, i: int, j: int) -> Dict[int, int]:
        return self.f[i].get(j, {})

    def bracket(self, x: Element, y: Element) -> Element:
        if len(x) != self.dim or len(y) != self.dim:
            raise UsageError("dimension mismatch in bracket")
        acc = [0] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for j, comp in self.f[i].items():
                    yj = y[j]
                    if yj:
                        c = xi * yj
                        for k, v in comp.items():
                            acc[k] += c * v
        return tuple(acc)

    def ad_matrix(self, x: Element) -> List[List]:
        """Matrix of [x, -] in the basis; column j is bracket(x, e_j)."""
        if len(x) != self.dim:
            raise UsageError("dimension mismatch in ad_matrix")
        n = self.dim
        mat = [[0] * n for _ in range(n)]
        for i, xi in enumerate(x):
            if xi:
                for m, comp in self.f[i].items():
                    for k, c in comp.items():
                        mat[k][m] += xi * c
        return mat

    def pair(self, a: Element, b: Element) -> Rat:
        if len(a) != self.dim or len(b) != self.dim:
            raise UsageError("dimension mismatch in pairing")
        total = 0
        for i, ai in enumerate(a):
            if ai:
                row = self.pairing[i]
                total += ai * sum(row[j] * bj for j, bj in enumerate(b) if bj)
        return total

    def dual_element(self, i: int) -> Element:
        """e^i with (e_j, e^i) = delta_ij; the i-th row of pairing_inv."""
        return tuple(self.pairing_inv[i])

    def highest_root_triple(self) -> Tuple[Element, Element, Element]:
        """(e, h, f) for the sl2 spanned by the highest-root vectors."""
        rs = self.root_system
        top = rs.position[rs.highest_root]
        e = self.basis_element(top)
        fneg = self.basis_element(rs.opposite[top])
        h = self.bracket(e, fneg)
        return e, h, fneg


def generator_positions(rs: RootSystem) -> Tuple[List[int], List[int]]:
    """Basis positions of the e_i and of the f_i, in simple-root order.
    Positive roots sort by (height, lexicographic), so the simple root
    alpha_i is not positive root i."""
    e = [rs.position[r] for r in rs.simple_roots]
    return e, [rs.opposite[x] for x in e]


# distinct basis triples i < j < k the Jacobi check recomputes beside the
# derivation argument, at most C(dim, 3)
JACOBI_SAMPLE = 512


def _jacobi_check(rs: RootSystem, f: Table) -> List[Step]:
    """Exact structure-constant Jacobi identity, by the derivation argument.

    For an antisymmetric bracket the x with ad_x a derivation form a
    subalgebra: Jacobi on (x, y, -) gives ad_[x,y] = [ad_x, ad_y], and a
    commutator of derivations is one.  So Jacobi holds on all of g once
    (1) f is antisymmetric, (2) the simple root vectors e_i, f_i generate
    g, and (3) ad_x is a derivation for each such generator x.  One exact
    pass over f shows (1) and that the Chevalley involution omega (h -> -h,
    x_a -> -x_-a) preserves the bracket: f[j][i] = {k: -c} and
    f[sigma i][sigma j] = {sigma k: -c} for every constant f[i][j][k] = c,
    sigma swapping the basis positions of x_a and x_-a.  Then ad_omega(x) =
    omega ad_x omega^-1, a derivation conjugated by an automorphism is one,
    and ad_f_i = -ad_omega(e_i); so (3) is checked on the e_i alone
    (_check_derivations), while (2) walks the e_i and f_i
    (_check_generated), whose steps are returned.  A seeded sample of
    min(JACOBI_SAMPLE, C(dim, 3)) distinct basis triples i < j < k is
    recomputed beside it.  Every check reads the rows of f in place.
    """
    sigma = rs.opposite
    for i, row in f.items():
        for j, comp in row.items():
            if i == j or f[j].get(i) != {k: -v for k, v in comp.items()}:
                raise ConstructionError(
                    f"structure constants are not antisymmetric at basis pair ({i},{j})")
            if f[sigma[i]].get(sigma[j]) != {sigma[k]: -v for k, v in comp.items()}:
                raise ConstructionError(
                    f"structure constants are not invariant under the Chevalley "
                    f"involution at basis pair ({i},{j})")
    e_gens, f_gens = generator_positions(rs)
    steps = _check_generated(f, e_gens + f_gens)
    _check_derivations(f, e_gens)
    dim = rs.dim
    rng = random.Random(f"jacobi:{rs.series}{rs.rank}")
    # distinct ranks, unranked in colex order: k is the largest index with
    # C(k, 3) <= rank, then j the largest with C(j, 2) <= the rest
    c3 = [comb(m, 3) for m in range(dim)]
    c2 = [comb(m, 2) for m in range(dim)]
    empty: Dict[int, int] = {}
    for r in rng.sample(range(comb(dim, 3)), min(JACOBI_SAMPLE, comb(dim, 3))):
        k = bisect_right(c3, r) - 1
        r -= c3[k]
        j = bisect_right(c2, r) - 1
        i = r - c2[j]
        # [[i, j], k] + [[j, k], i] + [[k, i], j]
        acc: Dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, u in f[a].get(b, empty).items():
                for l, v in f[m].get(c, empty).items():
                    acc[l] = acc.get(l, 0) + u * v
        if any(acc.values()):
            raise ConstructionError(f"Jacobi identity fails on basis triple ({i},{j},{k})")
    return steps


def _check_generated(f: Table, generators: List[int]) -> List[Step]:
    """Every basis element is reached from the generators, read off the rows
    of f alone: e_k counts only as a nonzero multiple of one bracket [x, y]
    of reached basis elements, never as one term of a longer bracket.  Returns the walk in the order reached, one step (k, x, y, c)
    with e_k = [e_x, e_y] / c for each basis element not a generator, e_x
    and e_y being generators or reached at earlier steps."""
    reached = set(generators)
    todo = list(generators)
    steps: List[Step] = []
    while todo:
        x = todo.pop()  # [x, y] = -[y, x], so pairs with x first suffice
        for y, comp in f[x].items():
            if y in reached:
                terms = [k for k, v in comp.items() if v]
                if len(terms) == 1 and terms[0] not in reached:
                    k = terms[0]
                    reached.add(k)
                    todo.append(k)
                    steps.append((k, x, y, comp[k]))
    if len(reached) < len(f):
        missing = min(set(f) - reached)
        raise ConstructionError(
            f"the simple root vectors do not generate basis element {missing}")
    return steps


def _check_derivations(f: Table, generators: List[int]) -> None:
    """Jacobi on (x, y, z) for every x in generators and basis pair y < z,
    as [ad_x, ad_y] = ad_[x,y] summed over the nonzero constants only, read
    off the rows ad_x = f[x] and ad_y = f[y].  _jacobi_check passes the e_i
    alone: the involution carries the check to the f_i."""
    dim = len(f)
    empty: Dict[int, int] = {}
    for x in generators:
        ad_x = f[x]
        for y, ad_y in f.items():
            # coefficient of e_l in [x,[y,z]] - [y,[x,z]] - [[x,y],z], z > y,
            # keyed z * dim + l
            acc: Dict[int, int] = {}
            for z, yz in ad_y.items():
                if z > y:
                    for m, u in yz.items():
                        for l, v in ad_x.get(m, empty).items():
                            acc[z * dim + l] = acc.get(z * dim + l, 0) + u * v
            for z, xz in ad_x.items():
                if z > y:
                    for m, u in xz.items():
                        for l, v in ad_y.get(m, empty).items():
                            acc[z * dim + l] = acc.get(z * dim + l, 0) - u * v
            for m, u in ad_x.get(y, empty).items():
                for z, mz in f[m].items():
                    if z > y:
                        for l, v in mz.items():
                            acc[z * dim + l] = acc.get(z * dim + l, 0) - u * v
            bad = [key // dim for key, c in acc.items() if c]
            if bad:
                raise ConstructionError(
                    f"Jacobi identity fails on basis triple ({x},{y},{min(bad)})")


def _build_f(rs: RootSystem) -> Table:
    """Integer structure constants in the Chevalley basis, as one Table, a
    row per basis position.

    Root vectors sit at their basis position, rs.position, and negation is
    read from rs.opposite.  The positive constants come by height induction:
    the extraspecial pair of each positive root g (least first component)
    gets N = p + 1, with p the depth of its root string, and every other
    pair the four-term relation (Carter, Simple Groups of Lie Type, 1972),
    whose mixed-sign constants are read off the table at lower heights.  As soon as a positive pair (a, b) with a + b = g has its
    N, the zero-sum triple (a, b, -g) and its negative are written:

        N(a,b)/(g,g) = N(b,-g)/(a,a) = N(-g,a)/(b,b),  N(-x,-y) = -N(x,y),

    with antisymmetry.  An ordered pair of roots summing to a root lies in
    exactly one such triple, so each root-root bracket is written once.
    """
    pos, index, neg = rs.positive_roots, rs.position, rs.opposite
    # 6 (r, r) by position, an int on every type
    norm = [0] * rs.rank + [int(6 * rs.norm2(r)) for r in index]
    is_root = index.__contains__
    f: Table = {i: {} for i in range(rs.dim)}

    for r in pos:
        x = index[r]
        y = neg[x]
        h = {i: c for i, c in enumerate(rs.coroot(r)) if c}
        f[x][y], f[y][x] = h, {i: -c for i, c in h.items()}
        for i in range(rs.rank):
            c = rs.cartan_pairing(r, i)
            if c:
                f[i][x], f[x][i], f[i][y], f[y][i] = {x: c}, {x: -c}, {y: -c}, {y: c}

    def write(a: int, b: int, g: int, n: int) -> None:
        """[x_a, x_b] = n x_g for positive a + b = g, and the rest of the
        triples (a, b, -g) and (-a, -b, g)."""
        for x, y, z, (v, rem) in ((a, b, g, (n, 0)),
                                  (b, neg[g], neg[a], divmod(n * norm[a], norm[g])),
                                  (neg[g], a, neg[b], divmod(n * norm[b], norm[g]))):
            if rem:
                raise ConstructionError("non-integral structure constant")
            f[x][y], f[y][x] = {z: v}, {z: -v}
            f[neg[x]][neg[y]], f[neg[y]][neg[x]] = {neg[z]: -v}, {neg[z]: v}

    for k, gamma in enumerate(pos):
        if sum(gamma) == 1:
            continue
        g = index[gamma]
        # the pairs (alpha, beta) with alpha + beta = gamma, least alpha
        # first; beta is positive, as its height is gamma's less alpha's
        pairs = [(alpha, beta) for alpha in pos[:k] if (beta := _vsub(gamma, alpha)) in index]
        if not pairs:
            raise ConstructionError(f"root {gamma} has no decomposition")
        alpha, beta = pairs[0]
        a, b = index[alpha], index[beta]
        n0 = _string_depth(is_root, alpha, beta) + 1
        write(a, b, g, n0)
        for xi_root, eta_root in pairs[1:]:
            xi, eta = index[xi_root], index[eta_root]
            if eta in f[xi]:
                continue
            # four-term relation for alpha + beta - xi - eta = 0; the
            # differences are roots of lower height, or not roots at all
            total = Fraction(0)
            d = index.get(_vsub(beta, xi_root))
            if d is not None:
                total += Fraction(f[b][neg[xi]][d] * f[a][neg[eta]][neg[d]], norm[d])
            d = index.get(_vsub(alpha, xi_root))
            if d is not None:
                total += Fraction(f[neg[xi]][a][d] * f[b][neg[eta]][neg[d]], norm[d])
            n = norm[g] * total / n0
            if n.denominator != 1:
                raise ConstructionError("non-integral structure constant")
            if abs(n) != _string_depth(is_root, xi_root, eta_root) + 1:
                raise ConstructionError(
                    f"structure constant {n} violates root-string bound")
            write(xi, eta, g, int(n))
    return f


def _killing_matrix(dim: int, f: Table) -> List[List[int]]:
    """K_ij = Tr(ad_i ad_j) = sum_km (ad_i)_km (ad_j)_mk, every entry summed
    over the nonzero constants alone, walking the rows ad_i = f[i]: each
    constant f[i][m][k] = c, which is (ad_i)_km = c, meets those of every
    ad_j at position (m, k)."""
    # (ad_j)_mk = f[j][k][m], keyed m * dim + k
    at: Dict[int, List[Tuple[int, int]]] = {}
    for j, row in f.items():
        for k, comp in row.items():
            for m, v in comp.items():
                at.setdefault(m * dim + k, []).append((j, v))
    kf = [[0] * dim for _ in range(dim)]
    for i, row in f.items():
        ki = kf[i]
        for m, comp in row.items():
            for k, c in comp.items():
                for j, v in at.get(m * dim + k, ()):
                    ki[j] += c * v
    return kf


def row_reduce(rows: Sequence[Sequence], ncols: int
               ) -> Tuple[List[List[Fraction]], List[int]]:
    """Exact reduced row echelon form, pivoting on the first ncols columns.

    Columns past ncols (an augmented block) are carried along.  Returns the
    reduced rows, pivot rows first, and the pivot column of each pivot row.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: List[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        d = mat[rank][col]
        top = mat[rank] = [x / d for x in mat[rank]]
        for r, row in enumerate(mat):
            factor = row[col]
            if r != rank and factor != 0:
                mat[r] = [x - factor * y for x, y in zip(row, top)]
        pivots.append(col)
    return mat, pivots


def _pairing_inverse(rs: RootSystem) -> List[List[Rat]]:
    """Inverse of the pairing in its closed form from root data.

    In the normalization (theta, theta) = 2 the pairing is
    (h_i, h_j) = 4 (a_i, a_j) / ((a_i, a_i)(a_j, a_j)) on the Cartan block,
    (x_a, x_{-a}) = 2 / (a, a) on each opposite-root pair, and zero elsewhere.
    The Cartan block is inverted exactly; each pair inverts to (a, a) / 2.
    """
    rank, g = rs.rank, rs.gram
    aug = [[4 * g[i][j] / (g[i][i] * g[j][j]) for j in range(rank)]
           + [int(i == j) for j in range(rank)] for i in range(rank)]
    reduced, _ = row_reduce(aug, rank)
    inv = [[0] * rs.dim for _ in range(rs.dim)]
    for i in range(rank):
        inv[i][:rank] = [_ratio(v, 1) for v in reduced[i][rank:]]
    for root, i in rs.position.items():
        inv[i][rs.opposite[i]] = _ratio(rs.norm2(root), 2)
    return inv


def _verify_inverse(killing: List[List[int]], scale: int, inv) -> None:
    """(killing / scale) inv = I exactly, in integers: with inv = N / d for
    int N, each row of killing N must be scale d e_i.  Products are summed
    over the nonzero entries of both factors, and a row entry no product
    reaches is exactly zero, so every entry is compared."""
    d = lcm(*(v.denominator for row in inv for v in row if v))
    inv_nz = [[(k, v.numerator * (d // v.denominator)) for k, v in enumerate(row) if v]
              for row in inv]
    unit = scale * d
    for i, row in enumerate(killing):
        acc: Dict[int, int] = {}
        for j, v in enumerate(row):
            if v:
                for k, w in inv_nz[j]:
                    acc[k] = acc.get(k, 0) + v * w
        if {k: x for k, x in acc.items() if x} != {i: unit}:
            raise ConstructionError("pairing inverse verification failed")


def _finish(rs: RootSystem, f: Table) -> LieAlgebra:
    """Verify integer structure constants and derive the rest of the algebra.

    Shared by fresh builds and cache loads: f is the Table of _build_f or
    one read from a file, and every type gets the same checks.  They are
    the Jacobi identity by the derivation argument (antisymmetry, invariance
    under the Chevalley involution, generation by the e_i and f_i, whose
    walk the algebra keeps as generation_steps, Jacobi on every triple with
    an e_i first) plus a seeded sample of basis triples, then the dual
    Coxeter number and the pairing from adjoint traces, and the pairing
    inverse written from root data, all read off f itself.  The one
    pairing check is pairing . pairing_inv = I exactly; since the inverse is
    invertible, that holds iff every pairing entry equals its closed form.
    Both the trace matrix K (_killing_matrix) and that check run over the
    nonzero entries only and in integers: pairing = K / 2h, so the check is
    K . pairing_inv = 2h I, every entry of which is compared.
    """
    steps = _jacobi_check(rs, f)
    killing = _killing_matrix(rs.dim, f)

    # dual Coxeter number from the highest-root coroot: (t, t) = 2 in the
    # target normalization, so Tr(ad_t ad_t) = 2h * 2.
    ctheta = rs.coroot(rs.highest_root)
    kval = sum(ci * cj * killing[i][j] for i, ci in enumerate(ctheta)
               for j, cj in enumerate(ctheta))
    hdc = Fraction(kval, 4)
    if hdc.denominator != 1 or hdc <= 0:
        raise ConstructionError(f"dual Coxeter number {hdc} is not a positive integer")
    hdc = int(hdc)

    pairing = [[_ratio(v, 2 * hdc) if v else 0 for v in row] for row in killing]
    pairing_inv = _pairing_inverse(rs)
    _verify_inverse(killing, 2 * hdc, pairing_inv)

    roots = range(len(rs.positive_roots))
    labels = tuple([f"h{i + 1}" for i in range(rs.rank)]
                   + [f"e{k}" for k in roots] + [f"f{k}" for k in roots])
    return LieAlgebra(root_system=rs, basis_labels=labels, f=f,
                      pairing=pairing, pairing_inv=pairing_inv,
                      h_dual_coxeter=hdc, generation_steps=tuple(steps))


def chevalley_basis(rs: RootSystem) -> LieAlgebra:
    """Construct the algebra with integer structure constants and verify it."""
    return _finish(rs, _build_f(rs))


_ALGEBRA_CACHE: Dict[Tuple[str, int], LieAlgebra] = {}


def simple_lie_algebra(series: str, rank: int) -> LieAlgebra:
    """Build (and memoize) the simple algebra of the given type."""
    key = (series.upper(), rank)
    if key not in _ALGEBRA_CACHE:
        _ALGEBRA_CACHE[key] = chevalley_basis(build_root_system(*key))
    return _ALGEBRA_CACHE[key]


# ---------------------------------------------------------------------------
# structure-constant cache files
#
# Format: the version line CACHE_FORMAT, a header line "dim rank
# h_dual_coxeter", then one line "i j k c" per nonzero constant (0-based
# indices, c an integer, sorted by (i,j,k)).

CACHE_FORMAT = "celalg-structure-constants 1"
_INT_TOKEN = re.compile(r"[+-]?\d+")


def _format_structure_constants(L: LieAlgebra) -> str:
    lines = [CACHE_FORMAT, f"{L.dim} {L.rank} {L.h_dual_coxeter}"]
    for i, row in L.f.items():
        for j in sorted(row):
            comp = row[j]
            for k in sorted(comp):
                lines.append(f"{i} {j} {k} {comp[k]}")
    return "\n".join(lines) + "\n"


def save_structure_constants(L: LieAlgebra, path: str) -> None:
    """Write the cache file through a temp file in the same directory and
    os.replace, so a concurrent reader sees the old file or the whole new one."""
    text = _format_structure_constants(L)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_structure_constants(path: str) -> Tuple[int, int, int, Table]:
    """Parse a cache file into (dim, rank, h_dual_coxeter, f), f integral and
    holding only the rows the file names: no row is made from an unchecked
    dim.  algebra_from_cache adds the empty rows once the shape matches."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ConfigurationError("empty structure-constant file")
    if lines[0] != CACHE_FORMAT:
        problem = ("unknown format version"
                   if lines[0].split()[0] == CACHE_FORMAT.split()[0]
                   else "no format version line")
        raise ConfigurationError(
            f"{problem}: first line {lines[0]!r}, expected {CACHE_FORMAT!r}")
    head = lines[1].split() if len(lines) > 1 else []
    if len(head) != 3:
        raise ConfigurationError("malformed header in structure-constant file")
    dim, rank, hdc = (int(x) for x in head)
    f: Table = {}
    for ln in lines[2:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ConfigurationError(f"malformed line {ln!r}")
        if not _INT_TOKEN.fullmatch(parts[3]):
            raise ConfigurationError(
                f"non-integral cached structure constant {parts[3]!r} in line {ln!r}")
        i, j, k, val = map(int, parts)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ConfigurationError(f"index out of range in line {ln!r}")
        # the writer emits each nonzero constant once
        if val == 0:
            raise ConfigurationError(f"zero structure constant in line {ln!r}")
        comp = f.setdefault(i, {}).setdefault(j, {})
        if k in comp:
            raise ConfigurationError(f"repeated structure constant in line {ln!r}")
        comp[k] = val
    return dim, rank, hdc, f


def algebra_from_cache(series: str, rank: int, path: str) -> LieAlgebra:
    """Rebuild an algebra from a cache file, skipping the constant derivation.

    The root system is re-enumerated (cheap); the structure constants from
    the file go through the same verified finisher as a fresh build, and the
    stored dual Coxeter number is cross-checked against the recomputed one.
    A file that fails any of this raises ConfigurationError naming it.
    """
    rs = build_root_system(series, rank)
    try:
        dim, rank_in, hdc_in, f = load_structure_constants(path)
        if dim != rs.dim or rank_in != rs.rank:
            raise ConfigurationError(f"shape does not match type {rs.series}{rs.rank}")
        L = _finish(rs, {i: f.get(i, {}) for i in range(rs.dim)})
        if L.h_dual_coxeter != hdc_in:
            raise ConfigurationError(
                f"cached dual Coxeter number {hdc_in} disagrees with traces "
                f"({L.h_dual_coxeter})")
    except (ConstructionError, ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"cache file {path}: {exc}") from exc
    return L


def verify_cached_algebra(L: LieAlgebra, path: str) -> bool:
    """True iff the file round-trips bit-exactly against L."""
    with open(path) as fh:
        return fh.read() == _format_structure_constants(L)
