"""Bracket rule tables of the celestial current algebras and their checks.

Two rule tables over a simple Lie algebra g, both built on one declared
zero block: every bracket among I, E and F vanishes.

  * extended:  the current brackets [J,J] -> J and [J,I] -> I (the base
               current algebra is this table's J/I part; no J/I bracket
               outputs an E or F letter), plus the pair E, F coupled to J
               with bidegree-dependent coefficients proportional to beta.
  * deformed:  the finite deformation with constants D and C on the
               low-bidegree generators; quadratic terms are expanded over
               the Chevalley basis and its dual basis, each e^i read off
               pairing_inv at its only nonzero slots (_quadratic_words).
               J-J brackets exist only at the deformed patterns; any other
               J-J pattern raises UndefinedBracket.  J-I falls back to the current bracket on
               every pattern except the two with +-C quadratic words,
               [J[1,0] I[0,1]] and [J[0,1] I[1,0]].

Each table is one dict from a generator kind pair to its rule; a pair the
table leaves out is the skew image of its reverse.  On top of the tables:
the Jacobi defect (1) - (2) - (3) of a generator triple, a grid verifier
asserting zero defect on the extended table, and the exact
linear solver that extracts the unique (D, C) as multiples of beta^2 from
the defect of the (J[1,0], J[0,1], J[0,0]) triples, when a nonzero
solution exists, by one row reduction over the table's own unknowns.  It
decides the Jacobi identity of the deformed table on those triples only;
other triples, J-J-I ones among them, keep nonzero defects unchecked.

The solver and the grid verifier compute label representatives only: the
g-equivariance of the defect lets the labels (x_-theta, x_theta, e_k)
decide every label, and e_k need only run over a few labels that generate g
as a module over the centralizer c of x_-theta (x) x_theta, the Cartan
slots and the root vectors orthogonal to theta (see _representatives; six
or fewer labels on every exceptional type, every label on A1 and A2, where
c is the Cartan subalgebra).  The grid verifier computes
sorted pattern triples only, and leaves out every triple with two slots in
the abelian ideal spanned by the I, E and F letters, declared with the
zero block and checked by the construction probe, whose defect vanishes by
lemma.  Every grid run recomputes seeded ordered triples of the full grid,
each of which must vanish where the scan decided its pattern clean, and
every solve recomputes seeded label triples whose rows must lie in the span
of the reduced ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .lambdacalc import (
    E,
    F,
    GenSymbol,
    I,
    J,
    KIND_E,
    KIND_F,
    KIND_I,
    KIND_J,
    KIND_LETTERS,
    InternalConsistencyError,
    LambdaMuPoly,
    LambdaPoly,
    UndefinedBracket,
    Word,
    bracket_words,
    format_lambda_poly,
    lp_iadd,
    normal_order_poly,
    skew,
    substitute_lambda_plus_mu,
    weight,
)
from .liealg import LieAlgebra, row_reduce
from .report import Report
from .scalar import (
    BETA,
    CCOEF,
    DCOEF,
    Exponent,
    Scalar,
    s_format,
    s_monomial,
    s_rational,
    s_scale,
)


class RuleIntegrityError(RuntimeError):
    """A rule produced an output violating its structural guarantees."""


class ModelError(RuntimeError):
    """A defect fell outside the expected coefficient span."""


class DomainError(ValueError):
    """Closed-form constants requested for a non-admissible algebra."""


ADMISSIBLE_TYPES = {("A", 1), ("A", 2), ("D", 4), ("E", 6), ("E", 7), ("E", 8),
                    ("F", 4), ("G", 2)}

# rule(rs, a, b): the bracket [a b] of one kind pair, or None where the table
# leaves the bidegree pattern undefined
Rule = Callable[["RuleSet", GenSymbol, GenSymbol], Optional[LambdaPoly]]

# the kinds of the abelian ideal A: every rule among them is zero, and
# _probed checks on its grid that J brackets them into their span
ABELIAN_KINDS = frozenset((KIND_I, KIND_E, KIND_F))


class RuleSet:
    """Immutable-after-construction bracket table with skew fallback.

    `rules` maps a kind pair (a.kind, b.kind) to its rule.  A pair without a
    value of its own retries the reversed pair and returns the skew image.
    Values are memoized and are checked on first build to strictly decrease
    total weight, the guarantee the reordering algorithm depends on.
    `abelian` holds the kinds of the abelian ideal A, whose zero block
    every table is built on, and `dual_slots` the dual basis over one
    denominator that _quadratic_words reads.
    """

    abelian = ABELIAN_KINDS

    def __init__(self, algebra: LieAlgebra, rules: Dict[Tuple[int, int], Rule]):
        self.algebra = algebra
        self.rules = rules
        self.base_memo: Dict[Tuple[GenSymbol, GenSymbol], LambdaPoly] = {}
        self.full_memo: Dict[Tuple[GenSymbol, GenSymbol], LambdaPoly] = {}
        self.d_const: Scalar = {}
        self.c_const: Scalar = {}
        self.dual_slots = _dual_slots(algebra)

    def direct(self, a: GenSymbol, b: GenSymbol) -> Optional[LambdaPoly]:
        """The table's own value of [a b], or None where it defines none."""
        rule = self.rules.get((a.kind, b.kind))
        return None if rule is None else rule(self, a, b)

    def resolve(self, a: GenSymbol, b: GenSymbol) -> LambdaPoly:
        cached = self.base_memo.get((a, b))
        if cached is not None:
            return cached
        val = self.direct(a, b)
        if val is None:
            val = self.direct(b, a)
            if val is None:
                raise UndefinedBracket(a, b)
            val = normal_order_poly(self, skew(val))
        return self._remember(a, b, val)

    def _remember(self, a: GenSymbol, b: GenSymbol, val: LambdaPoly) -> LambdaPoly:
        if val:
            bound = weight((a,)) + weight((b,))
            for ws in val.values():
                for word in ws:
                    if weight(word) >= bound:
                        raise RuleIntegrityError(
                            f"rule output {format_lambda_poly(val)} for [{a}, {b}] "
                            f"does not decrease total weight")
        self.base_memo[(a, b)] = val
        return val


# --- rules ----------------------------------------------------------------------

def _current(rs: RuleSet, a: GenSymbol, b: GenSymbol) -> LambdaPoly:
    """[J_a[n,m] Y_b[p,q]] = Y_[a,b][n+p, m+q], Y being J or I."""
    bid = (a.bidegree[0] + b.bidegree[0], a.bidegree[1] + b.bidegree[1])
    ws: Dict[Word, Scalar] = {}
    for k, c in rs.algebra.bracket_basis(a.label, b.label).items():
        ws[(GenSymbol(b.kind, k, bid, 0),)] = s_rational(c)
    return {0: ws} if ws else {}


def _zero_rule(rs: RuleSet, a: GenSymbol, b: GenSymbol) -> LambdaPoly:
    return {}


def je_rule_poly(rs: RuleSet, a: GenSymbol, b: GenSymbol) -> LambdaPoly:
    """[J_a[j1,j2] E[e1,e2]] = beta (e2 j1 - e1 j2)/(e1+e2) I_a[j1+e1-1, j2+e2-1]."""
    j1, j2 = a.bidegree
    e1, e2 = b.bidegree
    num = e2 * j1 - e1 * j2
    if num == 0:
        return {}
    n_out, m_out = j1 + e1 - 1, j2 + e2 - 1
    if n_out < 0 or m_out < 0:
        raise RuleIntegrityError(
            f"nonzero J-E coefficient on negative bidegree ({n_out},{m_out})")
    coeff = s_monomial(BETA, Fraction(num, e1 + e2))
    return {0: {(I(a.label, n_out, m_out),): coeff}}


def jf_rule_poly(rs: RuleSet, a: GenSymbol, b: GenSymbol) -> LambdaPoly:
    """[J_a[j1,j2] F[f1,f2]] = -beta (l + (j1+j2)/(f1+f2+2) (l+T)) I_a[j1+f1, j2+f2]."""
    j1, j2 = a.bidegree
    f1, f2 = b.bidegree
    k = Fraction(j1 + j2, f1 + f2 + 2)
    letter = I(a.label, j1 + f1, j2 + f2)
    out: LambdaPoly = {1: {(letter,): s_monomial(BETA, -(1 + k))}}
    if k:
        out[0] = {(letter.d(),): s_monomial(BETA, -k)}
    return out


def _dual_slots(L: LieAlgebra) -> Tuple[int, List[Tuple[Tuple[int, int], ...]]]:
    """(den, slots): slots[i] lists (j, den * pairing_inv[i][j]) over the
    only nonzero slots of row i, the Cartan block for a Cartan slot i and
    opposite[i] for a root vector; den is the lcm of their denominators.
    The finisher's _verify_inverse compared every entry of pairing_inv,
    zeros included."""
    rank, opposite, inv = L.rank, L.root_system.opposite, L.pairing_inv
    columns = []
    for i in range(L.dim):
        if i < rank:
            columns.append(range(rank))
        else:
            j = opposite[i]
            columns.append((j,))
    den = lcm(*(inv[i][j].denominator for i, js in enumerate(columns) for j in js))
    return den, [tuple((j, int(inv[i][j] * den)) for j in js if inv[i][j])
                 for i, js in enumerate(columns)]


def _quadratic_words(rs: RuleSet, kind_left: int, la: int, lb: int,
                     coeff: Scalar) -> Dict[Word, Scalar]:
    """coeff * sum_i X_[a,e_i][0,0] I_[b,e^i][0,0] over the concrete basis,
    X being J or I; I-I words are sorted (their bracket vanishes).

    The dual basis element e^i = sum_j pairing_inv[i][j] e_j is read at its
    only nonzero slots, over one denominator (rs.dual_slots), so each
    word's coefficient is summed in ints and divided once.  The sum runs
    over the row f[la] = ad(e_a), and [e_b, e^i] is read off the row f[lb]."""
    if not coeff:
        return {}
    row_a, row_b = rs.algebra.f[la], rs.algebra.f[lb]
    den, slots = rs.dual_slots
    empty: Dict[int, int] = {}
    # (k, l) -> den times the coefficient of the word in X_k and I_l
    acc: Dict[Tuple[int, int], int] = {}
    for i, left in row_a.items():
        # den [e_b, e^i] over the basis
        right: Dict[int, int] = {}
        for j, q in slots[i]:
            for k, c in row_b.get(j, empty).items():
                right[k] = right.get(k, 0) + q * c
        for k, ck in left.items():
            for l, cl in right.items():
                key = (l, k) if kind_left == KIND_I and l < k else (k, l)
                acc[key] = acc.get(key, 0) + ck * cl
    out: Dict[Word, Scalar] = {}
    for (k, l), v in acc.items():
        if v:
            word = (GenSymbol(kind_left, k, (0, 0), 0), GenSymbol(KIND_I, l, (0, 0), 0))
            q, r = divmod(v, den)
            out[word] = s_scale(coeff, Fraction(v, den) if r else q)
    return out


def _deformed_jj(rs: RuleSet, a: GenSymbol, b: GenSymbol) -> Optional[LambdaPoly]:
    """The J-J brackets at the deformed patterns, each the current bracket
    plus its correction; every other pattern is undefined.

      [J_a[1,0] J_b[0,1]]: - beta (a,b) (2 l E[1,1] + dE[1,1] + F[0,0])
                           + D (2 l + T) I_[a,b][0,0] + C quadratic words
      [J_a[n,m] J_b[0,0]], n + m <= 2: - beta (a,b) (n+m) (l+T) E[n,m]
    """
    L = rs.algebra
    la, lb = a.label, b.label
    pair = L.pairing[la][lb]
    if a.bidegree == (1, 0) and b.bidegree == (0, 1):
        out = _current(rs, a, b)
        if pair:
            coeff = s_monomial(BETA, -pair)
            lp_iadd(out, 1, {(E(1, 1),): s_scale(coeff, 2)})
            lp_iadd(out, 0, {(E(1, 1, 1),): coeff})
            lp_iadd(out, 0, {(F(0, 0),): coeff})
        d_sc = rs.d_const
        for k, c in L.bracket_basis(la, lb).items():
            lp_iadd(out, 1, {(I(k, 0, 0),): s_scale(d_sc, 2 * c)})
            lp_iadd(out, 0, {(I(k, 0, 0, 1),): s_scale(d_sc, c)})
        lp_iadd(out, 0, _quadratic_words(rs, KIND_J, la, lb, rs.c_const))
        lp_iadd(out, 0, _quadratic_words(rs, KIND_J, lb, la, rs.c_const))
        return out
    if b.bidegree == (0, 0) and sum(a.bidegree) <= 2:
        out = _current(rs, a, b)
        total = sum(a.bidegree)
        if total and pair:
            coeff = s_monomial(BETA, -total * pair)
            lp_iadd(out, 1, {(E(*a.bidegree),): coeff})
            lp_iadd(out, 0, {(E(*a.bidegree, 1),): coeff})
        return out
    return None


def _deformed_ji(rs: RuleSet, a: GenSymbol, b: GenSymbol) -> LambdaPoly:
    """The current J-I bracket, plus -C (quadratic I-I words) on
    [J_a[1,0] I_b[0,1]] and +C on [J_a[0,1] I_b[1,0]]."""
    out = _current(rs, a, b)
    sign = {((1, 0), (0, 1)): -1, ((0, 1), (1, 0)): 1}.get((a.bidegree, b.bidegree))
    if sign is None:
        return out
    lp_iadd(out, 0, _quadratic_words(rs, KIND_I, a.label, b.label,
                                     s_scale(rs.c_const, sign)))
    return out


# --- rule tables ------------------------------------------------------------------

def _extended_rules() -> Dict[Tuple[int, int], Rule]:
    # brackets among I, E, F all vanish (the pair (E, F) spans an abelian
    # algebra, and I couples to nothing but J)
    rules: Dict[Tuple[int, int], Rule] = {
        (ka, kb): _zero_rule for ka in ABELIAN_KINDS for kb in ABELIAN_KINDS}
    rules.update({
        (KIND_J, KIND_J): _current,
        (KIND_J, KIND_I): _current,
        (KIND_J, KIND_E): je_rule_poly,
        (KIND_J, KIND_F): jf_rule_poly,
    })
    return rules


def rules_extended(L: LieAlgebra) -> RuleSet:
    return _probed(RuleSet(L, _extended_rules()))


def rules_deformed(L: LieAlgebra, d_const: Optional[Scalar] = None,
                   c_const: Optional[Scalar] = None) -> RuleSet:
    """Deformed table over the Scalars d_const and c_const; None, the
    default, makes each a formal parameter.

    J-J brackets are defined only at the deformed patterns (and their skew
    images), so queries for any other J-J bidegree pattern raise
    UndefinedBracket.
    """
    rules = _extended_rules()
    rules.update({(KIND_J, KIND_J): _deformed_jj, (KIND_J, KIND_I): _deformed_ji})
    rs = RuleSet(L, rules)
    rs.d_const = s_monomial(DCOEF) if d_const is None else d_const
    rs.c_const = s_monomial(CCOEF) if c_const is None else c_const
    return _probed(rs)


def _probed(rs: RuleSet) -> RuleSet:
    """Construction-time guard: on a probe grid, every pair the table defines
    directly must decrease weight and, when the table also defines the
    reverse, equal the skew image of the reverse.  A pair with one slot in
    the abelian kinds must bracket into their span, and a pair with two
    must vanish."""
    # the grid-2 generators on the first three labels, and E and F
    gens = [g for g in grid_generators(rs.algebra, 2) if g.label < 3]
    direct = {}
    for a in gens:
        for b in gens:
            val = rs.direct(a, b)
            if val is not None:
                direct[a, b] = rs._remember(a, b, val)
    ideal = rs.abelian
    for (a, b), val in direct.items():
        reverse = direct.get((b, a))
        # the skew image of zero is zero
        if reverse is not None and (val or reverse) and (
                val != normal_order_poly(rs, skew(reverse))):
            raise RuleIntegrityError(
                f"skew inconsistency between [{a},{b}] and [{b},{a}]")
        inside = (a.kind in ideal) + (b.kind in ideal)
        if val and inside and (inside == 2 or any(
                g.kind not in ideal for ws in val.values() for word in ws for g in word)):
            span = ", ".join(KIND_LETTERS[k] for k in sorted(ideal))
            raise RuleIntegrityError(
                f"rule output {format_lambda_poly(val)} for [{a}, {b}] breaks "
                f"the abelian ideal span({span})")
    return rs


# --- Jacobi defects -------------------------------------------------------------

@dataclass
class JacobiDefect:
    triple: Tuple[GenSymbol, GenSymbol, GenSymbol]
    term1: LambdaMuPoly
    term2: LambdaMuPoly
    term3: LambdaMuPoly
    defect: LambdaMuPoly


def _apply_outer(rules, gen: GenSymbol, inner: LambdaPoly, transpose: bool,
                 acc: LambdaMuPoly, sign: int) -> None:
    """acc += sign * [gen_l inner] with the inner variable kept as mu.

    With transpose=True the roles are swapped: the inner carries lambda and
    the outer bracket contributes mu.
    """
    for j, ws in inner.items():
        for word, sc in ws.items():
            outer = bracket_words(rules, (gen,), word)
            for i, ws2 in outer.items():
                key = (j, i) if transpose else (i, j)
                lp_iadd(acc, key, ws2, s_scale(sc, sign) if sign != 1 else sc)


def _jacobi_terms(rules: RuleSet, a: GenSymbol, b: GenSymbol, c: GenSymbol,
                  acc1: LambdaMuPoly, acc2: LambdaMuPoly, acc3: LambdaMuPoly,
                  sign2: int, sign3: int) -> None:
    """acc1 += (1), acc2 += sign2 * (2), acc3 += sign3 * (3): the three terms
    (1) = [a_lambda [b_mu c]], (2) = [b_mu [a_lambda c]] and
    (3) = [[a_lambda b]_{lambda+mu} c] of the Jacobi identity of the triple.
    """
    try:
        _apply_outer(rules, a, bracket_words(rules, (b,), (c,)), False, acc1, 1)
        _apply_outer(rules, b, bracket_words(rules, (a,), (c,)), True, acc2, sign2)
        for k, ws in bracket_words(rules, (a,), (b,)).items():
            for word, sc in ws.items():
                outer = substitute_lambda_plus_mu(bracket_words(rules, word, (c,)))
                for (i, j), ws2 in outer.items():
                    lp_iadd(acc3, (i + k, j), ws2, s_scale(sc, sign3) if sign3 != 1 else sc)
    except UndefinedBracket as exc:
        raise exc.add_context(f"computing the Jacobi defect of ({a}, {b}, {c})")


def defect_poly(rules: RuleSet, a: GenSymbol, b: GenSymbol,
                c: GenSymbol) -> LambdaMuPoly:
    """(1) - (2) - (3) for the triple, as a polynomial in (lambda, mu)."""
    acc: LambdaMuPoly = {}
    _jacobi_terms(rules, a, b, c, acc, acc, acc, -1, -1)
    return acc


def jacobi_defect(rules: RuleSet, a: GenSymbol, b: GenSymbol,
                  c: GenSymbol) -> JacobiDefect:
    """The three Jacobi terms of the triple and their defect (1) - (2) - (3)."""
    t1: LambdaMuPoly = {}
    t2: LambdaMuPoly = {}
    t3: LambdaMuPoly = {}
    _jacobi_terms(rules, a, b, c, t1, t2, t3, 1, 1)
    defect: LambdaMuPoly = {}
    for term, sign in ((t1, 1), (t2, -1), (t3, -1)):
        for key, ws in term.items():
            lp_iadd(defect, key, ws, sign)
    return JacobiDefect((a, b, c), t1, t2, t3, defect)


# --- grid verification -----------------------------------------------------------

def grid_generators(L: LieAlgebra, grid_max: int) -> List[GenSymbol]:
    """All generators with bidegree entries <= grid_max over all basis labels.

    E excludes the normalized-away (0,0).
    """
    bids = [(n, m) for n in range(grid_max + 1) for m in range(grid_max + 1)]
    gens: List[GenSymbol] = []
    for la in range(L.dim):
        gens += [J(la, n, m) for n, m in bids]
    for la in range(L.dim):
        gens += [I(la, n, m) for n, m in bids]
    gens += [E(n, m) for n, m in bids if (n, m) != (0, 0)]
    gens += [F(n, m) for n, m in bids]
    return gens


# ordered triples of the full grid that every grid run recomputes
_SPOT_CHECKS = 1024
# nonzero defects after which a grid scan stops
_DEFECT_LIMIT = 3


def _seeded_triples(seed: str, n: int, count: int) -> List[Tuple[int, int, int]]:
    """min(count, n^3) distinct index triples of the n^3 grid, seeded by seed."""
    return [(idx // (n * n), idx // n % n, idx % n) for idx in
            random.Random(seed).sample(range(n ** 3), min(count, n ** 3))]


def _theta_labels(L: LieAlgebra) -> Tuple[int, int]:
    """(x_-theta, x_theta), theta the highest root."""
    rs = L.root_system
    top = rs.position[rs.highest_root]
    return rs.opposite[top], top


def _pattern(g: GenSymbol) -> GenSymbol:
    """The kind/bidegree pattern of g, as its label-0 copy (E and F keep
    their -1); patterns sort in grid order."""
    return g._replace(label=min(g.label, 0))


def _theta_centralizer(L: LieAlgebra) -> List[int]:
    """The basis labels z that kill x_-theta (x) x_theta, read off f:
    [z, x_-theta] (x) x_theta + x_-theta (x) [z, x_theta] = 0 holds iff both
    brackets vanish or [z, x_-theta] = lambda x_-theta and
    [z, x_theta] = -lambda x_theta.  On a Chevalley basis these are the
    Cartan slots and the root vectors orthogonal to theta; their span c is a
    subalgebra."""
    low, high = _theta_labels(L)
    out = []
    for z in range(L.dim):
        down, up = L.bracket_basis(z, low), L.bracket_basis(z, high)
        lam = down.get(low, 0)
        if down.keys() <= {low} and up == ({high: -lam} if lam else {}):
            out.append(z)
    return out


def _centralizer_generators(L: LieAlgebra) -> List[int]:
    """Basis labels S with U(c) span(S) = g, c the span of _theta_centralizer.

    An exact walk over f: labels are taken in basis order, and each one not
    yet reached joins S and is reached.  A basis element e_k is reached when
    [z, e_y] is a nonzero multiple of e_k for a c label z and a reached e_y,
    never as one term of a longer bracket; so the walk reaches only basis
    elements of U(c) span(S), and S generates g once every label is reached.
    Where c = h, as on A1 and A2, each basis element spans its own c-module
    and S is every label."""
    c = _theta_centralizer(L)
    reached: set = set()
    seeds: List[int] = []
    for label in range(L.dim):
        if label in reached:
            continue
        seeds.append(label)
        reached.add(label)
        todo = [label]
        while todo:
            y = todo.pop()
            for z in c:
                terms = list(L.bracket_basis(z, y))
                if len(terms) == 1 and terms[0] not in reached:
                    reached.add(terms[0])
                    todo.append(terms[0])
    return seeds


def _representatives(L: LieAlgebra, triple: Tuple[GenSymbol, ...],
                     labels: Sequence[int]) -> Iterator[Tuple[GenSymbol, ...]]:
    """The label triples that decide a pattern triple: its labelled (J, I)
    slots take x_-theta, then x_theta, then each of labels, in order;
    labels is _centralizer_generators(L).

    They decide every label when the defect is a g-equivariant map of the
    labels of those slots (E and F carry none), as it is for tables built
    from f, the pairing and its dual basis: its kernel K is then a
    g-submodule.  V (x) M = U(g)(v (x) M) when V = U(g) v, and
    g = U(g) x_-theta = U(b_-) x_theta, so with three labelled slots K is
    everything once it holds x_-theta (x) x_theta (x) g (the tensor identity
    for cyclic modules), and the same argument on fewer factors covers one
    or two labelled slots.  The third slot needs only labels: each z of the
    centralizer c kills x_-theta (x) x_theta, so
    z (x_-theta (x) x_theta (x) v) = x_-theta (x) x_theta (x) [z, v] and
    {v : x_-theta (x) x_theta (x) v in K} is a c-submodule of g; it holds
    labels, which generate g over c, so it is g.
    """
    choices = iter([(label,) for label in _theta_labels(L)] + [labels])
    slots = [[g._replace(label=label) for label in next(choices)] if g.label >= 0
             else [g] for g in triple]
    return product(*slots)


# the shortcuts that decide a pattern triple's other triples clean, and the
# S3 identities behind the sorted pattern triples
_ABELIAN_IDEAL = "abelian ideal"
_LABEL_REDUCTION = "label reduction"
_SORTED_PATTERNS = "sorted patterns"


def _scan_patterns(rules: RuleSet, gens: Sequence[GenSymbol], labels: Sequence[int]
                   ) -> Tuple[int, Dict[Tuple[GenSymbol, ...], Optional[str]], List[dict]]:
    """Decide every sorted pattern triple P <= Q <= R.

    A pattern triple with two or more slots in the abelian kinds is decided
    clean by the abelian-ideal lemma, uncomputed; every other one has its
    representatives over labels computed, and the scan of those stops at the
    _DEFECT_LIMIT-th nonzero defect.  Returns (computed, decided, failures):
    decided maps each pattern triple decided in full to the shortcut that
    leaves its triples clean, or to None when a representative had a
    nonzero defect.
    """
    failures: List[dict] = []
    triples = list(combinations_with_replacement(sorted(set(map(_pattern, gens))), 3))
    decided: Dict[Tuple[GenSymbol, ...], Optional[str]] = {
        t: _ABELIAN_IDEAL for t in triples if sum(g.kind in rules.abelian for g in t) >= 2}
    computed = 0
    for triple in triples:
        if triple in decided:
            continue
        clean = True
        for rep in _representatives(rules.algebra, triple, labels):
            computed += 1
            d = defect_poly(rules, *rep)
            if d:
                clean = False
                failures.append({"triple": [str(g) for g in rep],
                                 "defect": format_lambda_poly(d)})
                if len(failures) >= _DEFECT_LIMIT:
                    return computed, decided, failures
        decided[triple] = _LABEL_REDUCTION if clean else None
    return computed, decided, failures


def verify_jacobi_grid(L: LieAlgebra, grid_max: int, level: str = "extended",
                       jobs: int = 1) -> Report:
    """Zero Jacobi defect for every generator triple on the bidegree grid.

    The scan decides the sorted kind/bidegree pattern triples P <= Q <= R
    only.  Skew-symmetry and sesquilinearity give, for every label, the swap
    identity defect(b, a, c)(lambda, mu) = -defect(a, b, c)(mu, lambda) and
    the b <-> c identity defect(a, c, b)(lambda, mu) =
    -defect(a, b, c)(lambda, -lambda - mu - T), and the two transpositions
    generate S3.  A pattern triple with two slots in the abelian ideal A,
    the span of I, E and F, is decided by the abelian-ideal lemma,
    uncomputed: each of its three Jacobi terms brackets two elements of A,
    or an element of A with a bracket that lies in A, so its defect is zero.
    A is declared with the table's zero block, and the table checks the
    lemma's premises on a probe grid when it is built.  Every other pattern
    triple is decided by its _representatives, whose docstring gives the
    label reduction.  So only the pattern triples with two or three J slots
    are computed.

    Every run recomputes the seeded ordered triples of _seeded_triples,
    min(_SPOT_CHECKS, n^3) of the full grid, whose sorted pattern triple the
    scan decided clean; each must vanish.  A nonzero one fails the shortcut
    it rests on: `abelian ideal` in a pattern triple the lemma decided;
    otherwise `sorted patterns` when it is out of pattern order and its
    pattern-ordered permutation vanishes, and `label reduction` when not.
    A failed shortcut is listed before any nonzero defect.  The details
    count the triples covered (n^3 after a full scan), the triples computed
    by the scan and the samples spot-checked, and `abelian_ideal` counts the
    pattern triples the lemma decided, the triples they cover and the
    samples that fell in them.  The level is "extended", grid_max is at
    least 0, and jobs is 1 (level and jobs are kept only for the benchmark's
    level="extended", jobs=1 call); anything else raises ValueError before
    any work.
    """
    # the deformed table is partial by design (J-J brackets only at the
    # deformed patterns), so no grid beyond grid 0 could run on it
    if level != "extended":
        raise ValueError(f"the Jacobi grid verifies the extended table only, "
                         f"not {level!r}")
    if grid_max < 0:
        raise ValueError(f"the Jacobi grid needs grid_max >= 0, not {grid_max}")
    if jobs != 1:
        raise ValueError(f"the Jacobi grid runs serially, so jobs must be 1, "
                         f"not {jobs}")
    gens = grid_generators(L, grid_max)
    n = len(gens)
    rules = rules_extended(L)
    computed, decided, failures = _scan_patterns(rules, gens, _centralizer_generators(L))
    full_scan = len(failures) < _DEFECT_LIMIT
    patterns = [_pattern(g) for g in gens]
    checked = in_ideal = 0
    for draw in _seeded_triples(f"jacobi-spot:{L.name}:{level}:{grid_max}", n,
                                _SPOT_CHECKS):
        shortcut = decided.get(tuple(sorted(patterns[i] for i in draw)))
        if not shortcut:
            continue
        checked += 1
        in_ideal += shortcut == _ABELIAN_IDEAL
        triple = tuple(gens[i] for i in draw)
        d = defect_poly(rules, *triple)
        if not d:
            continue
        if shortcut == _LABEL_REDUCTION:
            # the pattern-ordered permutation has the same labels, so only
            # the S3 identities stand between it and the triple
            ordered = tuple(sorted(triple, key=_pattern))
            if ordered != triple and not defect_poly(rules, *ordered):
                shortcut = _SORTED_PATTERNS
        failures.append({"triple": [str(g) for g in triple],
                         "defect": format_lambda_poly(d),
                         "shortcut": shortcut, "inferred": "0"})

    def cover(t: Tuple[GenSymbol, ...]) -> int:
        # the ordered triples of a pattern triple's 1, 3 or 6 orderings, all labels
        return (1, 3, 6)[len(set(t)) - 1] * L.dim ** sum(g.label >= 0 for g in t)

    lemma = [t for t, shortcut in decided.items() if shortcut == _ABELIAN_IDEAL]
    ideal = {"patterns": len(lemma), "triples": sum(map(cover, lemma)),
             "spot_checked": in_ideal}
    covered = sum(cover(t) for t, shortcut in decided.items()
                  if shortcut != _ABELIAN_IDEAL) + ideal["triples"]
    if full_scan and covered != n ** 3:
        raise InternalConsistencyError(
            f"the grid-{grid_max} scan of {L.name} covers {covered} triples, "
            f"not {n}^3: the computed and inferred parts do not add up")
    failures.sort(key=lambda f: "shortcut" not in f)
    return Report(check="jacobi_grid", algebra=L.name, passed=not failures,
                  first_counterexample=failures[0] if failures else None,
                  details={"level": level, "grid_max": grid_max,
                           "generators": n, "triples": covered,
                           "computed": computed, "spot_checked": checked,
                           "abelian_ideal": ideal})


# --- constant solving -------------------------------------------------------------

@dataclass
class ConstantSolution:
    status: str  # unique | trivial_only | inconsistent
    d_over_beta2: Optional[Fraction] = None
    c_over_beta2: Optional[Fraction] = None
    rows: int = 0
    triples: int = 0
    computed: int = 0
    spot_checked: int = 0

    def to_dict(self) -> dict:
        out = {"status": self.status, "rows": self.rows, "triples": self.triples,
               "computed": self.computed, "spot_checked": self.spot_checked}
        if self.status == "unique":
            out["D_over_beta2"] = str(self.d_over_beta2)
            out["C_over_beta2"] = str(self.c_over_beta2)
        return out


def _defect_rows(rules: RuleSet, triple: Tuple[GenSymbol, ...],
                 columns: Sequence[Exponent]) -> List[Tuple[Fraction, ...]]:
    """Linear constraints over the unknowns `columns` from one triple's defect."""
    rows = []
    for ws in defect_poly(rules, *triple).values():
        for sc in ws.values():
            row = [Fraction(0)] * len(columns)
            for exp, coeff in sc.items():
                if exp not in columns:
                    span = ", ".join(s_format(s_monomial(e)) for e in columns)
                    raise ModelError(f"defect coefficient {exp} outside span({span}) "
                                     f"on triple ({', '.join(map(str, triple))})")
                row[columns.index(exp)] += coeff
            if any(row):
                rows.append(tuple(row))
    return rows


def _solve_rows(rows, k: int) -> Tuple[str, Optional[Tuple[Fraction, ...]],
                                       List[List[Fraction]]]:
    """(status, solution, basis) of the rows over k unknowns, beta^2 first,
    from the free columns of one exact echelon form: none is trivial_only;
    one whose null vector v has v[0] != 0 is unique, solution v[1:] / v[0];
    anything else is inconsistent.  basis is the nonzero reduced rows."""
    mat, pivots = row_reduce(sorted(rows), k)
    basis = mat[:len(pivots)]
    free = [col for col in range(k) if col not in pivots]
    if len(free) == 1:
        # 1 at the free column, minus that column of each pivot row at its pivot
        v = [Fraction(col == free[0]) for col in range(k)]
        for row, col in zip(basis, pivots):
            v[col] = -row[free[0]]
        if v[0]:
            return "unique", tuple(x / v[0] for x in v[1:]), basis
    return "inconsistent" if free else "trivial_only", None, basis


# seeded basis triples each solve recomputes beside the reduced ones
_SPAN_CHECKS = 64


def solve_constants(L: LieAlgebra, master_seed=0) -> ConstantSolution:
    """Extract (D, C) as exact multiples of beta^2 from the defect system.

    One row reduction over beta^2 and the table's formal constants gives the
    status, the solution and the span-check basis.  The rows come from the
    _representatives of (J[1,0], J[0,1], J[0,0]), the label triples
    (x_-theta, x_theta, e_k) with theta the highest root and e_k over the
    labels S of _centralizer_generators, and have the null space of all
    dim^3 triples: at fixed (beta^2, D, C) the defect is a g-equivariant
    map on g (x) g (x) g, its kernel K is a g-submodule, and the
    _representatives docstring gives the lemma.  Its last step is the
    c-lemma: the centralizer c kills x_-theta (x) x_theta, so
    {v : x_-theta (x) x_theta (x) v in K} is a c-submodule of g, and S
    generates g over c.  A trivial_only answer needs no lemma: more rows
    cannot lower the rank.

    The lemma rests on the tables being equivariant, so every solve
    recomputes min(_SPAN_CHECKS, dim^3) distinct triples drawn from
    master_seed over the full label cube; a row of theirs outside the span
    of the reduced rows raises InternalConsistencyError naming the triple.
    As in the grid's ledger, `triples` counts the dim^3 triples covered,
    `computed` the |S| reduced triples evaluated, `spot_checked` the span
    checks and `rows` the distinct rows of the reduced triples.
    """
    rules = rules_deformed(L)
    n = L.dim
    pattern = (J(0, 1, 0), J(0, 0, 1), J(0, 0, 0))
    columns = ((2, 0, 0), *rules.d_const, *rules.c_const)
    reps = list(_representatives(L, pattern, _centralizer_generators(L)))
    rows = {row for rep in reps for row in _defect_rows(rules, rep, columns)}
    status, solution, basis = _solve_rows(rows, len(columns))
    # reduced rows by pivot (first nonzero column); a row is in their span iff
    # subtracting row[pivot] times each leaves zero
    pivoted = [(next(col for col, x in enumerate(b) if x), b) for b in basis]
    spot = _seeded_triples(f"{master_seed}:solve:{L.name}", n, _SPAN_CHECKS)
    for labels in spot:
        triple = tuple(g._replace(label=label) for g, label in zip(pattern, labels))
        for row in _defect_rows(rules, triple, columns):
            for col, b in pivoted:
                c = row[col]
                if c:
                    row = [x - c * y for x, y in zip(row, b)]
            if any(row):
                raise InternalConsistencyError(
                    f"triple ({', '.join(map(str, triple))}) of "
                    f"{L.name} has a defect row outside the span of the "
                    f"(x_-theta, x_theta, e_k) rows: the rule tables are not "
                    f"g-equivariant")
    d, c = solution or (None, None)
    return ConstantSolution(status, d, c, rows=len(rows), triples=n ** 3,
                            computed=len(reps), spot_checked=len(spot))


def matches_closed_form(L: LieAlgebra, sol: ConstantSolution) -> bool:
    """A unique solution equal to the closed form on an admissible type;
    trivial_only otherwise."""
    if (L.series, L.rank) in ADMISSIBLE_TYPES:
        if sol.status != "unique":
            return False
        d, c = closed_form_fractions(L)
        return sol.d_over_beta2 == d and sol.c_over_beta2 == c
    return sol.status == "trivial_only"


def closed_form_fractions(L: LieAlgebra) -> Tuple[Fraction, Fraction]:
    """(D, C) / beta^2 in closed form for admissible algebras."""
    if (L.series, L.rank) not in ADMISSIBLE_TYPES:
        raise DomainError(f"{L.name} admits no nonzero deformation constants")
    h = L.h_dual_coxeter
    dim = L.dim
    return (Fraction(-(2 + dim), 20 * h), Fraction(3 * (2 + dim), 20 * h * h))


def closed_form_constants(L: LieAlgebra) -> Tuple[Scalar, Scalar]:
    """(D, C) as Scalars in the formal beta."""
    d, c = closed_form_fractions(L)
    return s_monomial((2, 0, 0), d), s_monomial((2, 0, 0), c)
