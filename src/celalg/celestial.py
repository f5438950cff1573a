"""Bracket rule tables of the celestial current algebras and their checks.

Three nested levels of rule tables over a simple Lie algebra g:

  * base:      the current brackets [J,J] -> J, [J,I] -> I, [I,I] = 0.
  * extended:  base plus the abelian pair E, F coupled to J with
               bidegree-dependent coefficients proportional to beta.
  * deformed:  the finite deformation with constants D and C on the
               low-bidegree generators; quadratic terms are expanded over a
               concrete dual basis of g.  J-J brackets exist only at the
               deformed patterns; any other J-J pattern raises
               UndefinedBracket.  J-I falls back to the current bracket on
               every pattern except the two with +-C quadratic words,
               [J[1,0] I[0,1]] and [J[0,1] I[1,0]].

Each level is one dict from a generator kind pair to its rule; a pair the
table leaves out is the skew image of its reverse.  On top of the tables:
the Jacobi defect (1) - (2) - (3) of a generator triple, a grid verifier
asserting zero defect at the base and extended levels, and the exact
linear solver that extracts the unique (D, C) as multiples of beta^2 from
the defect of the (J[1,0], J[0,1], J[0,0]) triples, when a nonzero
solution exists.  The solver decides the Jacobi identity of the deformed
table on those triples only; other triples, J-J-I ones among them, keep
nonzero defects that no check here looks at.

The solver computes the dim label triples (x_-theta, x_theta, e_k) only;
the g-equivariance of the defect makes their rows span those of all dim^3
triples (see solve_constants), and every solve recomputes a seeded sample
of other triples to check that premise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
    InternalConsistencyError,
    LambdaPoly,
    UndefinedBracket,
    Word,
    bracket_words,
    format_lambda_poly,
    lp_cleanup,
    lp_equal,
    lp_iadd,
    normal_order_poly,
    skew,
    substitute_lambda_plus_mu,
    t_power,
    weight,
    ws_iadd,
)
from .liealg import LieAlgebra, row_reduce
from .report import Report
from .scalar import (
    BETA,
    CCOEF,
    DCOEF,
    Scalar,
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

# rule(rs, a, b): the bracket [a b] of one kind pair, or None where the level
# leaves the bidegree pattern undefined
Rule = Callable[["RuleSet", GenSymbol, GenSymbol], Optional[LambdaPoly]]


class RuleSet:
    """Immutable-after-construction bracket table with skew fallback.

    `rules` maps a kind pair (a.kind, b.kind) to its rule.  A pair without a
    value of its own retries the reversed pair and returns the skew image.
    Values are memoized and are checked on first build to strictly decrease
    total weight, the guarantee the reordering algorithm depends on.
    """

    def __init__(self, algebra: LieAlgebra, beta: Optional[Fraction],
                 rules: Dict[Tuple[int, int], Rule]):
        self.algebra = algebra
        self.beta = s_monomial(BETA) if beta is None else s_rational(beta)
        self.rules = rules
        self.base_memo: Dict[Tuple[GenSymbol, GenSymbol], LambdaPoly] = {}
        self.full_memo: Dict[Tuple[GenSymbol, GenSymbol], LambdaPoly] = {}
        self._dual_brackets: Optional[List[List[Dict[int, Fraction]]]] = None
        self.d_const: Scalar = {}
        self.c_const: Scalar = {}

    def dual_brackets(self) -> List[List[Dict[int, Fraction]]]:
        """table[x][i] = coefficients of [e_x, e^i] over the basis."""
        if self._dual_brackets is None:
            L = self.algebra
            n = L.dim
            table: List[List[Dict[int, Fraction]]] = []
            for x in range(n):
                row = []
                for i in range(n):
                    acc: Dict[int, Fraction] = {}
                    for l, kil in enumerate(L.pairing_inv[i]):
                        if kil:
                            for k, c in L.bracket_basis(x, l).items():
                                v = acc.get(k, 0) + kil * c
                                if v:
                                    acc[k] = v
                                else:
                                    acc.pop(k, None)
                    row.append(acc)
                table.append(row)
            self._dual_brackets = table
        return self._dual_brackets

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
    return {(0, 0): ws} if ws else {}


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
    coeff = s_scale(rs.beta, Fraction(num, e1 + e2))
    return {(0, 0): {(I(a.label, n_out, m_out),): coeff}}


def jf_rule_poly(rs: RuleSet, a: GenSymbol, b: GenSymbol) -> LambdaPoly:
    """[J_a[j1,j2] F[f1,f2]] = -beta (l + (j1+j2)/(f1+f2+2) (l+T)) I_a[j1+f1, j2+f2]."""
    j1, j2 = a.bidegree
    f1, f2 = b.bidegree
    k = Fraction(j1 + j2, f1 + f2 + 2)
    letter = I(a.label, j1 + f1, j2 + f2)
    out: LambdaPoly = {(1, 0): {(letter,): s_scale(rs.beta, -(1 + k))}}
    if k:
        out[(0, 0)] = {(letter.d(),): s_scale(rs.beta, -k)}
    return out


def _quadratic_words(rs: RuleSet, kind_left: int, la: int, lb: int,
                     coeff: Scalar) -> Dict[Word, Scalar]:
    """coeff * sum_i X_[a,e_i][0,0] I_[b,e^i][0,0] over the concrete basis,
    X being J or I; I-I words are sorted (their bracket vanishes)."""
    L = rs.algebra
    db = rs.dual_brackets()
    out: Dict[Word, Scalar] = {}
    for i in range(L.dim):
        left = L.bracket_basis(la, i)
        if not left:
            continue
        right = db[lb][i]
        if not right:
            continue
        for k, ck in left.items():
            gk = GenSymbol(kind_left, k, (0, 0), 0)
            for l, cl in right.items():
                gl = GenSymbol(KIND_I, l, (0, 0), 0)
                word = (gk, gl) if gk <= gl else (gl, gk)
                ws_iadd(out, word, s_scale(coeff, ck * cl))
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
            coeff = s_scale(rs.beta, -pair)
            lp_iadd(out, (1, 0), {(E(1, 1),): s_scale(coeff, 2)})
            lp_iadd(out, (0, 0), {(E(1, 1, 1),): coeff})
            lp_iadd(out, (0, 0), {(F(0, 0),): coeff})
        d_sc = rs.d_const
        for k, c in L.bracket_basis(la, lb).items():
            lp_iadd(out, (1, 0), {(I(k, 0, 0),): s_scale(d_sc, 2 * c)})
            lp_iadd(out, (0, 0), {(I(k, 0, 0, 1),): s_scale(d_sc, c)})
        lp_iadd(out, (0, 0), _quadratic_words(rs, KIND_J, la, lb, rs.c_const))
        lp_iadd(out, (0, 0), _quadratic_words(rs, KIND_J, lb, la, rs.c_const))
        return lp_cleanup(out)
    if b.bidegree == (0, 0) and sum(a.bidegree) <= 2:
        out = _current(rs, a, b)
        total = sum(a.bidegree)
        if total and pair:
            coeff = s_scale(rs.beta, -total * pair)
            lp_iadd(out, (1, 0), {(E(*a.bidegree),): coeff})
            lp_iadd(out, (0, 0), {(E(*a.bidegree, 1),): coeff})
        return out
    return None


def _deformed_ji(rs: RuleSet, a: GenSymbol, b: GenSymbol) -> LambdaPoly:
    """The current J-I bracket, plus -C (quadratic I-I words) on
    [J_a[1,0] I_b[0,1]] and +C on [J_a[0,1] I_b[1,0]]."""
    out = _current(rs, a, b)
    sign = {((1, 0), (0, 1)): -1, ((0, 1), (1, 0)): 1}.get((a.bidegree, b.bidegree))
    if sign is None:
        return out
    lp_iadd(out, (0, 0), _quadratic_words(rs, KIND_I, a.label, b.label,
                                          s_scale(rs.c_const, sign)))
    return lp_cleanup(out)


# --- rule tables ------------------------------------------------------------------

def rules_base(L: LieAlgebra) -> RuleSet:
    return _probed(RuleSet(L, None, {
        (KIND_J, KIND_J): _current,
        (KIND_J, KIND_I): _current,
        (KIND_I, KIND_I): _zero_rule,
    }))


def _extended_rules() -> Dict[Tuple[int, int], Rule]:
    # brackets among I, E, F all vanish (the pair (E, F) spans an abelian
    # algebra, and I couples to nothing but J)
    zero_kinds = (KIND_I, KIND_E, KIND_F)
    rules: Dict[Tuple[int, int], Rule] = {
        (ka, kb): _zero_rule for ka in zero_kinds for kb in zero_kinds}
    rules.update({
        (KIND_J, KIND_J): _current,
        (KIND_J, KIND_I): _current,
        (KIND_J, KIND_E): je_rule_poly,
        (KIND_J, KIND_F): jf_rule_poly,
    })
    return rules


def rules_extended(L: LieAlgebra, beta: Optional[Fraction] = None) -> RuleSet:
    return _probed(RuleSet(L, beta, _extended_rules()))


def _as_scalar(value, formal_exp) -> Scalar:
    if value is None:
        return s_monomial(formal_exp)
    if isinstance(value, dict):
        return value
    return s_rational(Fraction(value))


def rules_deformed(L: LieAlgebra, beta: Optional[Fraction] = None,
                   d_const=None, c_const=None) -> RuleSet:
    """Deformed table; d_const and c_const default to formal parameters.

    J-J brackets are defined only at the deformed patterns (and their skew
    images), so queries for any other J-J bidegree pattern raise
    UndefinedBracket.
    """
    rules = _extended_rules()
    rules.update({(KIND_J, KIND_J): _deformed_jj, (KIND_J, KIND_I): _deformed_ji})
    rs = RuleSet(L, beta, rules)
    rs.d_const = _as_scalar(d_const, DCOEF)
    rs.c_const = _as_scalar(c_const, CCOEF)
    return _probed(rs)


def _probed(rs: RuleSet) -> RuleSet:
    """Construction-time guard: on a probe grid, every pair the table defines
    directly must decrease weight and, when the table also defines the
    reverse, equal the skew image of the reverse."""
    # the grid-2 generators on the first three labels, and E and F
    gens = [g for g in grid_generators(rs.algebra, 2) if g.label < 3]
    direct = {}
    for a in gens:
        for b in gens:
            val = rs.direct(a, b)
            if val is not None:
                direct[a, b] = rs._remember(a, b, val)
    for (a, b), val in direct.items():
        reverse = direct.get((b, a))
        if reverse is not None and not lp_equal(
                val, normal_order_poly(rs, skew(reverse))):
            raise RuleIntegrityError(
                f"skew inconsistency between [{a},{b}] and [{b},{a}]")
    return rs


# --- Jacobi defects -------------------------------------------------------------

@dataclass
class JacobiDefect:
    triple: Tuple[GenSymbol, GenSymbol, GenSymbol]
    term1: LambdaPoly
    term2: LambdaPoly
    term3: LambdaPoly
    defect: LambdaPoly


def _apply_outer(rules, gen: GenSymbol, inner: LambdaPoly, transpose: bool,
                 acc: LambdaPoly, sign: int) -> None:
    """acc += sign * [gen_l inner] with the inner variable kept as mu.

    With transpose=True the roles are swapped: the inner carries lambda and
    the outer bracket contributes mu.
    """
    for (j, _), ws in inner.items():
        for word, sc in ws.items():
            outer = bracket_words(rules, (gen,), word)
            for (i, _), ws2 in outer.items():
                key = (j, i) if transpose else (i, j)
                lp_iadd(acc, key, ws2, s_scale(sc, sign) if sign != 1 else sc)


def _jacobi_terms(rules: RuleSet, a: GenSymbol, b: GenSymbol, c: GenSymbol,
                  acc1: LambdaPoly, acc2: LambdaPoly, acc3: LambdaPoly,
                  sign2: int, sign3: int) -> None:
    """acc1 += (1), acc2 += sign2 * (2), acc3 += sign3 * (3): the three terms
    (1) = [a_lambda [b_mu c]], (2) = [b_mu [a_lambda c]] and
    (3) = [[a_lambda b]_{lambda+mu} c] of the Jacobi identity of the triple.
    """
    try:
        _apply_outer(rules, a, bracket_words(rules, (b,), (c,)), False, acc1, 1)
        _apply_outer(rules, b, bracket_words(rules, (a,), (c,)), True, acc2, sign2)
        for (k, _), ws in bracket_words(rules, (a,), (b,)).items():
            for word, sc in ws.items():
                outer = substitute_lambda_plus_mu(bracket_words(rules, word, (c,)))
                for (i, j), ws2 in outer.items():
                    lp_iadd(acc3, (i + k, j), ws2, s_scale(sc, sign3) if sign3 != 1 else sc)
    except UndefinedBracket as exc:
        raise exc.add_context(f"computing the Jacobi defect of ({a}, {b}, {c})")


def defect_poly(rules: RuleSet, a: GenSymbol, b: GenSymbol,
                c: GenSymbol) -> LambdaPoly:
    """(1) - (2) - (3) for the triple, as a polynomial in (lambda, mu)."""
    acc: LambdaPoly = {}
    _jacobi_terms(rules, a, b, c, acc, acc, acc, -1, -1)
    return lp_cleanup(acc)


def jacobi_defect(rules: RuleSet, a: GenSymbol, b: GenSymbol,
                  c: GenSymbol) -> JacobiDefect:
    """The three Jacobi terms of the triple and their defect (1) - (2) - (3)."""
    t1: LambdaPoly = {}
    t2: LambdaPoly = {}
    t3: LambdaPoly = {}
    _jacobi_terms(rules, a, b, c, t1, t2, t3, 1, 1)
    defect: LambdaPoly = {}
    for term, sign in ((t1, 1), (t2, -1), (t3, -1)):
        for key, ws in term.items():
            lp_iadd(defect, key, ws, sign)
    return JacobiDefect((a, b, c), lp_cleanup(t1), lp_cleanup(t2),
                        lp_cleanup(t3), lp_cleanup(defect))


# --- grid verification -----------------------------------------------------------

def grid_generators(L: LieAlgebra, grid_max: int,
                    with_ef: bool = True) -> List[GenSymbol]:
    """All generators with bidegree entries <= grid_max over all basis labels.

    E excludes the normalized-away (0,0); the E/F family is dropped for the
    base-level table, which only knows J and I.
    """
    bids = [(n, m) for n in range(grid_max + 1) for m in range(grid_max + 1)]
    gens: List[GenSymbol] = []
    for la in range(L.dim):
        gens += [J(la, n, m) for n, m in bids]
    for la in range(L.dim):
        gens += [I(la, n, m) for n, m in bids]
    if with_ef:
        gens += [E(n, m) for n, m in bids if (n, m) != (0, 0)]
        gens += [F(n, m) for n, m in bids]
    return gens


# sampled triples whose shortcuts every grid run recomputes directly
_SPOT_CHECKS = 512
# nonzero defects after which a grid scan stops
_DEFECT_LIMIT = 3


def _swap_lambda_mu(p: LambdaPoly) -> LambdaPoly:
    """-p(mu, lambda).  Skew-symmetry and sesquilinearity give the swap
    identity defect(b, a, c)(lambda, mu) = -defect(a, b, c)(mu, lambda)."""
    return {(j, i): {w: s_scale(sc, -1) for w, sc in ws.items()}
            for (i, j), ws in p.items()}


def _swap_mu_nu(rules: RuleSet, p: LambdaPoly) -> LambdaPoly:
    """-p(lambda, nu), normal ordered, with nu = -lambda - mu - T.  The same
    two axioms give the b <-> c identity (an involution)
    defect(a, c, b)(lambda, mu) = -defect(a, b, c)(lambda, nu)."""
    out: LambdaPoly = {}
    for (i, j), ws in p.items():
        # (-lambda - mu - T)^j, multinomially, with T on the words
        for r in range(j + 1):
            words = t_power(ws, r)
            for q in range(j - r + 1):
                lp_iadd(out, (i + j - r - q, q), words,
                        (-1) ** (j + 1) * comb(j, r) * comb(j - r, q))
    return normal_order_poly(rules, out)


def _spot_sample(L: LieAlgebra, level: str, grid_max: int,
                 n: int) -> Set[Tuple[int, int, int]]:
    """Seeded sorted index triples ia <= ib <= ic, drawn from the n^3 grid."""
    rng = random.Random(f"jacobi-spot:{L.name}:{level}:{grid_max}")
    return {tuple(sorted((idx // (n * n), idx // n % n, idx % n)))
            for idx in rng.sample(range(n ** 3), min(_SPOT_CHECKS, n ** 3))}


def _spot_check(rules: RuleSet, a: GenSymbol, b: GenSymbol, c: GenSymbol,
                d: LambdaPoly) -> Optional[dict]:
    """Compute the two transposed images of the sorted triple (a, b, c)
    directly and compare them with the images inferred from its defect d;
    None when both identities hold.  An image that is the triple itself
    (a == b, or b == c) is d, which the scan has just computed."""
    for shortcut, image, inferred in (
            ("swap identity", (b, a, c), _swap_lambda_mu(d)),
            ("b<->c identity", (a, c, b), _swap_mu_nu(rules, d))):
        direct = d if image == (a, b, c) else defect_poly(rules, *image)
        if not lp_equal(direct, inferred):
            return {"triple": [str(g) for g in image],
                    "defect": format_lambda_poly(direct),
                    "shortcut": shortcut,
                    "inferred": format_lambda_poly(inferred)}
    return None


def _scan_triples(rules: RuleSet, gens: Sequence[GenSymbol], rows: range,
                  samples: Set[Tuple[int, int, int]]
                  ) -> Tuple[int, int, int, List[dict]]:
    """Decide every triple whose smallest index lies in rows, with all its
    permutations.

    Only sorted triples index(a) <= index(b) <= index(c) are computed.  The
    swap identity (a <-> b) and the b <-> c identity generate all of S3, so
    each permutation vanishes exactly when its sorted triple does.  A sampled
    triple checks both identities on its defect as soon as it is computed.
    Returns (covered, computed, spot_checked, failures); the scan stops at
    the _DEFECT_LIMIT-th nonzero defect.
    """
    n = len(gens)
    failures: List[dict] = []
    found = covered = computed = spot_checked = 0
    for ia in rows:
        a = gens[ia]
        for ib in range(ia, n):
            b = gens[ib]
            for ic, c in enumerate(gens[ib:], ib):
                computed += 1
                d = defect_poly(rules, a, b, c)
                if (ia, ib, ic) in samples:
                    spot_checked += 1
                    fail = _spot_check(rules, a, b, c, d)
                    if fail is not None:
                        failures.append(fail)
                if d:
                    failures.append({"triple": [str(a), str(b), str(c)],
                                     "defect": format_lambda_poly(d)})
                    found += 1
                    if found >= _DEFECT_LIMIT:
                        return covered, computed, spot_checked, failures
        # the ordered triples whose smallest index is ia
        covered += (n - ia) ** 3 - (n - ia - 1) ** 3
    return covered, computed, spot_checked, failures


_WORKER = {}


def _grid_worker_init(L: LieAlgebra, level: str, gens: List[GenSymbol],
                      samples: Set[Tuple[int, int, int]]):
    _WORKER.update(rules=_grid_rules(L, level), gens=gens, samples=samples)


def _grid_worker_run(rows: range) -> Tuple[int, int, int, List[dict]]:
    return _scan_triples(_WORKER["rules"], _WORKER["gens"], rows, _WORKER["samples"])


# the deformed table is partial by design (J-J brackets only at the deformed
# patterns), so no grid beyond grid 0 could run on it
_GRID_LEVELS = ("base", "extended")


def _grid_rules(L: LieAlgebra, level: str) -> RuleSet:
    return rules_base(L) if level == "base" else rules_extended(L)


def verify_jacobi_grid(L: LieAlgebra, grid_max: int, level: str = "extended",
                       jobs: int = 1) -> Report:
    """Zero Jacobi defect for every generator triple on the bidegree grid.

    Triples where two or three slots lie in the abelian sector are included;
    their defects are trivially zero and serve as plumbing checks.  The
    details count the triples covered (all n^3), the sorted triples whose
    defects the scan computed (n(n+1)(n+2)/6; the other permutations follow
    by the two identities of _scan_triples) and the sampled sorted triples
    the scan reached, whose two transposed images it computed directly; an
    identity that fails on a sample is listed before any nonzero defect.
    With jobs > 1 the rows are dealt round-robin to a pool of workers, each
    scanning rule tables built from L itself.  The level is "base" or
    "extended", and grid_max is at least 0; anything else raises ValueError.
    """
    if level not in _GRID_LEVELS:
        raise ValueError(f"the Jacobi grid verifies the levels "
                         f"{', '.join(_GRID_LEVELS)}, not {level!r}")
    if grid_max < 0:
        raise ValueError(f"the Jacobi grid needs grid_max >= 0, not {grid_max}")
    gens = grid_generators(L, grid_max, with_ef=level != "base")
    n = len(gens)
    samples = _spot_sample(L, level, grid_max, n)
    if jobs > 1:
        import concurrent.futures as cf
        # rows dealt round-robin, so every chunk holds long and short rows
        chunks = [range(k, n, 4 * jobs) for k in range(4 * jobs)]
        with cf.ProcessPoolExecutor(
                max_workers=jobs, initializer=_grid_worker_init,
                initargs=(L, level, gens, samples)) as ex:
            parts = list(ex.map(_grid_worker_run, chunks))
    else:
        parts = [_scan_triples(_grid_rules(L, level), gens, range(n), samples)]
    covered, computed, spot_checked = (sum(p[k] for p in parts) for k in range(3))
    failures = sorted((f for p in parts for f in p[3]),
                      key=lambda f: "shortcut" not in f)
    return Report(check="jacobi_grid", algebra=L.name, passed=not failures,
                  first_counterexample=failures[0] if failures else None,
                  details={"level": level, "grid_max": grid_max,
                           "generators": n, "triples": covered,
                           "computed": computed, "spot_checked": spot_checked})


# --- constant solving -------------------------------------------------------------

_DEFECT_SPAN = {(2, 0, 0): 0, DCOEF: 1, CCOEF: 2}


@dataclass
class ConstantSolution:
    status: str  # unique | trivial_only | inconsistent
    d_over_beta2: Optional[Fraction] = None
    c_over_beta2: Optional[Fraction] = None
    rows: int = 0
    triples: int = 0
    computed: int = 0

    def to_dict(self) -> dict:
        out = {"status": self.status, "rows": self.rows, "triples": self.triples,
               # no solve samples; the key keeps the document's shape
               "computed": self.computed, "sampled": False}
        if self.status == "unique":
            out["D_over_beta2"] = str(self.d_over_beta2)
            out["C_over_beta2"] = str(self.c_over_beta2)
        return out


def _defect_rows(rules: RuleSet, la: int, lb: int, lc: int) -> List[Tuple]:
    """Linear constraints over (beta^2, D, C) from one label triple."""
    d = defect_poly(rules, J(la, 1, 0), J(lb, 0, 1), J(lc, 0, 0))
    rows = []
    for ws in d.values():
        for word, sc in ws.items():
            row = [Fraction(0)] * 3
            for exp, coeff in sc.items():
                slot = _DEFECT_SPAN.get(exp)
                if slot is None:
                    raise ModelError(
                        f"defect coefficient {exp} outside span(beta^2, D, C) "
                        f"on triple ({la},{lb},{lc})")
                row[slot] += coeff
            if any(row):
                rows.append(tuple(row))
    return rows


def _solve_rows(rows) -> ConstantSolution:
    mat, pivots = row_reduce(sorted(rows), 3)
    rank = len(pivots)
    if rank == 3:
        return ConstantSolution(status="trivial_only", rows=len(rows))
    if rank <= 1:
        return ConstantSolution(status="inconsistent", rows=len(rows))
    # rank 2: one-dimensional null space spanned by the cross product of the
    # two pivot rows
    r1, r2 = mat[0], mat[1]
    v = (r1[1] * r2[2] - r1[2] * r2[1],
         r1[2] * r2[0] - r1[0] * r2[2],
         r1[0] * r2[1] - r1[1] * r2[0])
    if v[0] == 0:
        return ConstantSolution(status="inconsistent", rows=len(rows))
    return ConstantSolution(status="unique", d_over_beta2=v[1] / v[0],
                            c_over_beta2=v[2] / v[0], rows=len(rows))


# seeded basis triples each solve recomputes beside the reduced ones
_SPAN_CHECKS = 64


def solve_constants(L: LieAlgebra, master_seed=0) -> ConstantSolution:
    """Extract (D, C) as exact multiples of beta^2 from the defect system.

    The rows come from the dim label triples (x_-theta, x_theta, e_k), with
    theta the highest root, and have the null space of all dim^3 triples.
    Each rule is built from f, the pairing and its dual basis, so at fixed
    (beta^2, D, C) the defect is a g-equivariant map on g (x) g (x) g and
    its kernel K is a g-submodule.  V (x) M = U(g)(v (x) M) when V = U(g) v,
    and g = U(g) x_-theta = U(b_-) x_theta, so K is everything once it holds
    x_-theta (x) x_theta (x) g (the tensor identity for cyclic modules).  A
    trivial_only answer needs no lemma: more rows cannot lower the rank.

    The lemma rests on the tables being equivariant, so every solve
    recomputes min(_SPAN_CHECKS, dim^3) distinct triples drawn from
    master_seed; a row of theirs outside the span of the reduced rows
    raises InternalConsistencyError naming the triple.  `triples` counts
    the dim^3 triples covered, `computed` those evaluated, and `rows` the
    distinct rows of the reduced triples.
    """
    rules = rules_deformed(L)
    n = L.dim
    # positive roots are ordered by height, so the last one is theta
    top = len(L.root_system.positive_roots) - 1
    low, high = L.neg_root_index(top), L.pos_root_index(top)
    rows = set()
    for k in range(n):
        rows.update(_defect_rows(rules, low, high, k))
    sol = _solve_rows(rows)
    basis, pivots = row_reduce(sorted(rows), 3)
    basis = basis[:len(pivots)]
    rng = random.Random(f"{master_seed}:solve:{L.name}")
    spot = rng.sample(range(n ** 3), min(_SPAN_CHECKS, n ** 3))
    for idx in spot:
        la, lb, lc = idx // (n * n), idx // n % n, idx % n
        if len(row_reduce(basis + _defect_rows(rules, la, lb, lc), 3)[1]) > len(basis):
            raise InternalConsistencyError(
                f"triple ({J(la, 1, 0)}, {J(lb, 0, 1)}, {J(lc, 0, 0)}) of "
                f"{L.name} has a defect row outside the span of the "
                f"(x_-theta, x_theta, e_k) rows: the rule tables are not "
                f"g-equivariant")
    sol.triples = n ** 3
    sol.computed = n + len(spot)
    return sol


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


def closed_form_constants(L: LieAlgebra, beta: Optional[Fraction] = None
                          ) -> Tuple[Scalar, Scalar]:
    """(D, C) as Scalars, with beta formal by default."""
    d, c = closed_form_fractions(L)
    if beta is None:
        return s_monomial((2, 0, 0), d), s_monomial((2, 0, 0), c)
    b2 = Fraction(beta) ** 2
    return s_rational(d * b2), s_rational(c * b2)
