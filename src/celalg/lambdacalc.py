"""Lambda-bracket calculus on tensor words of conformal generators.

Values are polynomials in the formal variables lambda and mu whose
coefficients are sums of ordered tensor words; word coefficients are exact
polynomials in (beta, D, C).  The operator T (equivalently written as a
formal derivative) never appears free: it is always distributed onto the
generators as a derivative power, which makes equality testing a plain
dictionary comparison.

The bracket of arbitrary words is built from an atomic rule table through
three mutually recursive pieces:

  * sesquilinearity for derivative powers of the arguments,
  * the noncommutative Wick expansion against a product on the right,
  * the shift-extension for a product on the left, whose value is asserted
    on every call against the independent skew-symmetry route.

Products land in the quotient by the commutator relations: adjacent letters
are reordered into a fixed total order, each swap inserting the integral of
the bracket of the swapped pair, and the product map N carries the integral
correction terms that make it well defined on the quotient.

A rule table must provide ``resolve(a, b) -> LambdaPoly`` for derivative-free
generators (raising UndefinedBracket when the pair is not covered) and a
``full_memo`` dict used to cache derivative-expanded lookups.  Every rule
must strictly decrease total weight (sum over letters of n + m + 1), which
is what makes the reordering terminate; the celestial rule tables check
this on every value they resolve, and probe it over a small generator grid
when they are constructed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, NamedTuple, Tuple

from .scalar import (
    Scalar,
    s_format,
    s_iadd,
    s_mul,
    s_rational,
    s_scale,
)

KIND_J, KIND_I, KIND_E, KIND_F = 0, 1, 2, 3
KIND_LETTERS = "JIEF"


class GenSymbol(NamedTuple):
    """One conformal generator letter.

    Field order doubles as the canonical letter order: kind (J < I < E < F),
    Lie-algebra basis label (-1 for the unlabeled E, F), bidegree, then
    derivative power.
    """

    kind: int
    label: int
    bidegree: Tuple[int, int]
    dpow: int = 0

    @property
    def letter(self) -> str:
        return KIND_LETTERS[self.kind]

    def d(self, extra: int = 1) -> "GenSymbol":
        return self._replace(dpow=self.dpow + extra)

    def bare(self) -> "GenSymbol":
        return self._replace(dpow=0) if self.dpow else self

    def __str__(self) -> str:
        prefix = "" if not self.dpow else ("d." if self.dpow == 1 else f"d^{self.dpow}.")
        label = "" if self.label < 0 else f"_{self.label}"
        n, m = self.bidegree
        return f"{prefix}{self.letter}{label}[{n},{m}]"


def J(label: int, n: int, m: int, dpow: int = 0) -> GenSymbol:
    return GenSymbol(KIND_J, label, (n, m), dpow)


def I(label: int, n: int, m: int, dpow: int = 0) -> GenSymbol:
    return GenSymbol(KIND_I, label, (n, m), dpow)


def E(n: int, m: int, dpow: int = 0) -> GenSymbol:
    if n == 0 and m == 0:
        raise ValueError("E[0,0] is normalized to zero and may not be built")
    return GenSymbol(KIND_E, -1, (n, m), dpow)


def F(n: int, m: int, dpow: int = 0) -> GenSymbol:
    return GenSymbol(KIND_F, -1, (n, m), dpow)


Word = Tuple[GenSymbol, ...]
WordSum = Dict[Word, Scalar]
LambdaPoly = Dict[Tuple[int, int], WordSum]


def weight(word: Word) -> int:
    """Termination grading: each letter contributes n + m + 1."""
    return sum(g.bidegree[0] + g.bidegree[1] + 1 for g in word)


class UndefinedBracket(Exception):
    """A bracket was requested that the rule table does not define.

    The message names the offending pair; outer computations append their
    query context so the full chain is visible for diagnosis.
    """

    def __init__(self, a: GenSymbol, b: GenSymbol):
        self.pair = (a, b)
        self.context: list = []
        super().__init__(f"undefined bracket [{a}, {b}]")

    def add_context(self, note: str) -> "UndefinedBracket":
        self.context.append(note)
        return self

    def __str__(self) -> str:
        base = super().__str__()
        if self.context:
            base += "".join(f"\n  while {note}" for note in self.context)
        return base


class InternalConsistencyError(AssertionError):
    """The two evaluation routes of a left bracket disagreed."""


# invocation counters for the dual-route assertion
STATS = {"dual_path_checks": 0}


def reset_stats() -> None:
    STATS["dual_path_checks"] = 0


# --- word-sum and poly helpers ----------------------------------------------

def ws_iadd(acc: WordSum, word: Word, sc: Scalar) -> None:
    cur = acc.get(word)
    if cur is None:
        if sc:
            acc[word] = dict(sc)
        return
    s_iadd(cur, sc)
    if not cur:
        del acc[word]


def ws_add_scaled(acc: WordSum, ws: WordSum, factor) -> None:
    """acc += factor * ws, factor a rational or a Scalar."""
    if isinstance(factor, dict):
        for word, sc in ws.items():
            ws_iadd(acc, word, s_mul(sc, factor))
    elif factor == 1:
        for word, sc in ws.items():
            ws_iadd(acc, word, sc)
    else:
        for word, sc in ws.items():
            ws_iadd(acc, word, s_scale(sc, factor))


def lp_iadd(acc: LambdaPoly, key: Tuple[int, int], ws: WordSum, factor=1) -> None:
    slot = acc.get(key)
    if slot is None:
        slot = acc[key] = {}
    ws_add_scaled(slot, ws, factor)
    if not slot:
        del acc[key]


def lp_cleanup(p: LambdaPoly) -> LambdaPoly:
    return {key: ws for key, ws in p.items() if ws}


def lp_equal(a: LambdaPoly, b: LambdaPoly) -> bool:
    return lp_cleanup(a) == lp_cleanup(b)


# --- derivative operator ------------------------------------------------------

def total_derivative(ws: WordSum) -> WordSum:
    """Leibniz expansion of T; the empty word maps to zero."""
    out: WordSum = {}
    for word, sc in ws.items():
        for pos, g in enumerate(word):
            bumped = word[:pos] + (g.d(),) + word[pos + 1:]
            ws_iadd(out, bumped, sc)
    return out


def t_power(ws: WordSum, k: int) -> WordSum:
    for _ in range(k):
        ws = total_derivative(ws)
    return ws


# --- variable manipulations ---------------------------------------------------

def _assert_single_variable(p: LambdaPoly) -> None:
    if any(mu for (_, mu) in p):
        raise ValueError("expected a single-variable polynomial")


def skew(p: LambdaPoly) -> LambdaPoly:
    """-p with the variable replaced by (-lambda - T).

    Word order is preserved as written; reorder through normal_order if the
    derivative bumps broke the canonical order.
    """
    _assert_single_variable(p)
    out: LambdaPoly = {}
    for (k, _), ws in p.items():
        sign = -(-1) ** k
        for j in range(k + 1):
            lp_iadd(out, (k - j, 0), t_power(ws, j), sign * comb(k, j))
    return lp_cleanup(out)


def integrate_commutator(p: LambdaPoly) -> WordSum:
    """Definite integral over the variable from -T to 0, as derivative words:
    lambda^k -> (-1)^k T^(k+1) / (k+1)."""
    _assert_single_variable(p)
    out: WordSum = {}
    for (k, _), ws in p.items():
        ws_add_scaled(out, t_power(ws, k + 1), Fraction((-1) ** k, k + 1))
    return out


def substitute_lambda_plus_mu(p: LambdaPoly) -> LambdaPoly:
    """Rename the single variable nu to (lambda + mu), binomially expanded."""
    _assert_single_variable(p)
    out: LambdaPoly = {}
    for (k, _), ws in p.items():
        for i in range(k + 1):
            lp_iadd(out, (i, k - i), ws, comb(k, i))
    return out


# --- the bracket engine --------------------------------------------------------

def atomic_bracket(rules, x: GenSymbol, y: GenSymbol) -> LambdaPoly:
    """Bracket of two letters; derivative powers are removed with
    sesquilinearity before the rule lookup."""
    memo = rules.full_memo
    key = (x, y)
    cached = memo.get(key)
    if cached is not None:
        return cached
    base = rules.resolve(x.bare(), y.bare())
    val = base
    for _ in range(y.dpow):
        nxt: LambdaPoly = {}
        for (k, _), ws in val.items():
            lp_iadd(nxt, (k + 1, 0), ws)
            lp_iadd(nxt, (k, 0), total_derivative(ws))
        val = nxt
    if x.dpow:
        sign = (-1) ** x.dpow
        val = {(k + x.dpow, 0): {w: s_scale(sc, sign) for w, sc in ws.items()}
               for (k, _), ws in val.items()}
    if x.dpow or y.dpow:
        val = normal_order_poly(rules, val)
    memo[key] = val
    return val


def bracket_words(rules, left: Word, right: Word) -> LambdaPoly:
    """Bracket of two tensor words, canonical in the single variable lambda."""
    if not left or not right:
        return {}
    if len(left) == 1:
        if len(right) == 1:
            return atomic_bracket(rules, left[0], right[0])
        try:
            return _wick(rules, left[0], right)
        except UndefinedBracket as exc:
            raise exc.add_context(
                f"expanding [{left[0]} against {_word_str(right)}]")
    try:
        result = _left_extension(rules, left, right)
    except UndefinedBracket as exc:
        raise exc.add_context(
            f"expanding [{_word_str(left)} against {_word_str(right)}]")
    if len(right) == 1:
        alt = normal_order_poly(rules, skew(bracket_words(rules, right, left)))
        STATS["dual_path_checks"] += 1
        if not lp_equal(result, alt):
            raise InternalConsistencyError(
                f"left bracket routes disagree for {_word_str(left)} vs "
                f"{_word_str(right)}:\n  shift route: {format_lambda_poly(result)}\n"
                f"  skew route:  {format_lambda_poly(alt)}")
    return result


def _wick(rules, a: GenSymbol, right: Word) -> LambdaPoly:
    """[a_l (b rest)] = [a_l b] rest + b [a_l rest] + int_0^l [[a_l b]_m rest]."""
    b, rest = right[0], right[1:]
    out: LambdaPoly = {}
    head = bracket_words(rules, (a,), (b,))
    for (k, _), ws in head.items():
        for word, sc in ws.items():
            lp_iadd(out, (k, 0), nproduct(rules, word, rest), sc)
    tail = bracket_words(rules, (a,), rest)
    for (k, _), ws in tail.items():
        for word, sc in ws.items():
            lp_iadd(out, (k, 0), nproduct(rules, (b,), word), sc)
    for (k, _), ws in head.items():
        for word, sc in ws.items():
            inner = bracket_words(rules, word, rest)
            for (j, _), ws2 in inner.items():
                lp_iadd(out, (k + j + 1, 0), ws2,
                        s_scale(sc, Fraction(1, j + 1)))
    return lp_cleanup(out)


def _left_extension(rules, left: Word, right: Word) -> LambdaPoly:
    """[(a B)_l C] via the derivative shift on the detached factor."""
    a, brest = left[0], left[1:]
    out: LambdaPoly = {}
    inner_b = bracket_words(rules, brest, right)
    for (k, _), ws in inner_b.items():
        for j in range(k + 1):
            factor = comb(k, j)
            shifted = a.d(j) if j else a
            for word, sc in ws.items():
                lp_iadd(out, (k - j, 0), nproduct(rules, (shifted,), word),
                        s_scale(sc, factor) if factor != 1 else sc)
    inner_a = bracket_words(rules, (a,), right)
    unit = s_rational(1)
    for (k, _), ws in inner_a.items():
        for j in range(k + 1):
            factor = comb(k, j)
            tb = t_power({brest: unit}, j)
            for tword, tsc in tb.items():
                for word, sc in ws.items():
                    lp_iadd(out, (k - j, 0), nproduct(rules, tword, word),
                            s_scale(s_mul(tsc, sc), factor))
    for (k, _), ws in inner_a.items():
        for word, sc in ws.items():
            outer = bracket_words(rules, brest, word)
            for (j, _), ws2 in outer.items():
                factor = sum(Fraction(comb(k, m) * (-1) ** m, m + j + 1)
                             for m in range(k + 1))
                lp_iadd(out, (k + j + 1, 0), ws2, s_scale(sc, factor))
    return lp_cleanup(out)


def nproduct(rules, left: Word, right: Word) -> WordSum:
    """Product N(left, right) reduced to canonical ordered form."""
    return normal_order(rules, _nproduct_raw(rules, left, right))


def _nproduct_raw(rules, left: Word, right: Word) -> WordSum:
    unit = s_rational(1)
    if not left:
        return {right: unit}
    if not right:
        return {left: unit}
    if len(left) == 1:
        return {left + right: unit}
    a, brest = left[0], left[1:]
    out: WordSum = {}
    for word, sc in _nproduct_raw(rules, brest, right).items():
        ws_iadd(out, (a,) + word, sc)
    inner_b = bracket_words(rules, brest, right)
    for (k, _), ws in inner_b.items():
        shifted = a.d(k + 1)
        scale = Fraction(1, k + 1)
        for word, sc in ws.items():
            ws_iadd(out, (shifted,) + word, s_scale(sc, scale))
    inner_a = bracket_words(rules, (a,), right)
    for (k, _), ws in inner_a.items():
        tb = t_power({brest: unit}, k + 1)
        scale = Fraction(1, k + 1)
        for tword, tsc in tb.items():
            for word, sc in ws.items():
                prod = _nproduct_raw(rules, tword, word)
                factor = s_scale(s_mul(tsc, sc), scale)
                ws_add_scaled(out, prod, factor)
    return out


def normal_order(rules, ws: WordSum) -> WordSum:
    """Reduce a sum of words to the canonical ordered basis.

    Adjacent out-of-order letters x > y are swapped; the swap inserts the
    commutator correction, the integral of [x_l y] from -T to 0, multiplied
    into the suffix through N.  Terminates because rule outputs strictly
    decrease total weight.
    """
    out: WordSum = {}
    stack = [(word, sc) for word, sc in ws.items() if sc]
    while stack:
        word, sc = stack.pop()
        descent = None
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                descent = i
                break
        if descent is None:
            ws_iadd(out, word, sc)
            continue
        i = descent
        x, y = word[i], word[i + 1]
        stack.append((word[:i] + (y, x) + word[i + 2:], sc))
        corr = integrate_commutator(bracket_words(rules, (x,), (y,)))
        if corr:
            prefix, suffix = word[:i], word[i + 2:]
            for cword, csc in corr.items():
                prod = _nproduct_raw(rules, cword, suffix)
                for pword, psc in prod.items():
                    stack.append((prefix + pword, s_mul(sc, s_mul(csc, psc))))
    return out


def normal_order_poly(rules, p: LambdaPoly) -> LambdaPoly:
    out: LambdaPoly = {}
    for key, ws in p.items():
        lp_iadd(out, key, normal_order(rules, ws))
    return lp_cleanup(out)


def is_canonical(word: Word) -> bool:
    return all(word[i] <= word[i + 1] for i in range(len(word) - 1))


# --- formatting ----------------------------------------------------------------

def _word_str(word: Word) -> str:
    return "1" if not word else "*".join(str(g) for g in word)


def format_lambda_poly(p: LambdaPoly) -> str:
    """Stable multi-line dump: one line per (monomial, word) with the scalar
    printed as a polynomial in beta, D, C."""
    lines = []
    for (i, j) in sorted(p):
        ws = p[(i, j)]
        mono = ""
        if i:
            mono += "lambda" if i == 1 else f"lambda^{i}"
        if j:
            mono += ("*" if mono else "") + ("mu" if j == 1 else f"mu^{j}")
        mono = mono or "1"
        for word in sorted(ws):
            lines.append(f"{mono} | {_word_str(word)} | {s_format(ws[word])}")
    return "\n".join(lines) if lines else "0"
