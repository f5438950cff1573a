"""Seeded random generators and reference reducers shared across test modules."""

from fractions import Fraction

from celalg import lambdacalc as lc
from celalg.lambdacalc import (
    GenSymbol,
    bracket_words,
    integrate_commutator,
    _nproduct_raw,
)
from celalg.scalar import s_mul, s_rational


def random_letter(rng, dim=3):
    kind = rng.randrange(4)
    if kind in (lc.KIND_J, lc.KIND_I):
        return GenSymbol(kind, rng.randrange(dim),
                         (rng.randrange(3), rng.randrange(3)), rng.randrange(3))
    n, m = rng.randrange(3), rng.randrange(3)
    if kind == lc.KIND_E and (n, m) == (0, 0):
        n = 1
    return GenSymbol(kind, -1, (n, m), rng.randrange(3))


def random_word(rng, dim=3, max_len=3):
    return tuple(random_letter(rng, dim) for _ in range(rng.randint(0, max_len)))


def random_poly(rng, dim=3):
    p = {}
    for _ in range(rng.randint(1, 3)):
        key = rng.randrange(3)
        word = random_word(rng, dim)
        sc = s_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if sc:
            p.setdefault(key, {})[word] = sc
    return {k: ws for k, ws in p.items() if ws}


def rightmost_normal_order(rules, ws):
    """Confluence oracle: the same rewriting relations applied at the
    rightmost descent instead of the leftmost."""
    out = {}
    stack = [(w, s) for w, s in ws.items() if s]
    while stack:
        word, sc = stack.pop()
        descent = None
        for i in range(len(word) - 2, -1, -1):
            if word[i] > word[i + 1]:
                descent = i
                break
        if descent is None:
            lc.ws_iadd(out, word, sc)
            continue
        i = descent
        x, y = word[i], word[i + 1]
        stack.append((word[:i] + (y, x) + word[i + 2:], sc))
        corr = integrate_commutator(bracket_words(rules, (x,), (y,)))
        for cword, csc in corr.items():
            for pword, psc in _nproduct_raw(rules, cword, word[i + 2:]).items():
                stack.append((word[:i] + pword, s_mul(sc, s_mul(csc, psc))))
    return out
