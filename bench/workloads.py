"""The three benchmark workloads and the answers they must reproduce.

Expected values are literals from the literature: dimensions and dual
Coxeter numbers of the simple Lie algebras, alpha = 5 / (2 (2 + dim)) on the
quartic-admissible types, and D, C over beta^2 from Costello-Paquette.  They
are deliberately not read from ``celalg``, which is the code under test.
"""

from __future__ import annotations

import os
import tempfile
import traceback
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

# type -> (dim, dual Coxeter number)
LIE_TYPES: Dict[str, Tuple[int, int]] = {
    "A1": (3, 2), "A2": (8, 3), "A3": (15, 4), "G2": (14, 4), "B4": (36, 7),
    "D5": (45, 8), "F4": (52, 9), "E6": (78, 12), "E7": (133, 18),
}

# quartic proportionality constant; None where no constant exists
ALPHA: Dict[str, Optional[Fraction]] = {
    "F4": Fraction(5, 108), "E6": Fraction(1, 32), "E7": Fraction(1, 54),
    "B4": None, "D5": None,
}

# solver verdict: (status, D / beta^2, C / beta^2)
SOLUTIONS: Dict[str, Tuple[str, Optional[Fraction], Optional[Fraction]]] = {
    "A1": ("unique", Fraction(-1, 8), Fraction(3, 16)),
    "G2": ("unique", Fraction(-1, 5), Fraction(3, 20)),
    "D4": ("unique", Fraction(-1, 4), Fraction(1, 8)),
    "A3": ("trivial_only", None, None),
}

# grid_max per type; both grids have 71 generators, so 71^3 triples each
GRID_MAX = {"A1": 2, "A2": 1}
GRID_TRIPLES = 71 ** 3

# lie-build builds these afresh in every pass; B4 and D5 only get
# quartic_alpha, so they are built once in set-up
FRESH_TYPES = ("F4", "E6", "E7")


def split_type(name: str) -> Tuple[str, int]:
    return name[0], int(name[1:])


@dataclass
class Verdict:
    """What one item returned, next to what it should have returned.

    ``triples`` counts Jacobi-defect triples covered, ``rows`` solver rows.
    """
    item: str
    observed: object
    expected: object
    triples: int = 0
    rows: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.observed == self.expected


Outcome = Tuple[object, object, int, int]  # observed, value, triples, rows


@dataclass
class PassContext:
    seed: int
    order: Tuple[str, ...]
    scratch: str
    # runs after each item, outside the item's timing
    between_items: Callable[[], None] = lambda: None
    # type -> weak reference to the algebra the last pass built
    previous: Dict[str, object] = field(default_factory=dict)

    def run_item(self, verdicts: List[Verdict], item: str, expected,
                 call: Callable[[], Outcome]) -> object:
        """Run and time one item; an exception is recorded as a wrong verdict."""
        start = perf_counter()
        try:
            observed, value, triples, rows = call()
        except Exception as exc:  # a failed item is counted, the run goes on
            traceback.print_exc()
            verdicts.append(Verdict(item, f"{type(exc).__name__}: {exc}", expected,
                                    seconds=perf_counter() - start))
            value = None
        else:
            verdicts.append(Verdict(item, observed, expected, triples, rows,
                                    perf_counter() - start))
        self.between_items()
        return value


def fresh_algebra(mods: SimpleNamespace, name: str):
    """Build from root data, bypassing the simple_lie_algebra memo."""
    return mods.liealg.chevalley_basis(mods.liealg.build_root_system(*split_type(name)))


# --- jacobi-grid ------------------------------------------------------------

def _grid_setup(mods: SimpleNamespace) -> dict:
    algebras = {name: fresh_algebra(mods, name) for name in GRID_MAX}
    for L in algebras.values():
        mods.celestial.rules_extended(L)
    return algebras


def _grid_pass(mods, algebras, ctx):
    verdicts: List[Verdict] = []
    for name in ctx.order:
        def call(L=algebras[name], grid=GRID_MAX[name]):
            rep = mods.celestial.verify_jacobi_grid(L, grid, level="extended", jobs=1)
            triples = rep.details["triples"]
            return (rep.passed, triples), rep, triples, 0
        ctx.run_item(verdicts, f"{name} grid {GRID_MAX[name]}", (True, GRID_TRIPLES), call)
    return verdicts, algebras


# --- solve-constants -----------------------------------------------------------

def _solve_setup(mods: SimpleNamespace) -> dict:
    algebras = {name: fresh_algebra(mods, name) for name in ("G2", "A3")}
    for L in algebras.values():
        mods.celestial.rules_deformed(L)
    return algebras


def _solve_pass(mods, algebras, ctx):
    verdicts: List[Verdict] = []
    for name in ctx.order:
        def call(L=algebras[name]):
            sol = mods.celestial.solve_constants(L, master_seed=ctx.seed)
            observed = ((sol.status, sol.d_over_beta2, sol.c_over_beta2), sol.triples)
            return observed, sol, sol.triples, sol.rows
        expected = (SOLUTIONS[name], LIE_TYPES[name][0] ** 3)
        ctx.run_item(verdicts, f"{name} solve", expected, call)
    return verdicts, algebras


# --- lie-build -------------------------------------------------------------------

def _build_setup(mods: SimpleNamespace) -> dict:
    return {name: fresh_algebra(mods, name) for name in ("B4", "D5")}


def _round_trip(mods, L, path: str) -> Tuple[bool, ...]:
    """Save, reload and compare; the load path skips the Jacobi check, so
    this comparison is what would catch a corrupted read."""
    mods.liealg.save_structure_constants(L, path)
    M = mods.liealg.algebra_from_cache(L.series, L.rank, path)
    return (M.f == L.f, M.pairing == L.pairing, M.pairing_inv == L.pairing_inv,
            M.h_dual_coxeter == L.h_dual_coxeter,
            mods.liealg.verify_cached_algebra(M, path))


def _build_pass(mods, algebras, ctx):
    verdicts: List[Verdict] = []
    built: Dict[str, object] = {}
    directory = tempfile.mkdtemp(prefix="cache-", dir=ctx.scratch)
    for name in ctx.order:
        L = algebras.get(name)
        if name in FRESH_TYPES:
            def build(name=name):
                L = fresh_algebra(mods, name)
                # memo guard: a pass handed an earlier object back would
                # time a dict lookup instead of a build.  A weak reference
                # keeps the check without keeping last pass's algebras alive.
                earlier = ctx.previous.get(name)
                fresh = earlier is None or earlier() is not L
                return (L.dim, L.h_dual_coxeter, fresh), L, 0, 0
            L = ctx.run_item(verdicts, f"{name} build", LIE_TYPES[name] + (True,), build)
            if L is None:
                continue
            built[name] = L
            ctx.previous[name] = weakref.ref(L)
        ctx.run_item(verdicts, f"{name} alpha", ALPHA[name],
                 lambda L=L: (mods.adinv.quartic_alpha(L, master_seed=ctx.seed),
                              None, 0, 0))
        if name in FRESH_TYPES:
            path = os.path.join(directory, f"{name}.sc")
            ctx.run_item(verdicts, f"{name} cache round trip", (True,) * 5,
                     lambda L=L: (_round_trip(mods, L, path), None, 0, 0))
    return verdicts, built


@dataclass
class Workload:
    # algebra types a pass visits, in an order the seed shuffles
    types: Tuple[str, ...]
    # builds the algebras and rule tables the passes use, once before the
    # first timed pass; returns the algebras
    setup: Callable[[SimpleNamespace], dict]
    # one timed pass; returns its verdicts and the algebras a cache user
    # would reload
    run_pass: Callable
    # Jacobi triples one pass covers
    triples_per_pass: int


WORKLOADS: Dict[str, Workload] = {
    "jacobi-grid": Workload(tuple(GRID_MAX), _grid_setup, _grid_pass,
                            len(GRID_MAX) * GRID_TRIPLES),
    "solve-constants": Workload(("G2", "A3"), _solve_setup, _solve_pass,
                                LIE_TYPES["G2"][0] ** 3 + LIE_TYPES["A3"][0] ** 3),
    # the structure-constant Jacobi check of a fresh build covers the basis
    # triples i < j < k; those are the triples this workload decides
    "lie-build": Workload(FRESH_TYPES + ("B4", "D5"), _build_setup, _build_pass,
                          sum(comb(LIE_TYPES[name][0], 3) for name in FRESH_TYPES)),
}
