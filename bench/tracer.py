"""Outside-in layer timing for celalg.

The tracer replaces module attributes with wrappers and puts the originals
back afterwards; no file of the package changes.  A function imported by
name into another module (``celestial`` takes ``bracket_words`` and
``s_scale`` from their home modules, ``lambdacalc`` takes ``s_mul``) is
patched in every module that holds it, so calls through either name are
seen.

A timed function gets, per label, a call count, the inclusive time and the
self time (inclusive time minus the time of timed calls nested inside it).
Inclusive time double-counts recursion, so it is read only for functions
that do not call themselves.  A counted function only gets its calls
counted, which is what keeps the hot letter-against-letter bracket cheap to
trace.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from types import ModuleType
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# label -> (calls, inclusive seconds, self seconds)
Stats = Dict[str, Tuple[float, float, float]]


def _type_of_root_system(args) -> str:
    return f"{args[0].series}{args[0].rank}"


def _type_of_algebra(args) -> str:
    return args[0].name


# (home module, function, label suffix per algebra type or None)
TIMED: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("liealg", "build_root_system", None),
    ("liealg", "chevalley_basis", _type_of_root_system),
    ("liealg", "save_structure_constants", None),
    ("liealg", "algebra_from_cache", None),
    ("adinv", "quartic_alpha", _type_of_algebra),
    ("celestial", "rules_extended", None),
    ("celestial", "rules_deformed", None),
    ("celestial", "defect_poly", None),
    ("lambdacalc", "bracket_words", None),
    ("lambdacalc", "normal_order", None),
    ("lambdacalc", "nproduct", None),
    ("scalar", "s_mul", None),
    ("scalar", "s_scale", None),
    ("scalar", "s_iadd", None),
)
COUNTED = (("lambdacalc", "atomic_bracket"), ("adinv", "mat_mul"))


class Tracer:
    """Aggregated count / inclusive / self time per wrapped function."""

    def __init__(self) -> None:
        self._acc: Dict[str, List[float]] = {}
        self._stack: List[float] = []
        self._restore: List[Tuple[ModuleType, str, object]] = []
        self.rulesets: List[object] = []
        self._after = {
            "lambdacalc.bracket_words": self._count_dual_route,
            "liealg.chevalley_basis": self._count_sc_entries,
            "celestial.rules_extended": self._capture_ruleset,
            "celestial.rules_deformed": self._capture_ruleset,
        }

    def slot(self, key: str) -> List[float]:
        return self._acc.setdefault(key, [0, 0.0, 0.0])

    def snapshot(self) -> Stats:
        return {key: tuple(acc) for key, acc in self._acc.items()}

    def _timed(self, label: str, fn: Callable,
               suffix: Optional[Callable]) -> Callable:
        stack = self._stack
        fixed = self.slot(label) if suffix is None else None
        after = self._after.get(label)

        def traced(*args, **kwargs):
            acc = fixed or self.slot(f"{label}.{suffix(args)}")
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - child
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted(self, label: str, fn: Callable) -> Callable:
        acc = self.slot(label)

        def counted(*args, **kwargs):
            acc[0] += 1
            return fn(*args, **kwargs)

        return counted

    # --- counts read off arguments and results at the boundary -------------

    def _count_dual_route(self, args, result) -> None:
        # a multi-letter word against one letter is checked on both routes
        if len(args[1]) > 1 and len(args[2]) == 1:
            self.slot("lambdacalc.dual_route")[0] += 1

    def _count_sc_entries(self, args, result) -> None:
        self.slot(f"liealg.sc_entries.{_type_of_root_system(args)}")[0] += sum(
            len(comp) for comp in result.f.values())

    def _capture_ruleset(self, args, result) -> None:
        self.rulesets.append(result)

    # --- patching -----------------------------------------------------------

    def install(self, modules: Dict[str, ModuleType],
                holders: Iterable[ModuleType]) -> None:
        """Wrap every target in each holder module that refers to it."""
        holders = list(holders)
        wrappers = [(home, name, self._timed(f"{home}.{name}",
                                             getattr(modules[home], name), suffix))
                    for home, name, suffix in TIMED]
        wrappers += [(home, name, self._counted(f"{home}.{name}",
                                                getattr(modules[home], name)))
                     for home, name in COUNTED]
        for home, name, wrapped in wrappers:
            original = getattr(modules[home], name)
            for mod in holders:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


_ZERO = (0, 0.0, 0.0)


def stats_delta(after: Stats, before: Stats) -> Stats:
    return {key: tuple(a - b for a, b in zip(value, before.get(key, _ZERO)))
            for key, value in after.items()}


def stats_sum(a: Stats, b: Stats) -> Stats:
    return {key: tuple(x + y for x, y in zip(a.get(key, _ZERO), b.get(key, _ZERO)))
            for key in set(a) | set(b)}


def stats_median(samples: List[Stats]) -> Stats:
    """Per label: a call count that occurred (median_low), median times."""
    out = {}
    for key in set().union(*samples):
        calls, total, self_time = zip(*(s.get(key, _ZERO) for s in samples))
        out[key] = (statistics.median_low(calls), statistics.median(total),
                    statistics.median(self_time))
    return out
