"""A catalogue of hand mutants of celalg, each with the tests that must kill it.

Each entry names a file under src/celalg, an exact old text that occurs in it
once, the new text that replaces it, and the pytest node ids expected to
fail on the result.  For each entry the script copies src/, tests/, tools/,
bench/ and pyproject.toml into a fresh temporary directory, applies the one
edit there and runs the named tests in that copy.  A mutant is killed when pytest
reports a failing test (exit status 1); anything else, every test passing or
a test id that no longer exists, leaves it a survivor.  Before the mutants
run, the named tests must pass on an unmutated copy.

An old text that does not occur exactly once, an edit after which the file
no longer parses, or a named test function that no longer exists in its file,
is an error: the catalogue has fallen behind the code or the tests and must
be updated with them.  An unparsable edit would otherwise stop pytest at
collection (exit status 2) and be reported a survivor.

    python tools/mutants.py

Exit status: 0 every mutant killed, 1 a survivor or a failing baseline, 2 a
stale entry.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str   # relative to src/celalg
    old: str
    new: str
    tests: Tuple[str, ...]


CATALOGUE = [
    # the exact quartic alpha on h
    Mutant("alpha-compares-x1-only", "adinv.py",
           "for i, j, k, l in combinations_with_replacement(range(len(cols)), 4):",
           "for i, j, k, l in [(0, 0, 0, 0)]:",
           ("tests/test_adinv.py::test_quartic_alpha_absent",
            "tests/test_adinv.py::test_root_data_admits_exactly_the_admissible_types")),
    Mutant("alpha-positive-roots-only", "adinv.py",
           "for r in rs.position]",
           "for r in rs.positive_roots]",
           ("tests/test_liealg.py::test_basis_layout_is_read_from_the_root_system[A-1]",
            "tests/test_adinv.py::test_root_data_admits_exactly_the_admissible_types")),
    Mutant("alpha-spot-tuple-dropped", "adinv.py",
           "    if not spot.passed:\n",
           "    if False:\n",
           ("tests/test_adinv.py::test_quartic_alpha_spot_tuple_refuses_a_flipped_constant",)),
    Mutant("alpha-root-data-check-dropped", "adinv.py",
           "        if got != want:\n",
           "        if False:\n",
           ("tests/test_adinv.py::test_quartic_alpha_refuses_a_broken_cartan",)),
    Mutant("alpha-off-diagonal-check-dropped", "adinv.py",
           "                if b != k:\n",
           "                if False:\n",
           ("tests/test_adinv.py::test_quartic_alpha_refuses_a_broken_cartan",)),
    # the Cartan witness of a type without alpha
    Mutant("witness-ratio-against-itself", "adinv.py",
           "if r is not None and r != r1:",
           "if r is not None and r != r:",
           ("tests/test_adinv.py::test_polarized_report_names_a_cartan_witness",
            "tests/test_adinv.py::test_polarized_counterexample_a3")),
    # classify's verdict
    Mutant("classify-alpha-value-unchecked", "cli.py",
           "ok = all(alpha == (adinv.expected_alpha(dim) if name in admissible else None)",
           "ok = all((alpha is not None) == (name in admissible)",
           ("tests/test_cli.py::test_classify_fails_on_a_planted_alpha"
            "[member-with-a-wrong-alpha]",)),
    Mutant("classify-membership-unchecked", "cli.py",
           "ok = all(alpha == (adinv.expected_alpha(dim) if name in admissible else None)",
           "ok = all(alpha in (None, adinv.expected_alpha(dim))",
           ("tests/test_cli.py::test_classify_fails_on_a_planted_alpha[member-missing]",)),
    # the CLI bounds, each lowered by one: the least refused value passes
    Mutant("grid-bound-lowered", "cli.py",
           '("--grid", "grid_max", 0)', '("--grid", "grid_max", -1)',
           ("tests/test_cli.py::test_configuration_error_exit_two",)),
    Mutant("samples-bound-lowered", "cli.py",
           '("--samples", "samples", 1)', '("--samples", "samples", 0)',
           ("tests/test_cli.py::test_configuration_error_exit_two",)),
    Mutant("max-rank-bound-lowered", "cli.py",
           '("--max-rank", "max_rank", 4)', '("--max-rank", "max_rank", 3)',
           ("tests/test_cli.py::test_classify_max_rank_guard",)),
    # the Lie algebra build and the seeded draws
    Mutant("jacobi-sample-rotation-dropped", "liealg.py",
           "for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):",
           "for a, b, c in ((i, j, k), (j, k, i)):",
           ("tests/test_liealg.py::test_jacobi_sample_without_the_derivation_argument",)),
    Mutant("jacobi-sample-comparison-disabled", "liealg.py",
           "        if any(acc.values()):\n",
           "        if False:\n",
           ("tests/test_liealg.py::test_jacobi_sample_without_the_derivation_argument",)),
    # the one pass over the rows of f
    Mutant("antisymmetry-comparison-disabled", "liealg.py",
           "if i == j or f[j].get(i) != {k: -v for k, v in comp.items()}:",
           "if i == j:",
           ("tests/test_liealg.py::test_corrupt_cache_is_configuration_error"
            "[None-7-not antisymmetric]",)),
    Mutant("involution-comparison-disabled", "liealg.py",
           "if f[sigma[i]].get(sigma[j]) != {sigma[k]: -v for k, v in comp.items()}:",
           "if False:",
           ("tests/test_liealg.py::test_table_not_invariant_under_the_involution_is_refused"
            "[A-2]",)),
    Mutant("ad-matrix-transposed", "liealg.py",
           "mat[k][m] += xi * c",
           "mat[m][k] += xi * c",
           ("tests/test_liealg.py::test_rows_of_f_are_read_as_ad_and_bracket[A-1]",)),
    # the defining representation along the build's generation walk
    Mutant("defining-rep-b-lowering-factor-dropped", "adinv.py",
           "fs[-1] = [[2 * v for v in row] for row in fs[-1]]",
           "fs[-1] = [[v for v in row] for row in fs[-1]]",
           ("tests/test_adinv.py::test_defining_rep_sweep[B-2]",)),
    Mutant("defining-rep-step-divisor-dropped", "adinv.py",
           "mats[k] = [[_ratio(v, c) for v in row] for row in mat_comm(mats[x], mats[y])]",
           "mats[k] = mat_comm(mats[x], mats[y])",
           ("tests/test_adinv.py::test_defining_rep_sweep[B-2]",)),
    # the dual basis read at its nonzero slots
    Mutant("quadratic-words-dual-slot-unshifted", "celestial.py",
           "j = opposite[i]",
           "j = i",
           ("tests/test_celestial.py::test_quadratic_words_match_the_dense_dual_basis_sum[A-1]",)),
    # the label representatives over the theta-centralizer
    Mutant("theta-centralizer-sign-dropped", "celestial.py",
           "up == ({high: -lam} if lam else {})",
           "up.keys() <= {high}",
           ("tests/test_celestial.py::test_theta_centralizer_refuses_a_same_sign_scaling",)),
    Mutant("centralizer-walk-counts-one-term", "celestial.py",
           "if len(terms) == 1 and terms[0] not in reached:",
           "if terms and terms[0] not in reached:",
           ("tests/test_celestial.py::test_centralizer_walk_generates_g_under_any_acting_set",)),
    Mutant("seeded-triple-decode-swapped", "celestial.py",
           "(idx // (n * n), idx // n % n, idx % n)",
           "(idx // (n * n), idx % n, idx // n % n)",
           ("tests/test_celestial.py::test_seeded_triple_draws_are_stable",)),
    # the bracket engine's dual-route assert
    Mutant("dual-route-comparison-disabled", "lambdacalc.py",
           "        if result != alt:\n",
           "        if False:\n",
           ("tests/test_acceptance.py::test_criterion_7_engine_self_consistency",)),
    # the canonical values that == compares
    Mutant("lp-iadd-keeps-empty-slot", "lambdacalc.py",
           "        del acc[key]\n",
           "        pass\n",
           ("tests/test_celestial.py::test_memo_scalars_hold_integral_values_as_ints"
            "[grid A1]",)),
    # the engine's variable substitutions
    Mutant("lambda-plus-mu-sign-flipped", "lambdacalc.py",
           "lp_iadd(out, (i, k - i), ws, comb(k, i))",
           "lp_iadd(out, (i, k - i), ws, (-1) ** i * comb(k, i))",
           ("tests/test_lambdacalc.py::test_substitute_lambda_plus_mu_binomial",)),
    Mutant("skew-binomial-off-by-one", "lambdacalc.py",
           "t_power(ws, j), sign * comb(k, j))",
           "t_power(ws, j), sign * comb(k + 1, j))",
           ("tests/test_lambdacalc.py::test_skew_linear_term",)),
]


def _test_functions(path: Path) -> set:
    """The names of the top-level test functions of a test file, by its AST."""
    if not path.is_file():
        return set()
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def stale(mutants: List[Mutant]) -> List[str]:
    """A message for each entry whose old text does not occur exactly once
    or whose edit leaves a file that does not parse, and for each named test
    whose function is not in its file."""
    out = []
    for m in mutants:
        text = (ROOT / "src" / "celalg" / m.file).read_text()
        count = text.count(m.old)
        if count != 1:
            out.append(f"{m.name}: old text occurs {count} times in {m.file}")
        try:
            compile(text.replace(m.old, m.new), m.file, "exec")
        except SyntaxError as exc:
            out.append(f"{m.name}: the mutated {m.file} does not parse: {exc.msg}")
        for test in m.tests:
            file, _, function = test.partition("::")
            if function.partition("[")[0] not in _test_functions(ROOT / file):
                out.append(f"{m.name}: no test {test}")
    return out


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests", "tools", "bench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests: Tuple[str, ...]) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CELALG_")}
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def run(mutants: List[Mutant], out=sys.stdout) -> List[str]:
    """Run each mutant in its own copy; the names of the survivors."""
    tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="celalg-mutants-") as tmp:
        tree = Path(tmp) / "baseline"
        _copy(tree)
        if _pytest(tree, tests) != 0:
            print("baseline: the named tests do not all pass unmutated", file=out)
            return ["baseline"]
        survivors = []
        for m in mutants:
            tree = Path(tmp) / m.name
            _copy(tree)
            path = tree / "src" / "celalg" / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            t0 = time.perf_counter()
            killed = _pytest(tree, m.tests) == 1
            print(f"{'killed ' if killed else 'SURVIVED'} {m.name} "
                  f"({time.perf_counter() - t0:.1f}s)", file=out)
            if not killed:
                survivors.append(m.name)
            shutil.rmtree(tree)
    return survivors


def main() -> int:
    problems = stale(CATALOGUE)
    for line in problems:
        print(f"stale entry: {line}", file=sys.stderr)
    if problems:
        return 2
    survivors = run(CATALOGUE)
    print(f"{len(CATALOGUE) - len(survivors)} of {len(CATALOGUE)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
