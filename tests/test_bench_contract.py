"""The names the benchmark's tracer wraps must exist in the package, and
the benchmark's calls must bind to the package's signatures.

`bench/tracer.py` patches the functions it lists by module and name, and
`bench/run.py --trace 1` reads the memo dicts of the rule tables it
captures; a rename in the package would otherwise only show as missing
metrics.  `bench/workloads.py` calls package functions with keyword
arguments and reads fields of the results, and both bench files read
fields of the algebras; a renamed or removed parameter or field would
otherwise only show as failed benchmark items.  The files under `bench/`
are read here, never changed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from celalg.celestial import rules_deformed, rules_extended
from celalg.liealg import (algebra_from_cache, build_root_system, chevalley_basis,
                           save_structure_constants, simple_lie_algebra)

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    tracer = _tracer()
    return ([(home, name) for home, name, _ in tracer.TIMED]
            + [(home, name) for home, name in tracer.COUNTED])


@pytest.mark.parametrize("home,name", _targets())
def test_traced_name_is_callable(home, name):
    module = importlib.import_module(f"celalg.{home}")
    assert callable(getattr(module, name, None)), f"celalg.{home}.{name}"


@pytest.mark.parametrize("build", [rules_extended, rules_deformed])
def test_captured_rule_tables_expose_memos(build):
    rs = build(simple_lie_algebra("A", 1))
    assert isinstance(rs.base_memo, dict) and rs.base_memo
    assert isinstance(rs.full_memo, dict)


def _workload_calls():
    """(module, function, positional count, keyword names) of every call of
    the form mods.<module>.<function>(...) in bench/workloads.py."""
    calls = set()
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "mods"):
            # a starred argument (build_root_system(*split_type(name))) is
            # a (series, rank) pair
            npos = sum(2 if isinstance(arg, ast.Starred) else 1 for arg in node.args)
            calls.add((func.value.attr, func.attr, npos,
                       tuple(kw.arg for kw in node.keywords)))
    return sorted(calls)


def test_workloads_call_the_grid_and_the_solver_with_keywords():
    names = {(home, name, kws) for home, name, _, kws in _workload_calls()}
    assert ("celestial", "verify_jacobi_grid", ("level", "jobs")) in names
    assert ("celestial", "solve_constants", ("master_seed",)) in names


@pytest.mark.parametrize("home,name,npos,keywords", [
    pytest.param(*call, id=f"{call[0]}.{call[1]}") for call in _workload_calls()])
def test_workload_call_binds(home, name, npos, keywords):
    function = getattr(importlib.import_module(f"celalg.{home}"), name)
    inspect.signature(function).bind(*range(npos), **dict.fromkeys(keywords))


def _result_reads():
    """{variable: (attributes read, keys read from its details)} for the
    result variables `sol` and `rep` of bench/workloads.py."""
    reads = {"sol": (set(), set()), "rep": (set(), set())}
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in reads):
            reads[node.value.id][0].add(node.attr)
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "details" and isinstance(node.value.value, ast.Name)
                and node.value.value.id in reads
                and isinstance(node.slice, ast.Constant)):
            reads[node.value.value.id][1].add(node.slice.value)
    return reads


def test_workloads_read_fields_the_results_have():
    # a renamed or reshaped result field would otherwise only show as
    # failed benchmark items
    from celalg.celestial import solve_constants, verify_jacobi_grid
    reads = _result_reads()
    assert {"status", "d_over_beta2", "c_over_beta2", "triples", "rows"} <= reads["sol"][0]
    assert {"details", "passed"} <= reads["rep"][0] and "triples" in reads["rep"][1]
    L = simple_lie_algebra("A", 1)
    sol = solve_constants(L, master_seed=0)
    rep = verify_jacobi_grid(L, 0, level="extended", jobs=1)
    for attrs, keys, result in ((*reads["sol"], sol), (*reads["rep"], rep)):
        for attr in attrs:
            assert hasattr(result, attr), attr
        for key in keys:
            assert key in result.details, key
    assert isinstance(sol.status, str) and isinstance(sol.triples, int)
    assert isinstance(sol.rows, int) and isinstance(rep.passed, bool)
    assert rep.details["triples"] == rep.details["generators"] ** 3


def _algebra_reads():
    """The attributes bench/workloads.py and bench/run.py read off their
    algebra variables L and M."""
    reads = set()
    for path in (BENCH / "workloads.py", BENCH / "run.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("L", "M")):
                reads.add(node.attr)
    return reads


def test_bench_reads_fields_the_algebras_have(tmp_path):
    # fresh builds and cache loads alike: the cache round trip and the
    # warm-cache reload compare fields of both
    reads = _algebra_reads()
    assert {"dim", "f", "h_dual_coxeter", "pairing", "pairing_inv", "series",
            "rank"} <= reads
    fresh = chevalley_basis(build_root_system("A", 2))
    path = tmp_path / "A2.sc"
    save_structure_constants(fresh, str(path))
    loaded = algebra_from_cache("A", 2, str(path))
    for L in (fresh, loaded):
        for attr in sorted(reads):
            assert hasattr(L, attr), attr
