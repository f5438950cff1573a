"""The names the benchmark's tracer wraps must exist in the package.

`bench/tracer.py` patches the functions it lists by module and name, and
`bench/run.py --trace 1` reads the memo dicts of the rule tables it
captures; a rename in the package would otherwise only show as missing
metrics.  The tracer file is read here, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from celalg.celestial import rules_deformed, rules_extended
from celalg.liealg import simple_lie_algebra

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
