"""The mutation catalogue of tools/mutants.py.

Every entry's old text must still occur once in src/, its edit must leave
a file that parses, and every test it names must still be a function of its
file: a string search and two parses, always run, so a change to the code
or the tests updates the catalogue with it.  Running the mutants takes
about 40 s, so it is gated behind CELALG_MUTANTS=1, and then any surviving
mutant fails.
"""

import importlib.util
import os
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).parent.parent / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_catalogue_matches_the_code():
    assert len(mutants.CATALOGUE) == len({m.name for m in mutants.CATALOGUE})
    assert mutants.stale(mutants.CATALOGUE) == []


def test_stale_names_a_test_that_is_gone():
    entry = mutants.CATALOGUE[0]
    renamed = entry._replace(tests=("tests/test_adinv.py::test_no_such_test[A-2]",
                                    "tests/test_no_such_file.py::test_x"))
    assert mutants.stale([renamed]) == [
        f"{entry.name}: no test tests/test_adinv.py::test_no_such_test[A-2]",
        f"{entry.name}: no test tests/test_no_such_file.py::test_x"]


def test_stale_names_an_edit_that_does_not_parse():
    entry = mutants.CATALOGUE[0]
    unparsable = entry._replace(new=entry.new.rstrip(":"))
    [message] = mutants.stale([unparsable])
    assert message.startswith(f"{entry.name}: the mutated {entry.file} does not parse")


@pytest.mark.skipif(os.environ.get("CELALG_MUTANTS") != "1",
                    reason="set CELALG_MUTANTS=1 to run the mutation catalogue")
def test_every_mutant_is_killed():
    assert mutants.run(mutants.CATALOGUE) == []
