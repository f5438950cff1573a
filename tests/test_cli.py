"""Command-line interface: exit codes, determinism, golden files, and flags
as the only input (the environment is never read)."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from celalg.cli import RunConfig, build_parser, config_from_args, main, parse_algebra
from celalg.liealg import ConfigurationError

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).parent.parent / "src")


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    # the child imports celalg from this checkout, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "celalg.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_algebra():
    assert parse_algebra("A1") == ("A", 1)
    assert parse_algebra("g2") == ("G", 2)
    assert parse_algebra("E6") == ("E", 6)
    with pytest.raises(ConfigurationError):
        parse_algebra("H3")
    with pytest.raises(ConfigurationError):
        parse_algebra("A")


def test_solve_a1_exit_zero_and_golden():
    code, out, _ = run_cli(["solve", "A1", "--json"])
    assert code == 0
    assert out == (GOLDEN / "solve_a1.json").read_text()


def test_solve_a2_golden():
    code, out, _ = run_cli(["solve", "A2", "--json"])
    assert code == 0
    assert out == (GOLDEN / "solve_a2.json").read_text()


def test_solve_deterministic_reruns():
    code1, out1, _ = run_cli(["solve", "A1", "--json", "--seed", "5"])
    code2, out2, _ = run_cli(["solve", "A1", "--json", "--seed", "5"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_solve_non_admissible_passes_as_trivial():
    code, out, _ = run_cli(["solve", "B2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["solution"]["status"] == "trivial_only"
    assert doc["results"][0]["closed_form"] is None


def test_verify_small_grid_exit_zero():
    code, out, _ = run_cli(["verify", "A1", "--grid", "1", "--samples", "10",
                            "--seed", "7", "--json"])
    assert code == 0
    doc = json.loads(out)
    checks = {r["check"] for r in doc["results"]}
    assert checks == {"jacobi_grid", "contract_identity", "dihedral_symmetry",
                      "commutator_trace_identity", "polarized_quartic"}
    assert doc["pass"] is True


def test_verify_text_mode():
    code, out, _ = run_cli(["verify", "A1", "--grid", "0", "--samples", "5"])
    assert code == 0
    assert "jacobi_grid" in out and "verification pass" in out


def test_verify_a1_grid1_golden():
    # the grid's ledger (computed, covered and spot-checked counts) shows up
    # here as a diff whenever it changes
    code, out, _ = run_cli(["verify", "A1", "--grid", "1", "--samples", "5",
                            "--seed", "0", "--json"])
    assert code == 0
    assert out == (GOLDEN / "verify_a1_grid1.json").read_text()


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv,code", [
    (["verify", "A1", "--grid", "0", "--samples", "1", "--json"], 0),
    (["verify", "A1", "--grid", "0", "--samples", "1"], 0),
    (["solve", "A1", "--json"], 0),
    # a failed verification keeps its own code with the reader gone
    (["solve", "A1", "--json"], 1),
])
def test_closed_stdout_keeps_the_verdict(tmp_path, monkeypatch, argv, code):
    if code:
        monkeypatch.setattr("celalg.cli.matches_closed_form", lambda L, sol: False)
    target = tmp_path / "stdout"
    with open(target, "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        assert main(argv) == code
        # the descriptor now points at devnull, so the exit flush is quiet
        os.write(fh.fileno(), b"after the reader left")
    assert target.read_bytes() == b""


def test_closed_stdout_pipe_exits_quietly():
    # `celalg verify ... | head -1`, with the reader gone before any write
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    # block-buffered, as stdout to a pipe is by default, so that a write
    # left to the exit flush would meet the closed pipe there
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "celalg.cli", "verify", "A1",
                               "--grid", "0", "--samples", "1", "--json"],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_configuration_error_exit_two():
    code, _, err = run_cli(["solve", "Q9"])
    assert code == 2
    assert "configuration error" in err
    # the grid runs serially: there is no worker count to set
    code, _, err = run_cli(["verify", "A1", "--jobs", "2"])
    assert code == 2 and "unrecognized arguments: --jobs" in err
    # a negative grid or no samples would pass on zero triples or samples
    for args in (["--grid", "-1"], ["--samples", "0"]):
        code, out, err = run_cli(["verify", "A1", *args])
        assert (code, out) == (2, ""), args
        assert err.startswith("configuration error: --") and "at least" in err
        assert len(err.splitlines()) == 1
    # classify decides alpha exactly and takes no sample count
    code, _, err = run_cli(["classify", "--samples", "0"])
    assert code == 2 and "unrecognized arguments: --samples" in err


def test_unknown_flag_exit_two():
    code, _, _ = run_cli(["solve", "A1", "--bogus"])
    assert code == 2


def test_solve_refuses_beta():
    # solve and verify keep beta formal: a zero defect at formal beta is the
    # zero polynomial in beta, so a numeric beta could only weaken the check
    for command in ("solve", "verify"):
        code, out, err = run_cli([command, "A1", "--beta", "2"])
        assert (code, out) == (2, ""), command
        assert "--beta" in err


@pytest.mark.parametrize("argv,bare", [
    (["verify", "A1"], RunConfig("verify", "A", 1)),
    (["classify"], RunConfig("classify")),
])
def test_unset_flags_take_the_run_config_defaults(argv, bare):
    # no flag: every field is RunConfig's own default
    cfg = config_from_args(build_parser().parse_args(argv))
    assert dataclasses.asdict(cfg) == dataclasses.asdict(bare)


def test_stray_environment_has_no_effect(tmp_path):
    # variables named like the flags, a misspelled one, and a cache
    # directory that is a file: the output is the golden, byte for byte
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    stray = {"CELALG_GRID": "9", "CELALG_GIRD": "9", "CELALG_SEED": "42",
             "CELALG_SAMPLES": "0", "CELALG_JSON": "maybe",
             "CELALG_CACHE_DIR": str(blocker)}
    code, out, err = run_cli(["verify", "A1", "--grid", "1", "--samples", "5", "--json"],
                             env_extra=stray)
    assert code == 0, err
    assert out == (GOLDEN / "verify_a1_grid1.json").read_text()


def test_cache_dir_is_not_a_flag(tmp_path):
    code, out, err = run_cli(["solve", "A1", "--cache-dir", str(tmp_path)])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --cache-dir" in err


def test_internal_error_exit_three(monkeypatch, capsys):
    from celalg import cli
    from celalg.celestial import ModelError

    def broken(*args, **kwargs):
        raise ModelError("defect coefficient outside span\n  on a triple")

    monkeypatch.setattr(cli, "solve_constants", broken)
    assert main(["solve", "A1"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["internal error: ModelError: defect coefficient outside span "
                   "on a triple"]


def test_classify_via_main_inprocess(capsys):
    # in-process invocation for speed; the default scan holds every
    # exceptional type, so the whole admissible list
    code = main(["classify", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    members = {r["type"] for r in doc["results"] if r["member"]}
    assert members == {"A1", "A2", "D4", "G2", "F4", "E6", "E7", "E8"}
    alphas = {r["type"]: r["alpha"] for r in doc["results"]}
    assert alphas["A1"] == "1/2"
    assert (alphas["E7"], alphas["E8"]) == ("1/54", "1/100")
    assert alphas["B2"] is None
    assert set(doc["config"]) == {"command", "seed", "beta", "max_rank"}


@pytest.mark.parametrize("name,planted", [
    ("G2", lambda alpha: alpha * 2),
    ("E8", lambda alpha: None),
    ("B3", lambda alpha: Fraction(1, 20)),
], ids=["member-with-a-wrong-alpha", "member-missing", "non-member-with-an-alpha"])
def test_classify_fails_on_a_planted_alpha(monkeypatch, capsys, name, planted):
    from celalg import adinv
    quartic_alpha = adinv.quartic_alpha

    def planted_alpha(L, master_seed=0):
        alpha = quartic_alpha(L, master_seed=master_seed)
        return planted(alpha) if L.name == name else alpha

    monkeypatch.setattr(adinv, "quartic_alpha", planted_alpha)
    assert main(["classify"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "classification FAIL"


def test_classify_always_scans_e7_and_e8():
    # there is no switch for the two largest exceptional types
    code, out, err = run_cli(["classify", "--enable-e78"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --enable-e78" in err


def test_classify_max_rank_guard():
    code, _, _ = run_cli(["classify", "--max-rank", "3"])
    assert code == 2
