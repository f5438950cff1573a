"""Command-line interface: exit codes, determinism, golden files, env vars."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from celalg.cli import build_parser, config_from_args, main, parse_algebra
from celalg.liealg import ConfigurationError

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).parent.parent / "src")


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("CELALG_SEED", None)
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
    for args, env in ((["--grid", "-1"], None), (["--samples", "0"], None),
                      ([], {"CELALG_GRID": "-3"}), ([], {"CELALG_SAMPLES": "-3"})):
        code, out, err = run_cli(["verify", "A1", *args], env_extra=env)
        assert (code, out) == (2, ""), (args, env)
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


def test_env_var_overrides():
    # seed via env changes the config echo; flag beats env
    code, out, _ = run_cli(["solve", "A1", "--json"],
                           env_extra={"CELALG_SEED": "42"})
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 42
    code, out, _ = run_cli(["solve", "A1", "--json", "--seed", "3"],
                           env_extra={"CELALG_SEED": "42"})
    assert json.loads(out)["config"]["seed"] == 3


def test_env_var_json_toggle():
    code, out, _ = run_cli(["solve", "A1"], env_extra={"CELALG_JSON": "1"})
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("raw,value", [
    ("1", True), ("true", True), ("YES", True), (" on ", True),
    ("0", False), ("false", False), ("No", False), ("off", False),
])
def test_bool_env_words(monkeypatch, raw, value):
    monkeypatch.setenv("CELALG_JSON", raw)
    cfg = config_from_args(build_parser().parse_args(["solve", "A1"]))
    assert cfg.json_output is value


def test_unknown_bool_env_exit_two(monkeypatch, capsys):
    # an unknown word is a configuration error, never a silent false
    monkeypatch.setenv("CELALG_JSON", "maybe")
    assert main(["solve", "A1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "CELALG_JSON='maybe'" in captured.err
    monkeypatch.delenv("CELALG_JSON")
    monkeypatch.setenv("CELALG_ENABLE_E78", "2")
    assert main(["classify"]) == 2


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


def test_cache_dir_round_trip(tmp_path):
    cache = str(tmp_path / "cache")
    code1, out1, _ = run_cli(["solve", "A1", "--json", "--cache-dir", cache])
    assert code1 == 0
    assert (tmp_path / "cache" / "A1.sc").exists()
    # second run loads from the cache and must produce identical output
    code2, out2, _ = run_cli(["solve", "A1", "--json", "--cache-dir", cache])
    assert code2 == 0
    assert out1 == out2


def test_cache_file_format(tmp_path):
    cache = tmp_path / "cache"
    run_cli(["solve", "A1", "--json", "--cache-dir", str(cache)])
    lines = (cache / "A1.sc").read_text().splitlines()
    assert lines[0] == "celalg-structure-constants 1"  # format version
    assert lines[1] == "3 1 2"  # dim rank h_dual_coxeter
    for ln in lines[2:]:
        i, j, k, v = ln.split()
        assert 0 <= int(i) < 3 and 0 <= int(j) < 3 and 0 <= int(k) < 3
        int(v)  # structure constants are integers


@pytest.mark.parametrize("blocker", ["file", "directory"])
def test_unusable_cache_dir_exit_two(tmp_path, capsys, blocker):
    # a file where the cache directory should be, or a directory where the
    # cache file should be: a configuration error, not a traceback
    if blocker == "file":
        cache = tmp_path / "not-a-dir"
        cache.write_text("")
    else:
        cache = tmp_path / "cache"
        (cache / "A1.sc").mkdir(parents=True)
    assert main(["solve", "A1", "--cache-dir", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: cache directory {cache}: ")


@pytest.mark.parametrize("corrupt", ["flip_sign", "decimal_value", "non_numeric_header",
                                     "no_version", "wrong_version"])
def test_corrupt_cache_file_exit_two(tmp_path, corrupt):
    from celalg.liealg import save_structure_constants, simple_lie_algebra
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "A2.sc"
    save_structure_constants(simple_lie_algebra("A", 2), str(path))
    lines = path.read_text().splitlines()
    if corrupt == "flip_sign":
        i, j, k, v = lines[2].split()
        lines[2] = f"{i} {j} {k} {-int(v)}"
    elif corrupt == "decimal_value":
        i, j, k, v = lines[2].split()
        lines[2] = f"{i} {j} {k} {v}.5"
    elif corrupt == "non_numeric_header":
        lines[1] = "8 2 x"
    elif corrupt == "no_version":
        del lines[0]
    else:
        lines[0] = "celalg-structure-constants 0"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["solve", "A2", "--cache-dir", str(cache)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: cache file ")
    assert "A2.sc" in err


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("added,before,error", [
    # A1 is (h, e, f) = (0, 1, 2): a zero constant appended in each order
    (["1 2 1 0", "2 1 1 0"], None, "zero structure constant in line '1 2 1 0'"),
    # a second value of [h, e] before the true "0 1 1 2": the later line is named
    (["0 1 1 99"], "0 1 1 2", "repeated structure constant in line '0 1 1 2'"),
], ids=["zero", "repeated"])
def test_zero_or_repeated_cache_constant_exit_two(tmp_path, capsys, command, added,
                                                  before, error):
    from celalg.liealg import save_structure_constants, simple_lie_algebra
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "A1.sc"
    save_structure_constants(simple_lie_algebra("A", 1), str(path))
    lines = path.read_text().splitlines()
    at = len(lines) if before is None else lines.index(before)
    path.write_text("\n".join(lines[:at] + added + lines[at:]) + "\n")
    assert main([command, "A1", "--cache-dir", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: cache file {path}: {error}"]


@pytest.mark.parametrize("algebra,pair,zero,error", [
    # A2: [e_2, e_3] = N e_4 given the same sign in both orders
    ("A2", (2, 3), False, "structure constants are not antisymmetric at basis pair (2,3)"),
    # B3: [e_3, f_12] = h_2 dropped in both orders; nothing else gives h_2 alone
    ("B3", (3, 12), True, "the simple root vectors do not generate basis element 2"),
])
def test_cache_file_failing_a_lie_check_exit_two(tmp_path, capsys, algebra, pair, zero,
                                                 error):
    from celalg.liealg import save_structure_constants, simple_lie_algebra
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / f"{algebra}.sc"
    save_structure_constants(simple_lie_algebra(algebra[0], int(algebra[1])), str(path))
    lines = path.read_text().splitlines()
    i, j = pair
    n = next(n for n, ln in enumerate(lines) if ln.startswith(f"{i} {j} "))
    m = next(m for m, ln in enumerate(lines) if ln.startswith(f"{j} {i} "))
    k, v = lines[m].split()[2:]
    lines[n] = f"{i} {j} {k} {v}"
    if zero:
        # a zero constant has no line (a line with value 0 is refused)
        del lines[max(n, m)], lines[min(n, m)]
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", algebra, "--cache-dir", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: cache file {path}: {error}"]


def test_classify_via_main_inprocess(capsys):
    # in-process invocation for speed; full default scan through E6
    code = main(["classify", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    members = {r["type"] for r in doc["results"] if r["member"]}
    assert members == {"A1", "A2", "D4", "G2", "F4", "E6"}
    alphas = {r["type"]: r["alpha"] for r in doc["results"]}
    assert alphas["A1"] == "1/2"
    assert alphas["B2"] is None


def test_classify_max_rank_guard():
    code, _, _ = run_cli(["classify", "--max-rank", "3"])
    assert code == 2
