"""Command-line verification suites.

Three subcommands:

  classify   quartic trace-identity membership table over the standard scan
  solve      deformation constants from the defect solver vs. closed forms
  verify     zero-defect Jacobi grid plus the trace-identity batches

Exit codes: 0 all checks pass, 1 verification failure, 2 configuration
error, 3 internal error (a broken invariant of the construction or of the
bracket engine, never a verdict).  Every flag can also be set through an
environment variable with the CELALG_ prefix (flag --grid-max ->
CELALG_GRID, see _ENV_VARS); command-line values win.  Structured output
(--json) is a single deterministic document on stdout; progress and timing
go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import adinv
from .celestial import (
    ADMISSIBLE_TYPES,
    ModelError,
    RuleIntegrityError,
    closed_form_fractions,
    matches_closed_form,
    solve_constants,
    verify_jacobi_grid,
)
from .lambdacalc import InternalConsistencyError, UndefinedBracket
from .liealg import (
    ConfigurationError,
    ConstructionError,
    LieAlgebra,
    algebra_from_cache,
    save_structure_constants,
    simple_lie_algebra,
)
from .report import Report

_ENV_VARS = {
    "grid": "CELALG_GRID",
    "samples": "CELALG_SAMPLES",
    "seed": "CELALG_SEED",
    "json": "CELALG_JSON",
    "enable_e78": "CELALG_ENABLE_E78",
    "cache_dir": "CELALG_CACHE_DIR",
    "max_rank": "CELALG_MAX_RANK",
}

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

# broken invariants: their own exit code, so they never pass for a failed
# verification
_INTERNAL_ERRORS = (ConstructionError, InternalConsistencyError, ModelError,
                    RuleIntegrityError, UndefinedBracket)


@dataclass
class RunConfig:
    command: str
    series: Optional[str] = None
    rank: Optional[int] = None
    grid_max: int = 2
    samples: int = 100
    master_seed: int = 0
    json_output: bool = False
    enable_e78: bool = False
    cache_dir: Optional[str] = None
    max_rank: int = 4

    def echo(self) -> dict:
        # beta is always formal: a zero defect at formal beta is the zero
        # polynomial in beta, so it decides every numeric beta too
        out = {"command": self.command, "seed": self.master_seed, "beta": "formal"}
        if self.series:
            out["algebra"] = f"{self.series}{self.rank}"
        if self.command == "verify":
            out["grid_max"] = self.grid_max
        if self.command in ("verify", "classify"):
            out["samples"] = self.samples
        if self.command == "classify":
            out["max_rank"] = self.max_rank
            out["enable_e78"] = self.enable_e78
        return out


def parse_algebra(text: str) -> Tuple[str, int]:
    m = re.fullmatch(r"([A-Ga-g])(\d+)", text.strip())
    if not m:
        raise ConfigurationError(f"cannot parse algebra name {text!r}")
    return m.group(1).upper(), int(m.group(2))


def _resolve(cli_value, key: str, cast, default, least=None):
    """The flag's value, else its environment variable's, else the default;
    a number below `least` is a configuration error."""
    value = default if cli_value is None else cli_value
    raw = os.environ.get(_ENV_VARS[key])
    if cli_value is None and raw is not None:
        try:
            value = cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad {_ENV_VARS[key]}={raw!r}: {exc}")
    if least is not None and value < least:
        raise ConfigurationError(
            f"--{key.replace('_', '-')} ({_ENV_VARS[key]}) must be at least "
            f"{least}, not {value}")
    return value


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _bool_cast(raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ValueError("expected 1/0, true/false, yes/no or on/off") from None


def get_algebra(series: str, rank: int, cache_dir: Optional[str]) -> LieAlgebra:
    """Build the algebra, consulting the structure-constant cache if set;
    a cache path that cannot be read or written is a configuration error."""
    if not cache_dir:
        return simple_lie_algebra(series, rank)
    path = os.path.join(cache_dir, f"{series}{rank}.sc")
    try:
        os.makedirs(cache_dir, exist_ok=True)
        if os.path.exists(path):
            return algebra_from_cache(series, rank, path)
        L = simple_lie_algebra(series, rank)
        save_structure_constants(L, path)
    except OSError as exc:
        raise ConfigurationError(f"cache directory {cache_dir}: {exc}") from exc
    return L


def _emit(cfg: RunConfig, document: dict, text_lines: List[str]) -> None:
    """Write the document or the text lines to stdout.  A reader that closed
    stdout ends the writing, not the run: the verdict's exit code stands."""
    text = (json.dumps(document, sort_keys=True, indent=2) if cfg.json_output
            else "\n".join(text_lines))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the unwritten rest stays buffered; at devnull the exit flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _status(flag: bool) -> str:
    return "pass" if flag else "FAIL"


def cmd_classify(cfg: RunConfig) -> int:
    rows = adinv.classify(cfg.max_rank, cfg.enable_e78,
                          samples=max(24, cfg.samples // 4),
                          master_seed=cfg.master_seed)
    expected = {f"{s}{r}" for s, r in ADMISSIBLE_TYPES}
    ok = all((name in expected) == found for name, found, _ in rows)
    lines = [f"{'type':<6} {'member':<8} alpha"]
    for name, found, alpha in rows:
        lines.append(f"{name:<6} {str(found).lower():<8} {alpha if alpha is not None else '-'}")
    lines.append(f"classification {_status(ok)}")
    document = {
        "config": cfg.echo(),
        "results": [{"type": name, "member": found,
                     "alpha": None if alpha is None else str(alpha)}
                    for name, found, alpha in rows],
        "pass": ok,
    }
    _emit(cfg, document, lines)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_solve(cfg: RunConfig) -> int:
    L = get_algebra(cfg.series, cfg.rank, cfg.cache_dir)
    sol = solve_constants(L, master_seed=cfg.master_seed)
    admissible = (L.series, L.rank) in ADMISSIBLE_TYPES
    closed = closed_form_fractions(L) if admissible else None
    agree = matches_closed_form(L, sol)
    lines = [f"algebra {L.name}: dim {L.dim}, dual Coxeter {L.h_dual_coxeter}",
             f"solver status: {sol.status} ({sol.rows} distinct rows; "
             f"{sol.triples} triples, {sol.computed} computed)"]
    if sol.status == "unique":
        lines.append(f"  D = ({sol.d_over_beta2}) beta^2")
        lines.append(f"  C = ({sol.c_over_beta2}) beta^2")
    if closed is not None:
        lines.append(f"closed form: D = ({closed[0]}) beta^2, C = ({closed[1]}) beta^2")
    else:
        lines.append("closed form: not admissible (only beta = D = C = 0)")
    lines.append(f"agreement {_status(agree)}")
    document = {
        "config": cfg.echo(),
        "results": [{
            "solution": sol.to_dict(),
            "closed_form": None if closed is None else
            {"D_over_beta2": str(closed[0]), "C_over_beta2": str(closed[1])},
            "admissible": admissible,
            "agreement": agree,
        }],
        "pass": agree,
    }
    _emit(cfg, document, lines)
    return EXIT_OK if agree else EXIT_FAIL


def cmd_verify(cfg: RunConfig) -> int:
    L = get_algebra(cfg.series, cfg.rank, cfg.cache_dir)
    reports: List[Report] = []
    t0 = time.perf_counter()
    reports.append(verify_jacobi_grid(L, cfg.grid_max, level="extended"))
    print(f"[{time.perf_counter() - t0:7.1f}s] jacobi grid done", file=sys.stderr)
    reports.extend(adinv.trace_identity_suite(L, samples=cfg.samples,
                                              master_seed=cfg.master_seed))
    print(f"[{time.perf_counter() - t0:7.1f}s] trace-identity batches done",
          file=sys.stderr)
    ok = all(r.passed for r in reports)
    lines = []
    for r in reports:
        extra = ""
        if r.check == "jacobi_grid":
            extra = (f" ({r.details['triples']} triples, grid "
                     f"{r.details['grid_max']})")
        elif r.samples:
            extra = f" ({r.samples} samples)"
        lines.append(f"{r.check:<28} {_status(r.passed)}{extra}")
        if r.first_counterexample is not None:
            lines.append(f"    first counterexample: {r.first_counterexample}")
    lines.append(f"verification {_status(ok)}")
    document = {
        "config": cfg.echo(),
        "results": [r.to_dict() for r in reports],
        "pass": ok,
    }
    _emit(cfg, document, lines)
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celalg",
        description="Exact verification suites for celestial current algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed for all sampled elements")
        p.add_argument("--json", action="store_true", default=None,
                       help="emit one structured JSON document on stdout")
        p.add_argument("--cache-dir", default=None,
                       help="directory of structure-constant cache files")

    p_classify = sub.add_parser("classify",
                                help="quartic trace-identity membership table")
    common(p_classify)
    p_classify.add_argument("--max-rank", type=int, default=None)
    p_classify.add_argument("--samples", type=int, default=None)
    p_classify.add_argument("--enable-e78", action="store_true", default=None,
                            help="include the two largest exceptional types")

    p_solve = sub.add_parser("solve", help="deformation constants for one algebra")
    common(p_solve)
    p_solve.add_argument("algebra", help="type name, e.g. A1, G2, D4")

    p_verify = sub.add_parser("verify", help="Jacobi grid and trace identities")
    common(p_verify)
    p_verify.add_argument("algebra", help="type name, e.g. A1, G2, D4")
    p_verify.add_argument("--grid", type=int, default=None,
                          help="max bidegree entry in the Jacobi grid")
    p_verify.add_argument("--samples", type=int, default=None)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "algebra", None) is not None:
        cfg.series, cfg.rank = parse_algebra(args.algebra)
    cfg.master_seed = _resolve(args.seed, "seed", int, 0)
    cfg.json_output = _resolve(args.json, "json", _bool_cast, False)
    cfg.cache_dir = _resolve(args.cache_dir, "cache_dir", str, None)
    if hasattr(args, "samples"):
        cfg.samples = _resolve(args.samples, "samples", int, 100, least=1)
    if hasattr(args, "grid"):
        cfg.grid_max = _resolve(args.grid, "grid", int, 2, least=0)
    if hasattr(args, "max_rank"):
        cfg.max_rank = _resolve(args.max_rank, "max_rank", int, 4, least=4)
    if hasattr(args, "enable_e78"):
        cfg.enable_e78 = _resolve(args.enable_e78, "enable_e78", _bool_cast, False)
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        t0 = time.perf_counter()
        if cfg.command == "classify":
            code = cmd_classify(cfg)
        elif cfg.command == "solve":
            code = cmd_solve(cfg)
        else:
            code = cmd_verify(cfg)
        print(f"[{time.perf_counter() - t0:7.1f}s] total", file=sys.stderr)
        return code
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _INTERNAL_ERRORS as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
