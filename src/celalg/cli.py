"""Command-line verification suites.

Three subcommands:

  classify   quartic alpha and membership of each type, checked against the
             admissible list and the value 5 / (2 (2 + dim))
  solve      deformation constants from the defect solver vs. closed forms
  verify     zero-defect Jacobi grid plus the trace-identity batches

Exit codes: 0 all checks pass, 1 verification failure, 2 configuration
error, 3 internal error (a broken invariant of the construction or of the
bracket engine, never a verdict).  The flags are the only input: each
takes its default from RunConfig, and the environment is never read.
Structured output (--json) is a single deterministic document on stdout;
progress and timing go to stderr.
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
from .liealg import ConfigurationError, ConstructionError, simple_lie_algebra
from .report import Report

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
    max_rank: int = 4

    def echo(self) -> dict:
        # beta is always formal: a zero defect at formal beta is the zero
        # polynomial in beta, so it decides every numeric beta too
        out = {"command": self.command, "seed": self.master_seed, "beta": "formal"}
        if self.series:
            out["algebra"] = f"{self.series}{self.rank}"
        if self.command == "verify":
            out["grid_max"] = self.grid_max
            out["samples"] = self.samples
        if self.command == "classify":
            out["max_rank"] = self.max_rank
        return out


def parse_algebra(text: str) -> Tuple[str, int]:
    m = re.fullmatch(r"([A-Ga-g])(\d+)", text.strip())
    if not m:
        raise ConfigurationError(f"cannot parse algebra name {text!r}")
    return m.group(1).upper(), int(m.group(2))


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
    rows = adinv.classify(cfg.max_rank, master_seed=cfg.master_seed)
    admissible = {f"{s}{r}" for s, r in ADMISSIBLE_TYPES}
    # a member must carry 5 / (2 (2 + dim)), every other type no alpha
    ok = all(alpha == (adinv.expected_alpha(dim) if name in admissible else None)
             for name, dim, alpha in rows)
    lines = [f"{'type':<6} {'member':<8} alpha"]
    for name, _, alpha in rows:
        member = str(alpha is not None).lower()
        lines.append(f"{name:<6} {member:<8} {alpha if alpha is not None else '-'}")
    lines.append(f"classification {_status(ok)}")
    document = {
        "config": cfg.echo(),
        "results": [{"type": name, "member": alpha is not None,
                     "alpha": None if alpha is None else str(alpha)}
                    for name, _, alpha in rows],
        "pass": ok,
    }
    _emit(cfg, document, lines)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_solve(cfg: RunConfig) -> int:
    L = simple_lie_algebra(cfg.series, cfg.rank)
    sol = solve_constants(L, master_seed=cfg.master_seed)
    admissible = (L.series, L.rank) in ADMISSIBLE_TYPES
    closed = closed_form_fractions(L) if admissible else None
    agree = matches_closed_form(L, sol)
    lines = [f"algebra {L.name}: dim {L.dim}, dual Coxeter {L.h_dual_coxeter}",
             f"solver status: {sol.status} ({sol.rows} distinct rows; "
             f"{sol.triples} triples, {sol.computed} computed, "
             f"{sol.spot_checked} spot-checked)"]
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
    L = simple_lie_algebra(cfg.series, cfg.rank)
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

    # each dest is a RunConfig field, defaulting to that field's default
    def common(p):
        p.add_argument("--seed", dest="master_seed", type=int,
                       default=RunConfig.master_seed, metavar="SEED",
                       help="master seed for all sampled elements")
        p.add_argument("--json", dest="json_output", action="store_true",
                       help="emit one structured JSON document on stdout")

    p_classify = sub.add_parser("classify",
                                help="quartic trace-identity membership table")
    common(p_classify)
    p_classify.add_argument("--max-rank", type=int, default=RunConfig.max_rank)

    p_solve = sub.add_parser("solve", help="deformation constants for one algebra")
    common(p_solve)
    p_solve.add_argument("algebra", help="type name, e.g. A1, G2, D4")

    p_verify = sub.add_parser("verify", help="Jacobi grid and trace identities")
    common(p_verify)
    p_verify.add_argument("algebra", help="type name, e.g. A1, G2, D4")
    p_verify.add_argument("--grid", dest="grid_max", type=int,
                          default=RunConfig.grid_max, metavar="GRID",
                          help="max bidegree entry in the Jacobi grid")
    p_verify.add_argument("--samples", type=int, default=RunConfig.samples)

    return parser


# below these a check would be vacuous or ill-defined: a grid or a batch
# with nothing in it, or a classical scan that stops short of D4
_LEAST = (("--grid", "grid_max", 0), ("--samples", "samples", 1),
          ("--max-rank", "max_rank", 4))


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = vars(args).copy()
    algebra = fields.pop("algebra", None)
    cfg = RunConfig(**fields)
    if algebra is not None:
        cfg.series, cfg.rank = parse_algebra(algebra)
    for flag, name, least in _LEAST:
        value = getattr(cfg, name)
        if value < least:
            raise ConfigurationError(f"{flag} must be at least {least}, not {value}")
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
