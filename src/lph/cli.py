"""Command-line front end: read a polynomial system file, run one of
solve / witness / bound / verify, and emit text or JSON results.

Input file grammar (blank lines and `#` comments ignored):

    vars: x y z
    f:
        <one polynomial per line>
    J: jacobian            # build J as the transposed Jacobian of f
    J:                     # ... or explicit n rows of k comma-separated polys
        <row 1>
        ...
    beta: 1 0 0

Exit codes: 0 success, 1 verification failure (a residual above
VERIFY_TOL * max(1, magnitude), or a Newton step that fails the endpoint
rule's contraction test), 2 parse/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .linalg import InvalidBetaError, SingularMatrixError
from .poly import (
    MultiPoly,
    ParseError,
    PolySystem,
    jacobian_transpose,
    parse_poly,
    variable_index,
)
from .solver import (
    LPHProblem,
    jacobian_degree,
    lph_solve,
    root_bound,
)
from .start_systems import AllPathsFailedError, witness_points
from .tracker import (
    CONTRACTION_TOL,
    SystemEvaluator,
    contracted,
    residual_within,
)
from .witness import real_witness_set, witness_bound

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3

VERIFY_TOL = 1e-6


class InputFormatError(ValueError):
    pass


@dataclass
class SystemInput:
    """Parsed contents of an input file."""

    variables: List[str]
    f: PolySystem
    f_text: List[str]
    J: List[List[MultiPoly]]  # the transposed Jacobian of f unless given
    J_text: Optional[object]  # "jacobian", list of row strings, or None
    beta: Optional[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def k(self) -> int:
        return len(self.f)


def read_system(path: str) -> SystemInput:
    with open(path, "r") as fh:
        raw_lines = fh.read().splitlines()

    variables: Optional[List[str]] = None
    f_lines: List[tuple] = []
    j_lines: List[tuple] = []
    j_directive = None
    beta_vals = None
    section = None
    for ln, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        lower = stripped.lower()
        if lower.startswith("vars:"):
            variables = stripped[5:].split()
            if not variables:
                raise InputFormatError(f"line {ln}: empty vars declaration")
            variable_index(variables, ln)
            section = None
        elif lower.startswith("f:"):
            rest = stripped[2:].strip()
            if rest:
                f_lines.append((ln, rest))
            section = "f"
        elif lower.startswith("j:"):
            rest = stripped[2:].strip()
            if rest:
                if rest.lower() != "jacobian":
                    raise InputFormatError(
                        f"line {ln}: J directive must be 'jacobian' or an indented block"
                    )
                j_directive = "jacobian"
                section = None
            else:
                section = "J"
        elif lower.startswith("beta:"):
            try:
                beta_vals = [float(tok) for tok in stripped[5:].split()]
            except ValueError:
                raise InputFormatError(f"line {ln}: beta entries must be numbers")
            if not beta_vals:
                raise InputFormatError(f"line {ln}: empty beta line")
            section = None
        elif section == "f":
            f_lines.append((ln, stripped))
        elif section == "J":
            j_lines.append((ln, stripped))
        else:
            raise InputFormatError(f"line {ln}: unexpected content {stripped!r}")

    if variables is None:
        raise InputFormatError("missing 'vars:' declaration")
    if not f_lines:
        raise InputFormatError("missing 'f:' block")

    polys = [parse_poly(text, variables, line_no=ln) for ln, text in f_lines]
    f = PolySystem(len(variables), polys)

    J = jacobian_transpose(f)
    J_text: Optional[object] = None
    if j_directive == "jacobian":
        J_text = "jacobian"
    elif j_lines:
        n, k = len(variables), len(polys)
        if len(j_lines) != n:
            raise InputFormatError(
                f"J block has {len(j_lines)} rows, expected n = {n}"
            )
        J = []
        for ln, text in j_lines:
            cells = [c.strip() for c in text.split(",")]
            if len(cells) != k:
                raise InputFormatError(
                    f"line {ln}: J row has {len(cells)} entries, expected k = {k}"
                )
            J.append([parse_poly(c, variables, line_no=ln) for c in cells])
        J_text = [text for _, text in j_lines]

    beta = np.array(beta_vals, dtype=complex) if beta_vals is not None else None
    if beta is not None and beta.shape != (len(variables),):
        raise InputFormatError("beta length does not match vars")
    return SystemInput(variables, f, [t for _, t in f_lines], J, J_text, beta)


def to_json(doc) -> str:
    """Compact JSON.  Dicts keep their order and floats print in their
    shortest round-trip form, so identical runs give byte-identical output;
    a non-finite float raises ValueError."""
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def _complex_pairs(z: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in z]


def _echo_system(inp: SystemInput, beta: Optional[np.ndarray]) -> dict:
    doc = {"vars": inp.variables, "f": inp.f_text}
    if inp.J_text is not None:
        doc["J"] = inp.J_text
    if beta is not None:
        doc["beta"] = [float(b.real) for b in beta]
    return doc


# -- commands ----------------------------------------------------------------


def _parse_float_list(text: str, flag: str) -> List[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise InputFormatError(f"{flag} expects comma-separated numbers")


def _beta(args, inp: SystemInput, saved=None) -> np.ndarray:
    """Beta from --beta, else from the input file, else ``saved`` (the beta
    echoed in a solutions file).  --beta and the echo must each hold one
    number per variable."""
    if args.beta is not None:
        beta, source = _parse_float_list(args.beta, "--beta"), "--beta"
    elif inp.beta is not None:
        return inp.beta
    elif saved is not None:
        if not isinstance(saved, list) or not all(
                isinstance(b, (int, float)) and not isinstance(b, bool) for b in saved):
            raise InputFormatError("system.beta in the solutions file must be a list of numbers")
        beta, source = saved, "system.beta"
    else:
        raise InputFormatError(f"{args.command} requires a beta line or --beta")
    if len(beta) != inp.n:
        raise InputFormatError(f"{source} length does not match vars")
    return np.array(beta, dtype=complex)


def cmd_solve(args) -> int:
    inp = read_system(args.input)
    beta = _beta(args, inp)
    problem = LPHProblem(inp.f, inp.J, beta)
    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    result = lph_solve(problem, rng)
    elapsed = time.perf_counter() - t0
    original = problem.full_system()

    records = []
    for z in result.solutions:
        records.append(
            {
                "x": _complex_pairs(z[: inp.n]),
                "lambda": _complex_pairs(z[inp.n :]),
                "residual": original.residual(z),
            }
        )
    if args.json:
        doc = {
            "system": _echo_system(inp, beta),
            "seed": args.seed,
            "bound": result.bound,
            "counts": {
                "D": result.D,
                "omega": result.omega_count,
                "converged": result.converged,
                "divergent": result.divergent,
                "failed": result.failed,
            },
            "solutions": records,
        }
        print(to_json(doc))
    else:
        for i, rec in enumerate(records):
            x = ", ".join(f"{re:+.12g}{im:+.12g}i" for re, im in rec["x"])
            lam = ", ".join(f"{re:+.12g}{im:+.12g}i" for re, im in rec["lambda"])
            print(f"solution {i}: x = ({x})  lambda = ({lam})  residual = {rec['residual']:.3e}")
        print(
            f"summary: D={result.D} omega={result.omega_count} bound={result.bound} "
            f"converged={result.converged} divergent={result.divergent} "
            f"failed={result.failed} solutions={len(records)} elapsed={elapsed:.2f}s"
        )
    return EXIT_OK


def cmd_witness(args) -> int:
    inp = read_system(args.input)
    # without a beta, real_witness_set draws stage 0's objective
    has_beta = args.beta is not None or inp.beta is not None
    beta = _beta(args, inp).real if has_beta else None
    c_values = _parse_float_list(args.c, "--c") if args.c is not None else None
    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    rws = real_witness_set(inp.f, rng, beta=beta, c_values=c_values)
    elapsed = time.perf_counter() - t0

    records = [
        {
            "x": [float(v) for v in wp.point],
            "stage": wp.stage,
            "residual": float(wp.residual),
        }
        for wp in rws.points
    ]
    if args.json:
        doc = {
            "system": _echo_system(inp, inp.beta),
            "seed": args.seed,
            "betas": [[float(b) for b in beta] for beta in rws.betas],
            "c": [float(c) for c in rws.c_values],
            "solutions": records,
        }
        print(to_json(doc))
    else:
        print(f"betas = {np.asarray(rws.betas)}  c = {rws.c_values}")
        for i, rec in enumerate(records):
            coords = ", ".join(f"{v:+.12g}" for v in rec["x"])
            print(
                f"point {i}: ({coords})  stage = {rec['stage']}  "
                f"residual = {rec['residual']:.3e}"
            )
        print(f"summary: points={len(records)} elapsed={elapsed:.2f}s")
    return EXIT_OK


def cmd_bound(args) -> int:
    inp = read_system(args.input)
    n, k = inp.n, inp.k
    if not (n > k >= 1):
        raise InputFormatError("bound requires k < n (an underdetermined f block)")
    d = jacobian_degree(inp.J)
    d_f = max(max(p.degree, 1) for p in inp.f.polys)
    prod_deg = math.prod(max(p.degree, 1) for p in inp.f.polys)
    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    D = len(witness_points(inp.f, rng)[0])
    elapsed = time.perf_counter() - t0
    eq3 = root_bound(n, k, d, D)
    eq6 = witness_bound(n, k, d_f, D) if d_f > 1 else None
    bezout_chain = math.comb(n - 1, k - 1) * (d_f - 1) ** (n - k) * prod_deg
    total_degree = d_f**n * prod_deg
    if args.json:
        doc = {
            "system": _echo_system(inp, inp.beta),
            "seed": args.seed,
            "D": D,
            "root_bound": eq3,
            "witness_bound": eq6 if eq6 is not None else "n/a",
            "bezout_chain": bezout_chain,
            "total_degree": total_degree,
            "mixed_volume": "n/a",
        }
        print(to_json(doc))
    else:
        print(f"D = {D}")
        print(f"root bound (linear product) = {eq3}")
        print(f"witness bound = {eq6 if eq6 is not None else 'n/a'}")
        print(f"Bezout chain bound = {bezout_chain}")
        print(f"total degree product = {total_degree}")
        print("mixed volume = n/a")
        print(f"elapsed = {elapsed:.2f}s")
    return EXIT_OK


def _coordinates(values) -> np.ndarray:
    """A solutions record's coordinates: [re, im] pairs or plain numbers."""
    return np.array([complex(*v) if isinstance(v, list) else complex(v) for v in values],
                    dtype=complex)


def cmd_verify(args) -> int:
    inp = read_system(args.input)
    try:
        with open(args.solutions, "r") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"solutions file is not valid JSON: {exc}")
    records = doc.get("solutions") if isinstance(doc, dict) else None
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise InputFormatError("solutions file lacks a 'solutions' array of objects")
    if not records:
        print("warning: empty solution list, verifying vacuously", file=sys.stderr)
        print("verified 0 solutions")
        return EXIT_OK

    # records with lambda belong to the full critical system, the others to
    # the plain f block; each is judged by the solver's acceptance rule,
    # against the system it belongs to: the residual test at its magnitude,
    # and the contraction test of its least-squares Newton step (which also
    # covers the non-square f block)
    f_eval = SystemEvaluator(inp.f)
    critical = None
    if any("lambda" in rec for rec in records):
        echo = doc.get("system")
        saved = echo.get("beta") if isinstance(echo, dict) else None
        critical = SystemEvaluator(LPHProblem(inp.f, inp.J, _beta(args, inp, saved)).full_system())
    judged = []  # (residual, magnitude, step, index, passed) per record
    for i, rec in enumerate(records):
        ev = critical if "lambda" in rec else f_eval
        try:
            z = _coordinates(rec["x"])
            if len(z) != f_eval.n_vars:
                raise ValueError(f"x has {len(z)} coordinates, not {f_eval.n_vars}")
            if "lambda" in rec:
                z = np.concatenate([z, _coordinates(rec["lambda"])])
                if len(z) != ev.n_vars:
                    raise ValueError(f"lambda has {len(z) - f_eval.n_vars} coordinates, "
                                     f"not {ev.n_vars - f_eval.n_vars}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"solution record {i} is malformed: {exc!r}")
        vals_grads, magnitude = ev.evaluate(z[None])
        values, J = vals_grads[0, :, 0], vals_grads[0, :, 1:]
        # LAPACK rejects a non-finite matrix; such a point's step is NaN
        step = (np.linalg.lstsq(J, values, rcond=None)[0] if np.isfinite(J).all()
                else np.full(len(z), np.nan))
        r, m = float(np.abs(values).max()), float(magnitude.max(initial=0.0))
        ok = residual_within(r, VERIFY_TOL, m) and contracted(step, z)
        judged.append((r, m, float(np.abs(step).max()), i, ok))
    failed = [rec for rec in judged if not rec[4]]
    r, m, s, i, _ = failed[0] if failed else max(judged)
    verdict = (f"FAIL, {len(failed)} failing, the first" if failed
               else "PASS, largest residual")
    print(f"verified {len(records)} solutions by residual <= {VERIFY_TOL:g} * max(1, magnitude) "
          f"and Newton step <= {CONTRACTION_TOL:g} * (1 + |z|): {verdict} at index {i} "
          f"(residual {r:.3e}, magnitude {m:.3e}, step {s:.3e})")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lph",
        description="Linear-product homotopy solver and real witness sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads
    flags = {
        "--seed": dict(type=int, default=None, help="RNG seed (default: $LPH_SEED or 0)"),
        "--json": dict(action="store_true", help="emit JSON instead of text"),
        "--beta": dict(default=None, help="comma-separated beta override"),
        "--c": dict(default=None, help="comma-separated c values"),
    }

    def command(name, help, *names):
        p = sub.add_parser(name, help=help)
        p.add_argument("input", help="system input file")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        return p

    command("solve", "solve {f, J*lambda - beta}", "--seed", "--json", "--beta")
    command("witness", "real witness set of V_R(f)", "--seed", "--json", "--beta", "--c")
    command("bound", "degree and root-count bounds", "--seed", "--json")
    p_verify = command("verify", "re-check a JSON solution file", "--beta")
    p_verify.add_argument("solutions", help="JSON solutions file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "seed" in args:
        if args.seed is None:
            env = os.environ.get("LPH_SEED")
            try:
                args.seed = int(env) if env is not None else 0
            except ValueError:
                print(f"error: LPH_SEED must be an integer, got {env!r}", file=sys.stderr)
                return EXIT_PARSE
        if args.seed < 0 or args.seed >= 2**64:
            print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
            return EXIT_PARSE

    dispatch = {
        "solve": cmd_solve,
        "witness": cmd_witness,
        "bound": cmd_bound,
        "verify": cmd_verify,
    }
    try:
        return dispatch[args.command](args)
    except (ParseError, InputFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        SingularMatrixError,
        AllPathsFailedError,
        InvalidBetaError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # remaining ValueErrors come from input validation (shape checks
        # in the library constructors)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
