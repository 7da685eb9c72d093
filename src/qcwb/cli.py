"""Command-line front door.

Subcommands: ``smooth`` (run the smoothing pipeline on a triple file),
``boundary`` (winding computation for a builtin scenario or an endpoint-pair
file), ``check`` (the seeded check suite of :mod:`qcwb.checks`), and
``relations`` (evaluate a relation file against an environment, or run a
delta sweep).  Each subcommand takes only the flags it reads.  All reports
are UTF-8 JSON with sorted keys; given the same configuration and seed the
bytes are identical except for the timestamp field.

Exit codes: 0 success; 1 suite or invariant failure; 2 spectral-gap or
winding conditioning failure; 3 residual precondition failure; 64 malformed
input, usage errors included (an unknown subcommand, a flag the subcommand
does not take, or a flag value argparse cannot read); 65 relation syntax or
validation error.  ``EXIT_CODES`` maps each library exception to one of them.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from functools import cache

import numpy as np

from . import __version__, checks
from .linalg import PROFILES, NoConvergence
from .qc_model import FactorizationResidualTooLarge, QcTriple, canonical_generators
from .boundary import (
    BScenarioRep,
    EndpointDefect,
    LiftResidual,
    SCENARIO_NAMES,
    WindingIllConditioned,
    builtin_scenario,
    run_scenario,
)
from .relations import (
    RelationSyntaxError,
    SamplerExhausted,
    UnboundVariable,
    ValidationError,
    delta_eps_sweep,
    parse,
    parse_expression,
    perturbation_sampler,
    residuals,
)
from .serialize import (
    FormatError,
    _finite_float,
    _is_number,
    dump_json,
    env_from_obj,
    load_json,
    triple_from_obj,
    triple_to_obj,
)
from .smoothing import (
    NoWorkableTheta,
    ResidualTooLarge,
    SmoothingParams,
    SpectralGapFailure,
    auto_theta,
    smooth_representation,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_GAP = 2
EXIT_RESIDUAL = 3
EXIT_BAD_INPUT = 64
EXIT_BAD_RELATION = 65

# Every library failure a command can meet, mapped to its exit code.  The
# first matching class wins, so subclasses of ValueError (ResidualTooLarge,
# the relation errors) come before the catch-all for malformed input.
# NoWorkableTheta reports how its last attempt failed.
EXIT_CODES = (
    (NoWorkableTheta, lambda exc: EXIT_GAP if exc.last_failure == "gap" else EXIT_RESIDUAL),
    (SpectralGapFailure, EXIT_GAP),
    (WindingIllConditioned, EXIT_GAP),
    (NoConvergence, EXIT_GAP),
    (ResidualTooLarge, EXIT_RESIDUAL),
    (LiftResidual, EXIT_RESIDUAL),
    (EndpointDefect, EXIT_RESIDUAL),
    (FactorizationResidualTooLarge, EXIT_RESIDUAL),
    (RelationSyntaxError, EXIT_BAD_RELATION),
    (ValidationError, EXIT_BAD_RELATION),
    (SamplerExhausted, EXIT_FAIL),
    # a declared variable missing from --env (a KeyError, not a ValueError)
    (UnboundVariable, EXIT_BAD_INPUT),
    # malformed files (FormatError), bad flag combinations, out-of-range parameters
    ((OSError, ValueError), EXIT_BAD_INPUT),
)


def _emit(args, result: dict) -> None:
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool": f"qcwb {__version__}",
        "subcommand": args.command,
        "seed": args.seed,
        "result": result,
    }
    text = dump_json(report, args.output)
    if args.output is None:
        sys.stdout.write(text)


def cmd_smooth(args) -> int:
    triple = QcTriple(*triple_from_obj(load_json(args.input)))
    if args.theta is not None:
        params = SmoothingParams(epsilon=args.epsilon, theta=args.theta, profile=args.profile)
        out, report = smooth_representation(triple, params)
    else:
        params, out, report = auto_theta(triple, args.epsilon, args.profile)
    result = report.to_obj()
    result["output_triple"] = triple_to_obj(out.h, out.x, out.k)
    _emit(args, result)
    return EXIT_OK if report.success else EXIT_FAIL


def _load_boundary_rep(args) -> BScenarioRep:
    if args.scenario is not None:
        return builtin_scenario(args.scenario)
    obj = load_json(args.input)
    if not isinstance(obj, dict) or "at0" not in obj or "at1" not in obj:
        raise FormatError("boundary input must hold 'at0' and 'at1' triples")
    return BScenarioRep(
        QcTriple(*triple_from_obj(obj["at0"])),
        QcTriple(*triple_from_obj(obj["at1"])),
    )


def cmd_boundary(args) -> int:
    rep = _load_boundary_rep(args)
    result, _, _ = run_scenario(rep, grid_size=args.grid, profile=args.profile)
    _emit(args, result.to_obj())
    return EXIT_OK if result.invariants_hold() else EXIT_FAIL


def cmd_check(args) -> int:
    records = checks.suite(args.seed, args.grid, args.profile)
    all_pass = all(c["pass"] for c in records)
    _emit(args, {"checks": records, "all_pass": all_pass})
    return EXIT_OK if all_pass else EXIT_FAIL


def _spec_int(spec: dict, key: str, default: int) -> int:
    value = spec.get(key, default)
    if not _is_number(value, int):
        raise FormatError(f"sweep spec {key!r} must be an integer, got {value!r}")
    return value


def cmd_relations(args) -> int:
    if args.grid is not None and args.scenario is None:
        raise FormatError("--grid is read only with --scenario canonical")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {args.input}: {exc}")
    rs = parse(source)
    if args.sweep is not None:
        spec = load_json(args.sweep)
        if not isinstance(spec, dict) or not isinstance(spec.get("consequence"), str):
            raise FormatError("sweep spec must hold a 'consequence' expression as a string")
        consequence = parse_expression(spec["consequence"], rs.variables)
        deltas = spec.get("deltas", [1e-2, 1e-3, 1e-4, 1e-5])
        if not isinstance(deltas, list):
            raise FormatError(f"sweep spec 'deltas' must be a list of numbers, got {deltas!r}")
        deltas = [_finite_float(d, "sweep spec 'deltas'") for d in deltas]
        if not all(d > 0.0 for d in deltas):
            raise FormatError(f"sweep spec 'deltas' must be positive, got {deltas!r}")
        samples = _spec_int(spec, "samples_per_delta", 5)
        if samples < 1:
            raise FormatError(f"sweep spec 'samples_per_delta' must be at least 1, got {samples}")
        sampler = perturbation_sampler(m=_spec_int(spec, "sampler_grid", 4), profile=args.profile)
        table = delta_eps_sweep(
            rs,
            consequence,
            sampler,
            deltas,
            samples_per_delta=samples,
            rng=np.random.default_rng(args.seed),
            profile=args.profile,
        )
        result = {"sweep": [[d, v] for d, v in table]}
    else:
        if args.env is not None:
            env = env_from_obj(load_json(args.env))
        else:  # --scenario canonical
            trip = canonical_generators(4 if args.grid is None else args.grid)
            env = {"h": trip.h, "x": trip.x, "k": trip.k}
        result = {"residuals": residuals(rs, env, args.profile)}
    _emit(args, result)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which is ``EXIT_GAP`` here; this parser, and
    the subcommand parsers made from it, exit ``EXIT_BAD_INPUT`` instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each subcommand takes ``--output``,
    ``--seed`` and ``--tolerance-profile``, and only the other flags that it
    reads."""
    parser = _Parser(
        prog="qcwb",
        description="Workbench for quadratic matrix relation systems",
    )
    parser.add_argument("--version", action="version", version=f"qcwb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        p.add_argument("--tolerance-profile", default="default", choices=sorted(PROFILES))
        p.set_defaults(func=func)
        return p

    p = subcommand("smooth", cmd_smooth, "smooth an approximate representation")
    p.add_argument("--input", required=True, help="triple file")
    p.add_argument("--epsilon", type=float, default=0.1, help="target distance (default 0.1)")
    p.add_argument("--theta", type=float, help="cutoff width (skips the auto search)")

    p = subcommand(
        "boundary", cmd_boundary, f"winding pipeline; scenarios: {', '.join(SCENARIO_NAMES)}"
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="builtin scenario name")
    source.add_argument("--input", help="endpoint-pair file")
    p.add_argument("--grid", type=int, default=64, help="initial grid size (default 64)")

    p = subcommand("check", cmd_check, "run the seeded property suites")
    p.add_argument("--grid", type=int, default=16, help="canonical-generator grid (default 16)")

    p = subcommand("relations", cmd_relations, "evaluate a relation file or run a sweep")
    p.add_argument("--input", required=True, help="relation file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--env", help="JSON file mapping variable names to matrices")
    mode.add_argument("--scenario", choices=["canonical"], help="the canonical generators as env")
    mode.add_argument("--sweep", help="JSON sweep specification")
    p.add_argument("--grid", type=int, help="grid of --scenario canonical, and only of it (default 4)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.profile = PROFILES[args.tolerance_profile]
        return args.func(args)
    except Exception as exc:
        for cls, code in EXIT_CODES:
            if isinstance(exc, cls):
                print(f"{args.command}: {exc}", file=sys.stderr)
                return code(exc) if callable(code) else code
        raise


if __name__ == "__main__":
    sys.exit(main())
