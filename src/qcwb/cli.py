"""Command-line front door.

Subcommands: ``smooth`` (run the smoothing pipeline on a triple file),
``boundary`` (winding computation for a builtin scenario or an endpoint-pair
file), ``check`` (seeded property suites over the structure lemmas), and
``relations`` (evaluate a relation file against an environment, or run a
delta sweep).  All reports are UTF-8 JSON with sorted keys; given the same
configuration and seed the bytes are identical except for the timestamp
field.

Exit codes: 0 success; 1 suite or invariant failure; 2 spectral-gap or
winding conditioning failure; 3 residual precondition failure; 64 malformed
input, usage errors included (an unknown subcommand or flag, or a flag value
argparse cannot read); 65 relation syntax or validation error.
``EXIT_CODES`` maps each library exception to one of them.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .linalg import PROFILES, NoConvergence, _span, func_calc, op_norm
from .qc_model import (
    FactorizationResidualTooLarge,
    QcTriple,
    canonical_generators,
    high_level_residuals,
    low_level_residuals,
    t_matrix,
)
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
    make_gminus,
    make_gplus,
    smooth_representation,
)
from .structures import corner_ideal_equality, make_corner_system, theta_is_homomorphism

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


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QCWB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise FormatError(f"QCWB_SEED must be an integer, got {env!r}")
    return 0


def _resolve_profile(args):
    profile = PROFILES.get(args.tolerance_profile)
    if profile is None:
        raise FormatError(
            f"unknown tolerance profile {args.tolerance_profile!r}; "
            f"choose from {sorted(PROFILES)}"
        )
    return profile


def _emit(args, subcommand: str, seed: int, result: dict) -> None:
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool": f"qcwb {__version__}",
        "subcommand": subcommand,
        "seed": seed,
        "result": result,
    }
    text = dump_json(report, args.output)
    if args.output is None:
        sys.stdout.write(text)


def cmd_smooth(args) -> int:
    seed = _resolve_seed(args)
    profile = _resolve_profile(args)
    obj = load_json(args.input)
    h, x, k = triple_from_obj(obj)
    triple = QcTriple(h, x, k)
    epsilon = args.epsilon if args.epsilon is not None else 0.1
    if args.theta is not None:
        params = SmoothingParams(epsilon=epsilon, theta=args.theta, profile=profile)
        out, report = smooth_representation(triple, params)
    else:
        params, out, report = auto_theta(triple, epsilon, profile)
    result = report.to_obj()
    result["output_triple"] = triple_to_obj(out.h, out.x, out.k)
    _emit(args, "smooth", seed, result)
    return EXIT_OK if report.success else EXIT_FAIL


def _load_boundary_rep(args) -> BScenarioRep:
    if args.scenario is not None:
        return builtin_scenario(args.scenario)
    if args.input is None:
        raise FormatError("boundary needs --scenario NAME or --input FILE")
    obj = load_json(args.input)
    if not isinstance(obj, dict) or "at0" not in obj or "at1" not in obj:
        raise FormatError("boundary input must hold 'at0' and 'at1' triples")
    return BScenarioRep(
        QcTriple(*triple_from_obj(obj["at0"])),
        QcTriple(*triple_from_obj(obj["at1"])),
    )


def cmd_boundary(args) -> int:
    seed = _resolve_seed(args)
    profile = _resolve_profile(args)
    rep = _load_boundary_rep(args)
    grid = args.grid if args.grid is not None else 64
    result, _, _ = run_scenario(rep, grid_size=grid, profile=profile)
    _emit(args, "boundary", seed, result.to_obj())
    return EXIT_OK if result.invariants_hold() else EXIT_FAIL


def _check_suite(seed: int, grid: int, profile) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def record(label: str, residual: float, threshold: float):
        checks.append(
            {
                "label": label,
                "residual": float(residual),
                "threshold": float(threshold),
                "pass": bool(residual <= threshold),
            }
        )

    trip = canonical_generators(grid)
    record(
        "canonical generators satisfy the relations",
        max(low_level_residuals(trip, profile).values()),
        1e-12,
    )
    t = t_matrix(trip)
    record("canonical block matrix is a projection", op_norm(t @ t - t, profile), 1e-12)
    record(
        "canonical block matrix has integer trace",
        abs(float(np.trace(t).real) - 2 * grid),
        1e-9,
    )

    worst_order = 0.0
    for _ in range(100):
        n = 4
        parts = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(3)
        ]
        cand = QcTriple(*(p / max(op_norm(p, profile), 1.0) for p in parts))
        low = low_level_residuals(cand, profile)
        high = high_level_residuals(cand, profile)
        margin_low = max(v - sum(high.values()) for v in low.values())
        margin_high = max(v - 5.0 * sum(low.values()) for v in high.values())
        worst_order = max(worst_order, margin_low, margin_high)
    record("relation presentations cross-bound each other", worst_order, 1e-12)

    n1, n2 = 3, 3
    n = n1 + n2
    h = np.zeros((n, n), dtype=complex)
    k = np.zeros((n, n), dtype=complex)
    a = rng.standard_normal((n1, n1)) + 1j * rng.standard_normal((n1, n1))
    b = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
    h[:n1, :n1] = a @ a.conj().T
    k[n1:, n1:] = b @ b.conj().T
    sys_corner = make_corner_system(h, k, profile)
    worst_mul = 0.0
    worst_adj = 0.0
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        m_res, a_res = theta_is_homomorphism(sys_corner, s, trials=10, rng=rng, profile=profile)
        worst_mul = max(worst_mul, m_res)
        worst_adj = max(worst_adj, a_res)
    record("corner homotopy respects products", worst_mul, 1e-10)
    record("corner homotopy respects adjoints", worst_adj, 1e-10)

    worst_gap = 0.0
    for _ in range(20):
        def pos_block(size):
            # spectra bounded away from 0 keep the span computation well-posed;
            # the unitary comes off _span, which keeps the jacobi profile off LAPACK
            x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            q = _span(np.empty((size, 0), dtype=complex), x, 0.0)
            return (q * rng.uniform(0.05, 1.0, size)) @ q.conj().T

        hh = np.zeros((5, 5), dtype=complex)
        kk = np.zeros((5, 5), dtype=complex)
        hh[:2, :2] = pos_block(2)
        hh[2:, 2:] = pos_block(3)
        kk[:2, :2] = pos_block(2)
        kk[2:, 2:] = pos_block(3)
        _, gap = corner_ideal_equality(hh, kk, (2, 3), ideal_block=1, profile=profile)
        worst_gap = max(worst_gap, gap)
    record("ideal meets sandwich subspace exactly", worst_gap, 1e-10)

    gp = make_gplus(0.2)
    gm = make_gminus(0.2)
    worst_orth = 0.0
    for _ in range(10):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = 0.5 * (m + m.conj().T)
        worst_orth = max(
            worst_orth, op_norm(func_calc(s, gp, profile) @ func_calc(s, gm, profile), profile)
        )
    record("smooth cutoffs have orthogonal supports", worst_orth, 1e-12)
    return checks


def cmd_check(args) -> int:
    seed = _resolve_seed(args)
    profile = _resolve_profile(args)
    grid = args.grid if args.grid is not None else 16
    checks = _check_suite(seed, grid, profile)
    all_pass = all(c["pass"] for c in checks)
    _emit(args, "check", seed, {"checks": checks, "all_pass": all_pass})
    return EXIT_OK if all_pass else EXIT_FAIL


def _is_number(value, kinds=(int, float)) -> bool:
    """Whether ``value`` is a JSON number of one of ``kinds``; a bool is not."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _spec_int(spec: dict, key: str, default: int) -> int:
    value = spec.get(key, default)
    if not _is_number(value, int):
        raise FormatError(f"sweep spec {key!r} must be an integer, got {value!r}")
    return value


def cmd_relations(args) -> int:
    seed = _resolve_seed(args)
    profile = _resolve_profile(args)
    if args.input is None:
        raise FormatError("relations needs --input RELATION_FILE")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {args.input}: {exc}")
    rs = parse(source)
    if args.sweep is not None:
        spec = load_json(args.sweep)
        if not isinstance(spec, dict) or "consequence" not in spec:
            raise FormatError("sweep spec must hold a 'consequence' expression")
        consequence = parse_expression(str(spec["consequence"]), rs.variables)
        deltas = spec.get("deltas", [1e-2, 1e-3, 1e-4, 1e-5])
        if not (isinstance(deltas, list) and all(_is_number(d) for d in deltas)):
            raise FormatError(f"sweep spec 'deltas' must be a list of numbers, got {deltas!r}")
        if not all(0.0 < d < np.inf for d in deltas):  # a NaN fails too
            raise FormatError(f"sweep spec 'deltas' must be positive and finite, got {deltas!r}")
        samples = _spec_int(spec, "samples_per_delta", 5)
        if samples < 1:
            raise FormatError(f"sweep spec 'samples_per_delta' must be at least 1, got {samples}")
        sampler = perturbation_sampler(m=_spec_int(spec, "sampler_grid", 4), profile=profile)
        table = delta_eps_sweep(
            rs,
            consequence,
            sampler,
            [float(d) for d in deltas],
            samples_per_delta=samples,
            rng=np.random.default_rng(seed),
            profile=profile,
        )
        result = {"sweep": [[d, v] for d, v in table]}
    else:
        if args.env is not None:
            env = env_from_obj(load_json(args.env))
        elif args.scenario == "canonical":
            trip = canonical_generators(args.grid if args.grid is not None else 4)
            env = {"h": trip.h, "x": trip.x, "k": trip.k}
        else:
            raise FormatError(
                "relations needs --env FILE or --scenario canonical"
            )
        result = {"residuals": residuals(rs, env, profile)}
    _emit(args, "relations", seed, result)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="input file path")
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.add_argument("--grid", type=int, help="grid size")
    p.add_argument("--epsilon", type=float, help="target distance")
    p.add_argument("--theta", type=float, help="cutoff width (skips the auto search)")
    p.add_argument("--seed", type=int, help="random seed (QCWB_SEED is the fallback)")
    p.add_argument("--scenario", help="builtin scenario name")
    p.add_argument(
        "--tolerance-profile",
        default="default",
        help=f"one of {sorted(PROFILES)}",
    )


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which is ``EXIT_GAP`` here; this parser, and
    the subcommand parsers made from it, exit ``EXIT_BAD_INPUT`` instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcwb",
        description="Workbench for quadratic matrix relation systems",
    )
    parser.add_argument("--version", action="version", version=f"qcwb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_smooth = sub.add_parser("smooth", help="smooth an approximate representation")
    _add_common(p_smooth)
    p_smooth.set_defaults(func=cmd_smooth)

    p_boundary = sub.add_parser(
        "boundary", help=f"winding pipeline; scenarios: {', '.join(SCENARIO_NAMES)}"
    )
    _add_common(p_boundary)
    p_boundary.set_defaults(func=cmd_boundary)

    p_check = sub.add_parser("check", help="run the seeded property suites")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_rel = sub.add_parser("relations", help="evaluate a relation file or run a sweep")
    _add_common(p_rel)
    p_rel.add_argument("--env", help="JSON file mapping variable names to matrices")
    p_rel.add_argument("--sweep", help="JSON sweep specification")
    p_rel.set_defaults(func=cmd_relations)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for cls, code in EXIT_CODES:
            if isinstance(exc, cls):
                print(f"{args.command}: {exc}", file=sys.stderr)
                return code(exc) if callable(code) else code
        raise


if __name__ == "__main__":
    sys.exit(main())
