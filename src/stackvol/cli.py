"""Command-line interface.

Exit codes: 0 success, 1 validation failure (axiom violations,
non-invariant sections, failed checks, parameters out of range, usage
errors), 2 numerical non-convergence or a result that overflowed, 3 I/O
and schema problems.  Human output keeps results on stdout and a
reproducibility echo of the effective parameters on stderr; --json
emits a single JSON object including the parameters, and on a failure
one JSON object naming the error next to the ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import SUMMARY_LIMIT, NumericalFailure, SchemaError, ValidationFailure

DEFAULT_SEED = 94720
DEFAULT_TOL = 1e-6


def _fmt_real(v: float) -> str:
    return f"{v:.12g}"


def _emit(args, lines, payload, params) -> int:
    if args.json:
        obj = dict(payload)
        obj["params"] = {k: v for k, v in params.items()}
        print(json.dumps(obj, sort_keys=True))
    else:
        echo = " ".join(f"{k}={v}" for k, v in params.items())
        print(f"params: {echo}", file=sys.stderr)
        for line in lines:
            print(line)
    return 0


def _load_valid_groupoid(path):
    from .finite import InvalidGroupoidError, validate
    from .jsonio import load_groupoid

    g = load_groupoid(path)
    validate(g).require(InvalidGroupoidError, f"invalid groupoid {path}")
    return g


# ---------------------------------------------------------------------------
# finite


def _cmd_finite_cardinality(args) -> int:
    from .finite import cardinality

    g = _load_valid_groupoid(args.groupoid)
    value = cardinality(g)
    return _emit(args, [str(value)], {"value": str(value)},
                 {"groupoid": args.groupoid})


def _cmd_finite_volume(args) -> int:
    from .finite import fiber_volume, orbit_volume
    from .jsonio import load_weights

    g = _load_valid_groupoid(args.groupoid)
    w = load_weights(args.weights)
    params = {"groupoid": args.groupoid, "weights": args.weights, "method": args.method}
    if args.method == "fiber":
        value = fiber_volume(g, w)
        return _emit(args, [str(value)], {"fiber": str(value)}, params)
    if args.method == "orbit":
        value = orbit_volume(g, w)
        return _emit(args, [str(value)], {"orbit": str(value)}, params)
    vf = fiber_volume(g, w)
    vo = orbit_volume(g, w)
    if vf != vo:
        # unreachable when the section is invariant; kept as a hard check
        raise ValidationFailure(f"fiber {vf} differs from orbit {vo}")
    return _emit(args, [f"fiber {vf}", f"orbit {vo}"],
                 {"fiber": str(vf), "orbit": str(vo), "equal": True}, params)


def _cmd_finite_measure(args) -> int:
    from .finite import orbit_set_measure
    from .jsonio import load_weights

    g = _load_valid_groupoid(args.groupoid)
    w = load_weights(args.weights)
    reps = [r for r in args.orbits.split(",") if r]
    if not reps:
        raise ValidationFailure("no orbit representatives given")
    value = orbit_set_measure(g, w, reps)
    return _emit(args, [str(value)], {"value": str(value)},
                 {"groupoid": args.groupoid, "weights": args.weights,
                  "orbits": ",".join(reps)})


def _cmd_finite_generate(args) -> int:
    from .finite import random_groupoid, random_invariant_weights
    from .jsonio import _renaming, dump_groupoid, dump_weights, groupoid_to_dict

    g = random_groupoid(args.seed, max_objects=args.max_objects,
                        max_group_order=args.max_group_order)
    params = {"seed": args.seed, "max-objects": args.max_objects,
              "max-group-order": args.max_group_order}
    payload = {"objects": len(g.objects), "arrows": g.arrow_count}
    if args.output:
        dump_groupoid(g, args.output)
        lines = [f"wrote {args.output}"]
        payload["output"] = args.output
    else:
        lines = [json.dumps(groupoid_to_dict(g), sort_keys=True)]
    if args.weights_out:
        w = random_invariant_weights(g, args.seed + 1)
        dump_weights(w, args.weights_out, rename=_renaming(g)[0])
        lines.append(f"wrote {args.weights_out}")
        payload["weightsOutput"] = args.weights_out
    return _emit(args, lines, payload, params)


# ---------------------------------------------------------------------------
# morita


def _cmd_morita_link(args) -> int:
    from .jsonio import dump_groupoid, load_bibundle
    from .morita import linking_groupoid

    g1 = _load_valid_groupoid(args.left)
    g2 = _load_valid_groupoid(args.right)
    bib = load_bibundle(args.bibundle)
    # the link is validated as part of the bibundle check
    link = linking_groupoid(g1, g2, bib)
    params = {"left": args.left, "right": args.right, "bibundle": args.bibundle}
    payload = {"objects": len(link.objects), "arrows": link.arrow_count,
               "bridge": len(bib.elements)}
    lines = [f"{key} {count}" for key, count in payload.items()]
    payload["valid"] = True
    if args.output:
        dump_groupoid(link, args.output)
        lines.append(f"wrote {args.output}")
        payload["output"] = args.output
    return _emit(args, lines, payload, params)


def _cmd_morita_check(args) -> int:
    from .jsonio import load_bibundle, load_weights
    from .morita import morita_volume_check

    g1 = _load_valid_groupoid(args.left)
    g2 = _load_valid_groupoid(args.right)
    bib = load_bibundle(args.bibundle)
    w1 = load_weights(args.left_weights)
    w2 = load_weights(args.right_weights)
    report = morita_volume_check(g1, g2, bib, w1, w2)
    params = {"left": args.left, "right": args.right, "bibundle": args.bibundle,
              "left-weights": args.left_weights, "right-weights": args.right_weights}
    lines = [f"left {report.volume_left}", f"right {report.volume_right}",
             f"equal {str(report.equal).lower()}"]
    payload = {"left": str(report.volume_left), "right": str(report.volume_right),
               "equal": report.equal}
    code = _emit(args, lines, payload, params)
    return code if report.equal else 1


# ---------------------------------------------------------------------------
# smooth


def _parse_kv(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ValidationFailure(f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        if not key:
            raise ValidationFailure(f"empty key in {item!r}")
        out[key] = value
    return out


def _parse_ts(raw):
    try:
        ts = tuple(float(part) for part in raw.split(",") if part)
    except ValueError as exc:
        raise ValidationFailure(f"bad ts list {raw!r}: {exc}") from None
    if not ts:
        raise ValidationFailure(f"bad ts list {raw!r}: no t given")
    if not all(map(math.isfinite, ts)):
        raise ValidationFailure(f"bad ts list {raw!r}: every t must be finite")
    return ts


def _emit_table(args, params, ts, row) -> int:
    """Emit one ``row(t)`` per t, each holding a density that must be finite."""
    table = [{"t": t, **row(t)} for t in ts]
    for entry in table:
        if not math.isfinite(entry["density"]):
            raise NumericalFailure(f"density at t={_fmt_real(entry['t'])} "
                                   f"is {entry['density']}, not a finite number")
    lines = [f"{_fmt_real(entry['t'])} {_fmt_real(entry['density'])}" for entry in table]
    return _emit(args, lines, {"table": table}, params)


def _cmd_smooth_example(args) -> int:
    # a parameter the model never reads is refused before the engines load
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise ValidationFailure(f"tol must be positive and finite, got {args.tol!r}")
    kv = _parse_kv(args.params)
    if "measure" in kv and args.name not in ("poisson-sphere-bundle", "su2-dual"):
        raise ValidationFailure("measure= applies only to the Poisson families "
                                f"poisson-sphere-bundle and su2-dual, not to {args.name!r}")
    if "ts" in kv and args.name == "symplectic-bk":
        raise ValidationFailure("model 'symplectic-bk' has no density table, so it takes no ts=")
    ts = _parse_ts(kv.pop("ts")) if "ts" in kv else None

    # the engines load here, so the finite, morita and series commands skip them
    from .catalog import (PoissonFamilyModel, SymplecticModel, build_model, natural_leaf_measure,
                          poisson_stack_density, symplectic_bk_volume)
    from .smooth import ActionModel, pushforward_density, stack_volume

    measure = kv.pop("measure", "stack")
    if measure not in ("stack", "natural"):
        raise ValidationFailure(f"measure must be stack or natural, got {measure!r}")
    model = build_model(args.name, **kv)
    params = {"model": args.name, **kv, "tol": args.tol}
    if ts is not None:
        params["ts"] = ",".join(_fmt_real(t) for t in ts)
    if measure != "stack":
        params["measure"] = measure

    if isinstance(model, SymplecticModel):
        value = symplectic_bk_volume(model)
        return _emit(args, [str(value)], {"value": str(value)}, params)

    if isinstance(model, PoissonFamilyModel):
        if ts is None:
            ts = (1.0,)
            params["ts"] = "1"
        density = natural_leaf_measure if measure == "natural" else poisson_stack_density
        return _emit_table(args, params, ts, lambda t: {"density": density(model, t)})

    if isinstance(model, ActionModel):
        if ts is not None:
            return _emit_table(args, params, ts,
                               lambda t: {"density": pushforward_density(model, t)})
        res = stack_volume(model, tol=args.tol)
        line = (f"{_fmt_real(res.value)} +/- {res.error_estimate:.3g} "
                f"({res.evaluations} evaluations)")
        return _emit(args, [line], {"value": res.value, "errorEstimate": res.error_estimate,
                                    "evaluations": res.evaluations}, params)

    # only the SU(2) model needs su2, so the other models never compile it
    from .su2 import CartanData, adjoint_orbit_density

    if isinstance(model, CartanData):
        if ts is not None:
            def wall_row(t):
                od = adjoint_orbit_density(t, model)
                return {"density": od.value, "onWall": od.on_wall}

            return _emit_table(args, params, ts, wall_row)
        payload = {"period": model.period, "rootValue": model.sigma,
                   "volumeNorm": model.volume_norm}
        return _emit(args, [f"{key} {_fmt_real(v)}" for key, v in payload.items()], payload, params)

    raise ValidationFailure(f"model {args.name!r} produced an unsupported type")


def _cmd_smooth_weyl(args) -> int:
    from .su2 import gaussian_test_function, weyl_integration_check

    phi = gaussian_test_function(args.width)
    report = weyl_integration_check(phi, mc_samples=args.samples, seed=args.seed,
                                    tol=args.tol)
    params = {"samples": args.samples, "seed": args.seed, "tol": args.tol,
              "width": args.width}
    lines = [
        f"lhs {_fmt_real(report.lhs)}",
        f"rhs {_fmt_real(report.rhs)}",
        f"relativeError {report.relative_error:.6g}",
        f"mcStderr {report.mc_stderr:.6g}",
        f"pass {str(report.passed).lower()}",
    ]
    payload = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "relativeError": report.relative_error,
        "mcStderr": report.mc_stderr,
        "evaluations": report.evaluations,
        "passed": report.passed,
    }
    code = _emit(args, lines, payload, params)
    return code if report.passed else 1


# ---------------------------------------------------------------------------
# series


def _cmd_series_finite_sets(args) -> int:
    from .groups import finite_sets_cardinality

    n, limit = args.cutoff, getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = ValueError(f"--cutoff {n}: the value has too many digits to print")
    # the value p/q is within 2/(n+1)! of e, whose continued-fraction terms grow only
    # linearly, so q keeps over half the digits of n!: past twice the limit none can print
    if limit and n > 0 and math.lgamma(min(n, 1e9) + 1) / math.log(10) > 2 * limit + 10:
        raise too_long
    value = finite_sets_cardinality(n)
    try:
        text = str(value)
    except ValueError:  # past the interpreter's integer-digit limit
        raise too_long from None
    return _emit(args, [text], {"value": text, "approx": float(value)}, {"cutoff": n})


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1 with one ``error:`` line, like invalid input."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object")

    parser = _Parser(
        prog="stackvol",
        description="Volumes of differentiable stacks: exact finite groupoid "
                    "computations and numerical catalog models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    finite = sub.add_parser("finite", help="exact finite-groupoid computations")
    fsub = finite.add_subparsers(dest="subcommand", required=True)

    p = fsub.add_parser("cardinality", parents=[common],
                        help="sum of reciprocal isotropy orders")
    p.add_argument("--groupoid", required=True, help="groupoid JSON file")
    p.set_defaults(handler=_cmd_finite_cardinality)

    p = fsub.add_parser("volume", parents=[common], help="stack volume for weights")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--weights", required=True, help="weights JSON file")
    p.add_argument("--method", choices=("fiber", "orbit", "both"), default="both")
    p.set_defaults(handler=_cmd_finite_volume)

    p = fsub.add_parser("measure", parents=[common],
                        help="measure of a union of orbits")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--orbits", required=True,
                   help="comma-separated orbit representatives")
    p.set_defaults(handler=_cmd_finite_measure)

    p = fsub.add_parser("generate", parents=[common],
                        help="seed-deterministic random groupoid")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-objects", type=int, default=6,
                   help="object bound; a draw of too many arrows is refused")
    p.add_argument("--max-group-order", type=int, default=4)
    p.add_argument("-o", "--output", help="write groupoid JSON here")
    p.add_argument("--weights-out", help="also write matching invariant weights")
    p.set_defaults(handler=_cmd_finite_generate)

    morita = sub.add_parser("morita", help="bibundles and volume transfer")
    msub = morita.add_subparsers(dest="subcommand", required=True)

    p = msub.add_parser("link", parents=[common],
                        help="build and validate the linking groupoid")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--bibundle", required=True)
    p.add_argument("-o", "--output", help="write the linking groupoid JSON here")
    p.set_defaults(handler=_cmd_morita_link)

    p = msub.add_parser("check", parents=[common],
                        help="verify equal volumes for corresponding weights")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--bibundle", required=True)
    p.add_argument("--left-weights", required=True)
    p.add_argument("--right-weights", required=True)
    p.set_defaults(handler=_cmd_morita_check)

    smooth = sub.add_parser("smooth", help="numerical catalog models")
    ssub = smooth.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("example", parents=[common],
                        help="evaluate a catalog model")
    p.add_argument("name", help="catalog model name")
    p.add_argument("params", nargs="*",
                   help="key=value model parameters; ts=0.5,1 for density tables")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(handler=_cmd_smooth_example)

    p = ssub.add_parser("weyl-check", parents=[common],
                        help="Monte Carlo vs chamber-density cross-check")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=0.02)
    p.add_argument("--width", type=float, default=0.25)
    p.set_defaults(handler=_cmd_smooth_weyl)

    series = sub.add_parser("series", help="cardinality series")
    sesub = series.add_subparsers(dest="subcommand", required=True)

    p = sesub.add_parser("finite-sets", parents=[common],
                         help="partial exponential series of the bijections groupoid")
    p.add_argument("--cutoff", type=int, default=13)
    p.set_defaults(handler=_cmd_series_finite_sets)

    return parser


def _fail(args, exc, code) -> int:
    """Report a failure as one ``error:`` line on stderr and, with --json, as JSON on stdout.

    The JSON object holds the exception class name, the exit code, the
    message and, for a failed validation, its first five violations.
    """
    print(f"error: {exc}", file=sys.stderr)
    if args.json:
        obj = {"error": type(exc).__name__, "exitCode": code, "message": str(exc)}
        report = getattr(exc, "report", None)
        if report is not None:
            obj["violations"] = [{"axiom": v.axiom, "witness": repr(v.witness), "detail": v.detail}
                                 for v in report.violations[:SUMMARY_LIMIT]]
        print(json.dumps(obj, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, OSError) as exc:
        return _fail(args, exc, 3)
    except (ValidationFailure, ValueError) as exc:
        return _fail(args, exc, 1)
    except (NumericalFailure, OverflowError) as exc:
        return _fail(args, exc, 2)


if __name__ == "__main__":
    sys.exit(main())
