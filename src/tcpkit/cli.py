"""Command-line front end.

All reports are JSON on stdout, key-sorted so identical commands with
identical seeds are byte-identical.  Exit codes: 0 done, 2 parse error,
3 solve ended unknown with no solution, 4/5/6 precondition failures in
membership / perturb / distance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .fixtures import cone_fixture, fixture, fixture_names
from .tensor import ShapeError, tensor_from_json, tensor_to_json

__all__ = ["main"]

EXIT_PARSE = 2
EXIT_UNKNOWN = 3
EXIT_MEMBERSHIP = 4
EXIT_PERTURB = 5
EXIT_DISTANCE = 6


class _ParseFailure(Exception):
    pass


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise _ParseFailure(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise _ParseFailure(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


def _parse_vector(text: str) -> np.ndarray:
    try:
        v = np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as e:
        raise _ParseFailure(f"cannot parse vector {text!r}: {e}") from e
    if not np.all(np.isfinite(v)):
        raise _ParseFailure(f"vector {text!r} has a non-finite entry")
    return v


def _parse_point(flag: str, text: str, n: int) -> np.ndarray:
    """The vector --flag, which must have n entries."""
    v = _parse_vector(text)
    if v.shape != (n,):
        raise _ParseFailure(f"--{flag} has {len(v)} entries, expected {n}")
    return v


def _get_tensor(args):
    if getattr(args, "fixture", None):
        try:
            return fixture(args.fixture)
        except KeyError as e:
            raise _ParseFailure(str(e)) from e
    if getattr(args, "tensor", None):
        try:
            return tensor_from_json(_load_json_file(args.tensor))
        except (ValueError, KeyError, TypeError) as e:
            raise _ParseFailure(f"bad tensor file {args.tensor}: {e}") from e
    raise _ParseFailure("one of --fixture or --tensor is required")


def _get_cone(name, n: int):
    """The cone fixture name (the orthant when None), which must live in R^n."""
    from .cones import orthant

    if not name:
        return orthant(n)
    try:
        K = cone_fixture(name)
    except KeyError as e:
        raise _ParseFailure(str(e)) from e
    if K.dim != n:
        raise _ParseFailure(f"cone {name} has dimension {K.dim}, the tensor {n}")
    return K


def _emit(args, report: dict) -> None:
    report["version"] = __version__
    if args.pretty:
        out = json.dumps(report, sort_keys=True, indent=2)
    else:
        out = json.dumps(report, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(out + "\n")


def _config_echo(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_classify(args) -> int:
    from .classify import (
        all_principal_nonsingular,
        is_copositive,
        is_K_nonsingular,
        is_K_pd,
        is_K_psd,
        is_K_regular,
        is_strictly_copositive,
    )

    A = _get_tensor(args)
    K = _get_cone(args.cone, A.dim)
    if K.is_orthant:
        verdicts = [is_copositive(A), is_strictly_copositive(A)]
    else:
        verdicts = [is_K_psd(A, K), is_K_pd(A, K)]
    verdicts += [is_K_regular(A, K), is_K_nonsingular(A, K)]
    if args.principal:
        verdicts.append(all_principal_nonsingular(A))
    report = {
        "command": "classify",
        "config": _config_echo(args, ("fixture", "tensor", "cone", "seed")),
        "verdicts": {v.property: v.to_json() for v in verdicts},
    }
    _emit(args, report)
    return 0


def cmd_solve(args) -> int:
    from .cones import orthant
    from .solver import TcpInstance, instance_from_json, solve_enumerate

    if args.instance:
        try:
            inst = instance_from_json(_load_json_file(args.instance))
        except (ValueError, KeyError, TypeError) as e:
            raise _ParseFailure(f"bad instance file {args.instance}: {e}") from e
    else:
        A = _get_tensor(args)
        if args.q is None:
            raise _ParseFailure("--q is required without --instance")
        inst = TcpInstance(orthant(A.dim), _parse_point("q", args.q, A.dim), A)
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise _ParseFailure(f"--tol must be finite and >= 0, got {args.tol}")
    try:
        outcome = solve_enumerate(inst)
    except ValueError as e:
        raise _ParseFailure(str(e)) from e
    sols = list(outcome.solutions)
    if sols and not args.all:
        sols = sols[:1]
    bad = [s for s in sols if s.max_residual > args.tol]
    report = {
        "command": "solve",
        "config": _config_echo(args, ("fixture", "tensor", "instance", "q",
                                      "seed", "tol", "all")),
        "solutions": [s.to_json() for s in sols],
        "solution_count": len(outcome.solutions),
        "unknown": outcome.unknown,
    }
    if not outcome.solutions and not outcome.unknown:
        report["note"] = "no solution: every support settled"
    if outcome.unknown:
        report["note"] = "no solution found; open supports: " + "; ".join(
            f"{{{','.join(map(str, alpha))}}} {why}" for alpha, why in outcome.open_supports)
    if bad:
        report["note"] = f"{len(bad)} solution(s) exceed --tol {args.tol}"
    _emit(args, report)
    return EXIT_UNKNOWN if (outcome.unknown and not outcome.solutions) else 0


def cmd_membership(args) -> int:
    from .compcones import q_membership

    A = _get_tensor(args)
    q = _parse_point("q", args.q, A.dim)
    try:
        res = q_membership(A, q)
    except ValueError as e:
        print(f"membership error: {e}", file=sys.stderr)
        return EXIT_MEMBERSHIP
    report = {
        "command": "membership",
        "config": _config_echo(args, ("fixture", "tensor", "q", "seed")),
        "result": res.to_json(),
    }
    _emit(args, report)
    return 0


_PERTURB_DEFAULTS = {"eps": 1e-3, "trials": 50, "radius": 0.1}
_PERTURB_READS = {
    "existence": ("q", "eps", "trials"),
    "error-bound": ("q", "xbar", "eps", "trials", "radius"),
    "usc": ("q", "eps", "trials"),
    "unsolvable": ("q", "eps", "trials"),
    "openness": ("cone", "eps", "trials"),
    "uniqueness": ("q", "xbar"),
}


def cmd_perturb(args) -> int:
    from .cones import orthant
    from .solver import TcpInstance
    from .stability import (
        error_bound_probe,
        local_uniqueness_certificate,
        nonsingularity_openness_probe,
        perturb_existence,
        unsolvable_neighborhood_probe,
        usc_probe,
    )

    reads = _PERTURB_READS[args.mode]
    for flag in ("q", "xbar", "cone", *_PERTURB_DEFAULTS):  # refuse a flag this mode would ignore
        if getattr(args, flag) is not None and flag not in reads:
            raise _ParseFailure(f"perturb {args.mode} does not read --{flag}")
    for flag in reads:  # a read flag left out takes its default; unread flags stay None
        if getattr(args, flag) is None:
            if flag in ("q", "xbar"):
                raise _ParseFailure(f"perturb {args.mode} requires --{flag}")
            setattr(args, flag, _PERTURB_DEFAULTS.get(flag))
    A = _get_tensor(args)
    if args.eps is not None and not (math.isfinite(args.eps) and args.eps >= 0):
        raise _ParseFailure(f"--eps must be finite and >= 0, got {args.eps}")
    if args.radius is not None and not (math.isfinite(args.radius) and args.radius > 0):
        raise _ParseFailure(f"--radius must be finite and > 0, got {args.radius}")
    if args.trials is not None and args.trials < 1:
        raise _ParseFailure(f"--trials must be >= 1, got {args.trials}")
    q = None if args.q is None else _parse_point("q", args.q, A.dim)
    xbar = None if args.xbar is None else _parse_point("xbar", args.xbar, A.dim)
    try:  # an overflow or a NaN in the probe's numpy arithmetic is a perturb error
        inst = None if q is None else TcpInstance(orthant(A.dim), q, A)
        with np.errstate(over="raise", invalid="raise"):
            if args.mode == "existence":
                result = perturb_existence(inst, args.eps, args.trials, args.seed).to_json()
            elif args.mode == "error-bound":
                result = error_bound_probe(inst, xbar, args.radius, args.eps, args.trials,
                                           args.seed).to_json()
            elif args.mode == "usc":
                result = usc_probe(inst, args.eps, args.trials, args.seed)
            elif args.mode == "unsolvable":
                result = unsolvable_neighborhood_probe(A, q, args.eps, args.trials, args.seed)
            elif args.mode == "openness":
                K = _get_cone(args.cone, A.dim)
                result = nonsingularity_openness_probe(K, A, args.eps, args.trials, args.seed)
            else:  # uniqueness, the last of argparse's choices
                result = local_uniqueness_certificate(inst, xbar).to_json()
    except (ValueError, FloatingPointError) as e:
        print(f"perturb error: {e}", file=sys.stderr)
        return EXIT_PERTURB
    report = {
        "command": f"perturb {args.mode}",
        "config": _config_echo(args, ("fixture", "tensor", "q", "xbar", "cone",
                                      "eps", "trials", "seed", "radius")),
        "result": result,
    }
    _emit(args, report)
    return 0


def cmd_distance(args) -> int:
    from .cones import delta_metric

    if args.samples < 1:
        raise _ParseFailure(f"--samples must be >= 1, got {args.samples}")
    try:
        K1 = cone_fixture(args.cone1)
        K2 = cone_fixture(args.cone2)
        d = delta_metric(K1, K2, args.samples)
    except (KeyError, ValueError, ShapeError) as e:
        print(f"distance error: {e}", file=sys.stderr)
        return EXIT_DISTANCE
    report = {
        "command": "distance",
        "config": _config_echo(args, ("cone1", "cone2", "samples")),
        "delta": d,
    }
    _emit(args, report)
    return 0


def cmd_fixtures(args) -> int:
    if args.name:
        A = _get_tensor(argparse.Namespace(fixture=args.name, tensor=None))
        report = {"command": "fixtures", "name": args.name,
                  "tensor": tensor_to_json(A)}
    else:
        report = {"command": "fixtures", "names": fixture_names()}
    _emit(args, report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tcpkit",
                                description="tensor complementarity toolkit")
    p.add_argument("--pretty", action="store_true", help="indented JSON output")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_tensor_opts(sp):
        sp.add_argument("--fixture", help="named fixture tensor")
        sp.add_argument("--tensor", help="tensor JSON file")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("classify", help="three-valued tensor classification")
    add_tensor_opts(sp)
    sp.add_argument("--cone", help="cone fixture name (default: orthant)")
    sp.add_argument("--principal", action="store_true",
                    help="sweep all principal sub-tensors")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("solve", help="enumerate TCP solutions")
    add_tensor_opts(sp)
    sp.add_argument("--instance", help="instance JSON file")
    sp.add_argument("--q", help="right-hand side, comma-separated")
    sp.add_argument("--tol", type=float, default=1e-7)
    sp.add_argument("--all", action="store_true", help="list every solution")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("membership", help="is q a solvable right-hand side")
    add_tensor_opts(sp)
    sp.add_argument("--q", required=True)
    sp.set_defaults(fn=cmd_membership)

    sp = sub.add_parser("perturb", help="stability probes")
    sp.add_argument("mode", choices=["existence", "error-bound", "usc",
                                     "unsolvable", "openness", "uniqueness"])
    add_tensor_opts(sp)
    sp.add_argument("--q")
    sp.add_argument("--xbar")
    sp.add_argument("--cone")
    sp.add_argument("--eps", type=float, help="perturbation size (default 1e-3)")
    sp.add_argument("--trials", type=int, help="number of trials (default 50)")
    sp.add_argument("--radius", type=float,
                    help="error-bound neighbourhood radius (default 0.1)")
    sp.set_defaults(fn=cmd_perturb)

    sp = sub.add_parser("distance", help="delta metric between cone fixtures")
    sp.add_argument("--cone1", required=True)
    sp.add_argument("--cone2", required=True)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.set_defaults(fn=cmd_distance)

    sp = sub.add_parser("fixtures", help="list or dump fixtures")
    sp.add_argument("--name", help="dump this fixture as tensor JSON")
    sp.set_defaults(fn=cmd_fixtures)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (_ParseFailure, ShapeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
