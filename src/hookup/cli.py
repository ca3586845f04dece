"""Command-line front end: quantifier reports, verification, family sweeps."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import __version__
from .channels import basis_from_angles, computational_basis
from .errors import HookupError, NoConvergence, NoRootBracketed, ParseError
from .mdms import compare_jk, find_thresholds, scan_mdms, scan_to_csv
from .quantifiers import full_report
from .search import OptimizerConfig
from .states import load, preset
from . import verify as _verify

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookup",
        description="Relative-entropy quantifiers of coherence and correlation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--file", help="path to a state file (JSON)")
        src.add_argument("--preset", help="named preset state")
        p.add_argument("--epsilon", type=float, help="preset parameter (mixing weight)")
        p.add_argument("--theta", type=float, help="preset parameter (radians)")
        p.add_argument("--phi", type=float, help="preset parameter (radians)")

    def add_optimizer_flags(p):
        defaults = OptimizerConfig()
        p.add_argument("--starts", type=int, default=defaults.multistarts, help="multistart count")
        p.add_argument(
            "--grid", type=int, default=defaults.grid_points, help="coarse grid points per angle"
        )

    p = sub.add_parser("compute", help="full quantifier report for one state")
    add_state_flags(p)
    p.add_argument(
        "--basis-angles",
        help="comma list theta1,phi1,theta2,phi2,... (radians); default computational",
    )
    add_optimizer_flags(p)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run the built-in reproduction checks")
    add_optimizer_flags(p)
    p.add_argument("--out", help="write the table here instead of stdout")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("scan-mdms", help="quantifier sweep over (theta, epsilon)")
    p.add_argument("--theta-points", type=int, default=65)
    p.add_argument("--epsilon-points", type=int, default=101)
    add_optimizer_flags(p)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.add_argument("--format", choices=("csv",), default="csv")

    p = sub.add_parser("thresholds", help="locate the two epsilon thresholds")
    p.add_argument(
        "--method", choices=("basis-switch", "derivative"), default="basis-switch"
    )
    add_optimizer_flags(p)
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compare-jk", help="extremes of K - J along theta per epsilon")
    p.add_argument("--epsilons", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--theta-points", type=int, default=65)
    add_optimizer_flags(p)
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    return parser


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(grid_points=args.grid, multistarts=args.starts)


def _parse_floats(flag: str, text: str) -> list[float]:
    """Comma list of numbers; a malformed entry is invalid input."""
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise HookupError(f"{flag}: {exc}") from None


def _load_state(args):
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{args.file} is not UTF-8 text: {exc.reason}") from exc
        return load(text)
    params = {}
    for key in ("epsilon", "theta", "phi"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    return preset(args.preset, **params)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_compute(args) -> int:
    state = _load_state(args)
    if args.basis_angles:
        values = _parse_floats("--basis-angles", args.basis_angles)
        if len(values) != 2 * state.n_parts:
            raise HookupError(
                f"--basis-angles needs {2 * state.n_parts} numbers for dims {state.dims}"
            )
        pairs = list(zip(values[0::2], values[1::2]))
        basis = basis_from_angles(pairs, dims=state.dims)
    else:
        basis = computational_basis(state.dims)
    report = full_report(state, basis, _config(args))
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=1), args.out)
    else:
        _emit(report.format_text(), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    rows = _verify.run_all(_config(args))
    elapsed = time.perf_counter() - started
    ok = all(r.passed for r in rows)
    if args.format == "json":
        doc = {
            "rows": [r.to_dict() for r in rows],
            "all_passed": ok,
            "elapsed_seconds": elapsed,
        }
        _emit(json.dumps(doc, indent=1), args.out)
    else:
        _emit(_verify.format_table(rows, elapsed), args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_scan(args) -> int:
    table = scan_mdms(
        theta_points=args.theta_points,
        epsilon_points=args.epsilon_points,
        cfg=_config(args),
    )
    _emit(scan_to_csv(table), args.out)
    return EXIT_OK


def _cmd_thresholds(args) -> int:
    result = find_thresholds(method=args.method, cfg=_config(args))
    if args.format == "json":
        _emit(json.dumps(dataclasses.asdict(result), indent=1), args.out)
    else:
        lines = [
            f"method: {result.method}",
            f"eps'  = {result.eps_prime:.6f}   bracket {result.brackets['eps_prime']}",
            f"eps'' = {result.eps_double_prime:.6f}   bracket {result.brackets['eps_double_prime']}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


_COMPARE_JK_COLUMNS = (
    "epsilon", "J", "max_K_minus_J", "min_K_minus_J", "theta_at_max", "theta_at_min"
)


def _cmd_compare_jk(args) -> int:
    epsilons = _parse_floats("--epsilons", args.epsilons)
    rows = compare_jk(epsilons, theta_points=args.theta_points, cfg=_config(args))
    if args.format == "json":
        _emit(json.dumps(rows, indent=1), args.out)
    elif args.format == "csv":
        lines = [",".join(_COMPARE_JK_COLUMNS)]
        for r in rows:
            lines.append(",".join(f"{r[k]:.17g}" for k in _COMPARE_JK_COLUMNS))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"{'epsilon':>8} {'max K-J':>12} {'min K-J':>12}"]
        for r in rows:
            lines.append(
                f"{r['epsilon']:8.4f} {r['max_K_minus_J']:12.6f} {r['min_K_minus_J']:12.6f}"
            )
        _emit("\n".join(lines), args.out)
    return EXIT_OK


_COMMANDS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "scan-mdms": _cmd_scan,
    "thresholds": _cmd_thresholds,
    "compare-jk": _cmd_compare_jk,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NoConvergence, NoRootBracketed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (HookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
