"""Command-line driver.

Subcommands: certify, lift, invert, truncate, demo.  Every run writes its
outputs under --out-dir with fixed names (report.json, trace.csv,
result.csv, network.json as applicable).  Exit codes: 0 success, 2 for a
mathematically meaningful negative (counterexample found, iteration
diverged or failed to converge), 1 for faults, 64 for usage errors.
Reports are byte-identical across repeated runs with the same flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from . import serialize
from .errors import AliasingGuardError, DivergenceError, UsageError
from .funcspace import BasisSpec, Grid, GridFunction


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise UsageError(f"{self.format_usage().rstrip()}\nerror: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="injop", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command")

    def common(p, *, tol=False, grid=True):
        p.add_argument("--out-dir", default=".")
        if tol:
            p.add_argument("--tol", type=float, default=1e-8)
        if grid:
            p.add_argument("--grid-size", type=int, default=512)

    p = sub.add_parser("certify", help="layerwise injectivity certification")
    p.add_argument("--net", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("lift", help="lift a network to an injective one")
    p.add_argument("--net", required=True)
    p.add_argument("--alpha", type=float, default=0.1)
    common(p, grid=False)

    p = sub.add_parser("invert", help="invert a nonlinear integral operator")
    p.add_argument("--op", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--method", choices=["banach", "atlas"], default="banach")
    p.add_argument("--anchors")
    common(p, tol=True)

    p = sub.add_parser("truncate", help="finite-rank truncation of a kernel table")
    p.add_argument("--op", required=True)
    p.add_argument("--rank", type=int, default=8)
    common(p)

    p = sub.add_parser("demo", help="self-checking end-to-end example")
    p.add_argument("demo_name", nargs="?", default="volterra")
    common(p, tol=True)

    return parser


#: Allowed range of each numeric flag, by argparse destination; a command
#: without the flag skips its check.
_FLAG_RANGES = {
    "grid_size": (lambda v: v >= 2, "--grid-size must be at least 2"),
    "alpha": (lambda v: 0.0 < v < 0.5, "--alpha must lie in (0, 1/2)"),
    "rank": (lambda v: v >= 1, "--rank must be at least 1"),
    "trials": (lambda v: v >= 0, "--trials must be at least 0"),
    "seed": (lambda v: v >= 0, "--seed must be at least 0"),
    "tol": (lambda v: 0.0 < v < float("inf"), "--tol must be finite and positive"),
}


def parse_config(argv: List[str]) -> argparse.Namespace:
    parser = _build_parser()
    if not argv:
        raise UsageError(parser.format_usage().rstrip())
    ns = parser.parse_args(argv)
    if ns.command is None:
        raise UsageError(parser.format_usage().rstrip())
    for dest, (ok, rule) in _FLAG_RANGES.items():
        value = getattr(ns, dest, None)
        if value is not None and not ok(value):
            raise UsageError(f"{rule}, got {value}")
    return ns


def _report_path(cfg: argparse.Namespace, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


# Each handler imports the modules it runs, so a command loads no other.

def _run_certify(cfg: argparse.Namespace) -> Tuple[int, dict]:
    from .certify import (VERDICT_CERTIFIED, VERDICT_COUNTEREXAMPLE, VERDICT_NO_COUNTEREXAMPLE,
                          certify_bijective_activation, certify_relu_dss)

    net = serialize.load_network(cfg.net)
    grid = Grid(net.basis.interval[0], net.basis.interval[1], cfg.grid_size)
    try:
        layer_reports = [
            certify_bijective_activation(layer) if layer.activation.is_injective
            else certify_relu_dss(layer, grid, trials=cfg.trials, seed=cfg.seed)
            for layer in net.layers
        ]
    except AliasingGuardError as err:
        raise UsageError(
            f"--grid-size {cfg.grid_size} does not resolve the network: {err}"
        ) from None
    if any(r.verdict == VERDICT_COUNTEREXAMPLE for r in layer_reports):
        verdict = VERDICT_COUNTEREXAMPLE
    elif all(r.verdict == VERDICT_CERTIFIED for r in layer_reports):
        verdict = VERDICT_CERTIFIED
    else:
        verdict = VERDICT_NO_COUNTEREXAMPLE
    report = {
        "command": "certify",
        "trials": cfg.trials,
        "seed": cfg.seed,
        "verdict": verdict,
        "layers": [serialize.cert_report_to_obj(r) for r in layer_reports],
    }
    return 2 if verdict == VERDICT_COUNTEREXAMPLE else 0, report


def _run_lift(cfg: argparse.Namespace) -> Tuple[int, dict]:
    from .reduction import lift_to_injective

    result = lift_to_injective(serialize.load_network(cfg.net), alpha=cfg.alpha)
    serialize.save_network(result.network, _report_path(cfg, "network.json"))
    report = {
        "command": "lift",
        "mode": result.mode,
        "alpha": cfg.alpha,
        "eps0": result.eps0,
        "closeness_bound_factor": 5.0 * result.eps0,
        "order_in": result.n,
        "order_out": result.n_total,
        "reduction_kind": result.reduction.kind,
        "row_orthonormality_defect": result.reduction.row_orthonormality_defect(),
    }
    return 0, report


def _invert_outputs(cfg: argparse.Namespace, method: str, u, trace, extra) -> dict:
    serialize.write_grid_function_csv(u, _report_path(cfg, "result.csv"))
    serialize.write_trace_csv(trace, _report_path(cfg, "trace.csv"))
    report = {
        "command": cfg.command,
        "method": method,
        "tol": cfg.tol,
        "converged": trace.converged,
        "iterations": trace.iterations,
        "residual_L2": trace.residuals_l2[-1] if trace.residuals_l2 else None,
        "residual_H1": trace.residuals_h1[-1] if trace.residuals_h1 else None,
    }
    report.update(extra)
    return report


def _run_invert(cfg: argparse.Namespace) -> Tuple[int, dict]:
    obj = serialize.json_object(serialize.read_json(cfg.op), "operator file")
    op = serialize.operator_from_obj(obj, None if "grid" in obj else Grid(0.0, 1.0, cfg.grid_size))
    read_input = partial(serialize.read_grid_function_csv, grid=op.grid, channels=op.channels)
    z = read_input(cfg.target)
    if cfg.method == "banach":
        from .nonlin import invert_banach

        solve, negative = invert_banach, "Diverged"
    else:
        from .atlas import build_atlas, global_invert

        if not cfg.anchors:
            raise UsageError("--method atlas requires --anchors DIR")
        if os.path.isfile(os.path.join(cfg.anchors, "atlas.json")):
            atlas = serialize.load_atlas(cfg.anchors, op)
        else:
            import glob

            paths = sorted(glob.glob(os.path.join(cfg.anchors, "*.csv")))
            if not paths:
                raise UsageError(f"no anchor CSV files under {cfg.anchors}")
            atlas = build_atlas(op, [read_input(p) for p in paths])
        solve, negative = partial(global_invert, atlas), "OutOfBasin"
    try:
        u, trace = solve(op, z, tol=cfg.tol, max_iter=200)
        extra = {"outcome": "Converged" if trace.converged else "MaxIterationsExceeded"}
        if cfg.method == "atlas":
            extra.update((key, trace.meta.get(key)) for key in ("cell", "anchor", "fallback"))
    except DivergenceError as err:
        u = GridFunction(op.grid, np.zeros((op.channels, op.grid.size)))
        trace, extra = err.trace, {"outcome": negative, "detail": str(err)}
    return 0 if trace.converged else 2, _invert_outputs(cfg, cfg.method, u, trace, extra)


def _run_truncate(cfg: argparse.Namespace) -> Tuple[int, dict]:
    from .finite_rank import FiniteRankNetwork, truncate_kernel

    obj = serialize.json_object(serialize.read_json(cfg.op), "operator file")
    if "kernel" not in obj:  # a bare kernel object
        obj = {"kernel": obj}
    op = serialize.operator_from_obj(obj, None if "grid" in obj else Grid(0.0, 1.0, cfg.grid_size))
    if op.kernel.kind != "linear_table":
        raise UsageError("operator file: kernel: truncate expects a linear_table kernel")
    grid = op.grid
    basis = BasisSpec("fourier", (grid.a, grid.b))
    try:
        result = truncate_kernel(lambda x, y: np.broadcast_to(
            op.kernel.table(x, y, None, None), (grid.size, grid.size)), grid, basis, cfg.rank)
    except AliasingGuardError as err:
        raise UsageError(
            f"--rank {cfg.rank} is too high for the {grid.size}-node grid: {err}"
        ) from None
    net = FiniteRankNetwork([result.layer])
    serialize.save_network(net, _report_path(cfg, "network.json"))
    report = {
        "command": "truncate",
        "rank": cfg.rank,
        "hs_tail": result.hs_tail,
        "tail_clamped": result.tail_clamped,
    }
    return 0, report


def _run_demo(cfg: argparse.Namespace) -> Tuple[int, dict]:
    from .nonlin import NonlinearIntegralOperator, VolterraKernel, invert_banach

    if cfg.demo_name != "volterra":
        raise UsageError(f"unknown demo {cfg.demo_name!r}; available: volterra")
    grid = Grid(0.0, 1.0, cfg.grid_size)
    op = NonlinearIntegralOperator(grid, VolterraKernel(1.0, "none"), w=1.0)
    z = GridFunction.from_callable(grid, lambda x: 1.0 + x)
    u, trace = invert_banach(op, z, tol=cfg.tol, max_iter=200)
    # F(u) = u(x) + integral of u over [0, x]; the target 1 + x comes from
    # the constant function 1, and the causal trapezoid integrates constants
    # exactly, so the discrete answer matches the closed form.
    max_err = float(np.max(np.abs(u.values - 1.0)))
    report = _invert_outputs(
        cfg, "banach", u, trace, {"demo": "volterra", "max_error_vs_closed_form": max_err}
    )
    return 0 if trace.converged and max_err <= 1e-6 else 2, report


_HANDLERS = {
    "certify": _run_certify,
    "lift": _run_lift,
    "invert": _run_invert,
    "truncate": _run_truncate,
    "demo": _run_demo,
}


def run(cfg: argparse.Namespace) -> int:
    """Run one command; its report.json is written last, after its other outputs."""
    code, report = _HANDLERS[cfg.command](cfg)
    serialize.write_json(report, _report_path(cfg, "report.json"))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = parse_config(args)
    except UsageError as err:
        print(str(err), file=sys.stderr)
        return 64
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)
    try:
        return run(cfg)
    except UsageError as err:
        print(str(err), file=sys.stderr)
        return 64
    except Exception as err:  # faults are distinct from negatives
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
