"""Command-line interface.

Subcommands:

    run          one (schedule, m) experiment cell -> per-iteration CSV
    compare      every step-size rule on one instance -> CSV per cell + summary
    sweep-m      one rule, several averaging exponents -> long-format CSV
    constrained  the two constrained solvers head to head -> comparison table
    gen          realize an instance -> JSON document

Exit codes: 0 on success, 1 on runtime errors (reported on stderr), 2 on
usage errors (argparse message on stderr).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .bench import (
    ExperimentPlan,
    _has_analytic_fstar,
    _prepare_problem,  # noqa: F401  perfbench/tracer.py patches this name
    run_constrained_comparison,
    run_experiment,
    run_single_cell,
    sweep_m,
    write_instance_json,
)
from .geometry import PROX_NAMES
from .problems import (
    DIST_NORMAL,
    DIST_UNIFORM,
    KIND_BEST_APPROX,
    KIND_MAX_LINEAR,
    OBJECTIVE_KINDS,
    InstanceSpec,
)
from .schedules import TABLE_TAGS, TAG_ADAPTIVE_TV, TAG_POLYAK, TAG_TIME_VARYING
from .solvers import NoProductiveSteps

_M_SWEEP_DEFAULT = (-1.0, 0.0, 1.0, 2.0, 5.0)


def _add_instance_flags(sp, *, problem_default: str, n_default: int,
                        p_default: Optional[int] = None):
    """The instance flags; --p and --dist only where ``p_default`` is set,
    since the other subcommands run unconstrained instances."""
    sp.add_argument("--problem", choices=OBJECTIVE_KINDS, default=problem_default)
    sp.add_argument("--n", type=int, default=n_default, help="dimension")
    sp.add_argument("--t", type=int, default=10, help="number of objective terms")
    sp.add_argument("--seed", type=int, default=42)
    if p_default is not None:
        sp.add_argument("--p", type=int, default=p_default, help="number of affine constraints")
        sp.add_argument(
            "--dist",
            choices=(DIST_UNIFORM, DIST_NORMAL),
            default=DIST_UNIFORM,
            help="distribution of the constraint data",
        )


def _instance(args) -> InstanceSpec:
    constraints = {"p": args.p, "distribution": args.dist} if "p" in args else {}
    return InstanceSpec(kind=args.problem, n=args.n, t=args.t, seed=args.seed, **constraints)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves it unchanged and no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="mdbench",
        description="Mirror-descent benchmark harness for non-smooth convex problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="run one (schedule, m) cell")
    _add_instance_flags(sp, problem_default=KIND_BEST_APPROX, n_default=50)
    sp.add_argument("--prox", choices=PROX_NAMES, default="euclidean")
    sp.add_argument("--schedule", choices=TABLE_TAGS, default=TAG_TIME_VARYING)
    sp.add_argument("--m", type=float, default=0.0)
    sp.add_argument("--iters", type=int, default=1000)
    sp.add_argument("--out", default="run.csv", help="output CSV path")
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("compare", help="run every step-size rule")
    _add_instance_flags(sp, problem_default=KIND_BEST_APPROX, n_default=50)
    sp.add_argument("--prox", choices=PROX_NAMES, default="euclidean")
    sp.add_argument("--m", type=float, default=0.0)
    sp.add_argument("--iters", type=int, default=1000)
    sp.add_argument("--out", default="compare_out", help="output directory")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("sweep-m", help="sweep the averaging exponent")
    _add_instance_flags(sp, problem_default=KIND_BEST_APPROX, n_default=50)
    sp.add_argument("--prox", choices=PROX_NAMES, default="euclidean")
    sp.add_argument("--schedule", choices=TABLE_TAGS, default=TAG_TIME_VARYING)
    sp.add_argument("--m", type=float, nargs="+", default=_M_SWEEP_DEFAULT)
    sp.add_argument("--iters", type=int, default=1000)
    sp.add_argument("--out", default="sweep_m.csv", help="output CSV path")
    sp.set_defaults(func=_cmd_sweep)

    # the comparison runs on the unit ball with the Euclidean prox only
    sp = sub.add_parser("constrained", help="compare the constrained solvers")
    _add_instance_flags(sp, problem_default=KIND_MAX_LINEAR, n_default=10, p_default=5)
    sp.add_argument("--epsilon", type=float, nargs="+", default=(1e-2,))
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument(
        "--schedule",
        choices=(TAG_TIME_VARYING, TAG_ADAPTIVE_TV),
        default=TAG_ADAPTIVE_TV,
        help="two-phase step rule of the full-check solver",
    )
    sp.add_argument("--iters", type=int, default=None, help="iteration cap")
    sp.add_argument("--out", default="constrained.csv", help="comparison table path")
    sp.add_argument("--trace-dir", default=None, help="also write per-iteration CSVs here")
    sp.set_defaults(func=_cmd_constrained)

    sp = sub.add_parser("gen", help="realize an instance as JSON")
    _add_instance_flags(sp, problem_default=KIND_BEST_APPROX, n_default=50, p_default=0)
    sp.add_argument("--out", default="instance.json", help="output JSON path")
    sp.set_defaults(func=_cmd_gen)

    return parser


class _Usage(Exception):
    """Usage-level error discovered after parsing; reported like argparse."""


def _cmd_run(args) -> int:
    cell = run_single_cell(
        _instance(args), args.prox, args.schedule, args.m, args.iters, args.out
    )
    print(json.dumps(cell, indent=2, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    instance = _instance(args)
    tags = list(TABLE_TAGS)
    if not _has_analytic_fstar(instance, args.prox):
        tags.remove(TAG_POLYAK)
        print(
            "note: skipping polyak (requires known f*, unavailable for this problem)",
            file=sys.stderr,
        )
    plan = ExperimentPlan(
        instance=instance,
        schedules=tuple(tags),
        m_values=(args.m,),
        iters=args.iters,
        prox=args.prox,
    )
    summary = run_experiment(plan, args.out)
    print(
        f"wrote {len(summary['cells'])} cell files and summary.json to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args) -> int:
    if len(args.m) < 2:
        raise _Usage("sweep-m needs at least two --m values")
    plan = ExperimentPlan(
        instance=_instance(args),
        schedules=(args.schedule,),
        m_values=tuple(args.m),
        iters=args.iters,
        prox=args.prox,
    )
    path = sweep_m(plan, out_path=args.out)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_constrained(args) -> int:
    if args.p < 1:
        raise _Usage("constrained needs --p >= 1")
    rows = run_constrained_comparison(
        _instance(args),
        args.epsilon,
        args.m,
        args.out,
        schedule_mode=args.schedule,
        iters_cap=args.iters,
        trace_dir=args.trace_dir,
    )
    for r in rows:
        print(
            f"{r['algorithm']} eps={r['epsilon']:g}: {r['iterations']} iterations, "
            f"{r['constraint_evals']} constraint evals, "
            f"{r['wall_seconds']:.3f} s, stop={r['stop_reason']}",
            file=sys.stderr,
        )
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    write_instance_json(_instance(args), args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NoProductiveSteps, RuntimeError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message; its name is the cause
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
