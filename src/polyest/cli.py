"""Command line interface for error-model reduction, estimation and simulation.

Subcommands
-----------
reduce     Reduce a per-gate error model JSON to the six scalar rates.
estimate   Logical X/Z rates at one distance from a database plus a model.
solve      Smallest distance reaching a target logical rate.
generate   Fill or extend a rate database CSV by Monte Carlo.
simulate   One direct Monte Carlo run at explicit reduced rates.
curve      Interpolated rate-versus-p2 table for d = 3..6.

Results go to stdout; warnings, progress and errors go to stderr.  Exit code
0 means success, 1 invalid input (bad flags, malformed files, missing
database entries), 2 a well-formed computation with no answer (above
threshold, scan cap exceeded, undefined ratios).  The POLYEST_DB environment
variable supplies a default for --db.  Output is deterministic: the same
argv and seed produce byte-identical results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from . import __version__
from .error_model import ModelError, load_model, reduce
from .estimator import ComputationError, MissingEntryError, Query, estimate, solve_distance
from .store import (
    AXES,
    DISTANCES,
    LOW_CONFIDENCE_FAILS,
    MAX_SHOTS,
    DbError,
    GridSpec,
    RateDatabase,
    format_value,
    ladder_values,
)

DB_ENV_VAR = "POLYEST_DB"

_WARNING_TEXT = {
    "clamped": "query clamped to the database axis range",
    "low_confidence": f"a database entry carries fewer than {LOW_CONFIDENCE_FAILS} failures",
    "asymmetric_cnot": "cnot channel asymmetry exceeds the threshold; rates were balanced",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Argparse exits with status 2 on bad flags; invalid input is exit 1 here,
    # so usage problems are rethrown and handled in main.
    def error(self, message):
        raise _UsageError(message)


def _warn(codes) -> None:
    for code in sorted(codes):
        text = _WARNING_TEXT.get(code, code)
        print(f"warning: {code}: {text}", file=sys.stderr)


def _json_value(v: float):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def _fit_json(f):
    if f is None:
        return None
    return {"x": f.x, "y": f.y, "C": f.coeff_odd, "D": f.coeff_even}


def _print_estimate_json(result) -> None:
    print(json.dumps({
        "d": result.d,
        "p_xl": result.p_xl,
        "p_zl": result.p_zl,
        "warnings": list(result.warnings),
        "fit_x": _fit_json(result.fit_x),
        "fit_z": _fit_json(result.fit_z),
    }, indent=2))


def _open_db(args) -> RateDatabase:
    path = args.db or os.environ.get(DB_ENV_VAR)
    if not path:
        raise _UsageError(f"--db is required (or set {DB_ENV_VAR})")
    return RateDatabase.load(path)


def _cmd_reduce(args) -> int:
    model = load_model(args.model)
    rr = reduce(model)
    warnings = list(rr.warnings)
    _warn(warnings)
    values = {
        f.name: getattr(rr, f.name) for f in fields(rr) if f.name != "asymmetry_warning"
    }
    if args.json:
        out = {name: _json_value(v) for name, v in values.items()}
        print(json.dumps({**out, "warnings": warnings}, indent=2))
    else:
        for name, v in values.items():
            print(f"{name} = {v!r}")
    return 0


def _cmd_query(args) -> int:
    db = _open_db(args)
    model = load_model(args.model)
    if args.command == "estimate":
        query, arg = estimate, args.distance
    else:
        query, arg = solve_distance, args.target
    result = query(db, model, arg)
    _warn(result.warnings)
    if args.json:
        _print_estimate_json(result)
    elif args.command == "estimate":
        print(f"p_xl = {result.p_xl!r}")
        print(f"p_zl = {result.p_zl!r}")
    else:
        print(result.d)
    return 0


def _cmd_generate(args) -> int:
    from .ratedb import generate

    if args.grid == "full":
        grid = GridSpec.full()
    elif args.grid == "desk":
        grid = GridSpec.desk()
    else:
        with open(args.grid, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as err:  # a JSONDecodeError, or a UnicodeDecodeError
                raise DbError(f"grid spec {args.grid}: {err}") from None
        grid = GridSpec.from_dict(data)
    # Checked now, not at the first checkpoint after a point's simulation.
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise DbError(f"--out directory {out_dir} does not exist")
    run = {"polyest_version": __version__,
           **{key: str(getattr(args, key)) for key in ("seed", "target_fails", "max_shots")}}
    if os.path.exists(args.out):
        db = RateDatabase.load(args.out)
        # One stamp describes every row, so rows of another run may not join.
        clash = [f"{k}={db.metadata[k]} (given {v})" for k, v in run.items()
                 if db.metadata.get(k, v) != v]
        if clash:
            raise DbError(f"{args.out} was generated with {', '.join(clash)}; "
                          "extend it with the same values or write a new --out")
        print(f"extending {args.out} ({len(db)} entries present)", file=sys.stderr)
    else:
        db = RateDatabase()
    db.metadata.update(run)
    # Saved after every point, so an interrupted run resumes where it stopped.
    added, skipped = generate(
        db, grid, args.seed,
        target_fails=args.target_fails, max_shots=args.max_shots,
        progress=lambda msg: print(msg, file=sys.stderr),
        checkpoint=lambda db: db.save(args.out),
    )
    db.save(args.out)
    print(
        f"wrote {args.out}: {len(added)} added, {len(skipped)} skipped, "
        f"{len(db)} total",
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args) -> int:
    from .matcher import build_graphs, dump_edge_classes
    from .surface_sim import Rates, check_run_args, get_layout, run_monte_carlo

    rates = Rates(
        p0x=args.p0x, p0z=args.p0z, p1x=args.p1x, p1z=args.p1z, p2=args.p2
    ).validate()
    check_run_args(args.shots, args.rounds, args.seed)
    layout = get_layout(args.distance)
    graphs = build_graphs(layout.footprints, rates, layout)
    if args.dump_graph:
        rows = dump_edge_classes(graphs[0]) + dump_edge_classes(graphs[1])
        with open(args.dump_graph, "w", encoding="utf-8") as fh:
            fh.write("node_a,node_b,weight,mask\n")
            for a, b, w, m in rows:
                fh.write(f"{a},{b},{w!r},{m}\n")
        print(f"wrote edge classes to {args.dump_graph}", file=sys.stderr)
    result = run_monte_carlo(
        layout, rates, args.shots, args.rounds, args.seed, graphs=graphs
    )
    print(",".join([
        str(args.distance),
        repr(rates.p0x), repr(rates.p0z), repr(rates.p1x), repr(rates.p1z),
        repr(rates.p2),
        str(result.shots), str(result.rounds),
        str(result.fails_x), str(result.fails_z),
        repr(result.p_xl), repr(result.p_zl),
        repr(result.stderr_x), repr(result.stderr_z),
    ]))
    return 0


def _cmd_curve(args) -> int:
    db = _open_db(args)
    if args.model and (args.r0 is not None or args.r1 is not None):
        raise _UsageError("give either --model or explicit --r0/--r1, not both")
    warnings: set[str] = set()
    if args.model:
        rr = reduce(load_model(args.model))
        warnings.update(rr.warnings)
        query = Query.of(db, rr, args.kind)
        if query.p2 == 0.0:
            raise ComputationError(
                "model has zero p2; the ratio axes are undefined for a curve"
            )
        r0, r1 = query.r0, query.r1  # past an axis end, clamped as every query is
    else:
        r0 = args.r0 if args.r0 is not None else 1.0
        r1 = args.r1 if args.r1 is not None else 1.0
    bounds = (("--r0", args.r0), ("--r1", args.r1),
              ("--p2-min", args.p2_min), ("--p2-max", args.p2_max))
    for flag, value in bounds:
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise _UsageError(f"{flag} must be finite and >= 0, got {value!r}")
    axis_lo, axis_hi = AXES["p2"]
    lo = max(args.p2_min, axis_lo)
    hi = min(args.p2_max, axis_hi)
    print("p2," + ",".join(f"d{d}" for d in DISTANCES))
    if lo <= hi:
        for p2 in ladder_values(lo, hi):
            row = Query(db, args.kind, r0, r1, p2)  # one row's corners serve every distance
            try:
                values = [row.read(d) for d in DISTANCES]
            except MissingEntryError as err:
                print(f"skipping p2={format_value(p2)}: {err}", file=sys.stderr)
                continue
            warnings |= row.warnings  # only a printed row warns
            print(format_value(p2) + "," + ",".join(repr(v) for v in values))
    _warn(warnings)
    return 0


def _add_model_flags(sub) -> None:
    sub.add_argument("--model", required=True, help="per-gate error model JSON file")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polyest",
        description="Surface code logical error rate estimation tools.",
    )
    parser.add_argument(
        "--version", action="version", version=f"polyest {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a gate error model to six rates")
    _add_model_flags(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("estimate", help="logical rates at one distance")
    p.add_argument("--db", help=f"rate database CSV (default: ${DB_ENV_VAR})")
    _add_model_flags(p)
    p.add_argument("--distance", type=int, required=True, help="code distance (>= 3)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("solve", help="smallest distance reaching a target rate")
    p.add_argument("--db", help=f"rate database CSV (default: ${DB_ENV_VAR})")
    _add_model_flags(p)
    p.add_argument(
        "--target", type=float, required=True,
        help="target per-round logical rate, e.g. 1e-20",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("generate", help="fill or extend a rate database CSV")
    p.add_argument(
        "--grid", required=True,
        help="grid spec: 'full', 'desk', or a JSON file with distances/r0/r1/p2",
    )
    p.add_argument("--out", required=True, help="database CSV to create or extend")
    p.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    p.add_argument(
        "--target-fails", type=int, default=LOW_CONFIDENCE_FAILS,
        help=f"failure count per type to stop at (default {LOW_CONFIDENCE_FAILS})",
    )
    p.add_argument(
        "--max-shots", type=int, default=MAX_SHOTS,
        help=f"shot budget per grid point (default {MAX_SHOTS})",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="one Monte Carlo run at explicit rates")
    p.add_argument("--distance", type=int, required=True, help="code distance (>= 3)")
    p.add_argument("--p0x", type=float, required=True)
    p.add_argument("--p0z", type=float, required=True)
    p.add_argument("--p1x", type=float, required=True)
    p.add_argument("--p1z", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--dump-graph", metavar="PATH",
        help="also write the aggregated edge classes of both graphs as CSV",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("curve", help="rate versus p2 table for d = 3..6")
    p.add_argument("--db", help=f"rate database CSV (default: ${DB_ENV_VAR})")
    p.add_argument("--model", help="take r0/r1 from this model's reduction")
    p.add_argument("--r0", type=float, help="explicit r0 ratio (default 1)")
    p.add_argument("--r1", type=float, help="explicit r1 ratio (default 1)")
    p.add_argument("--kind", choices=("x", "z"), default="x")
    p.add_argument("--p2-min", type=float, default=AXES["p2"][0])
    p.add_argument("--p2-max", type=float, default=AXES["p2"][1])
    p.set_defaults(func=_cmd_curve)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ComputationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ModelError, DbError, MissingEntryError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
