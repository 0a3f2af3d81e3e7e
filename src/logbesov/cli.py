"""Command-line interface.

Verbs: partition-check, norm, criteria, lowerbound, exp-growth, charfun,
sandwich.  Global flags: --grid J=<J>[,dim=<d>] --out DIR --format csv|json.
Exit code 0 iff every configured assertion passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .criteria import verdict
from .errors import InvalidInputError, LogBesovError
from .experiments import RUNNERS, ExperimentConfig, Table
from .fileio import load_sfn, save_dpu
from .gallery import family_from_spec, gallery_from_spec
from .grid import INF, GridSpec
from .norms import BesovParams, DiffParams, besov_norm, diffspace_norm, dini_norm, tl_norm_inf
from .partition import build_partition
from .paraproducts import multiplier_lower_bound


def _parse_list(flag: str, text: str, parse) -> tuple:
    try:
        return tuple(parse(x) for x in text.split(","))
    except ValueError:
        raise InvalidInputError(f"{flag}: cannot parse {text!r}") from None


def _parse_grid(text: str) -> tuple[int, int]:
    j, dim = 14, 1
    for item in text.split(","):
        key, _, val = item.partition("=")
        key = key.strip().lower()
        if key == "j":
            j = int(val)
        elif key == "dim":
            dim = int(val)
        else:
            raise argparse.ArgumentTypeError(f"unknown grid field {key!r}")
    return j, dim


def _write_out(args, name: str, text: str) -> None:
    """Write `text` to `--out DIR`/`name` when --out is given, else print it."""
    if not args.out:
        print(text)
        return
    path = Path(args.out) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror}") from None
    print(f"wrote {path}")


def _emit_table(table: Table, args) -> int:
    text = table.to_csv() if args.format == "csv" else table.to_json()
    _write_out(args, f"{table.name}.{args.format}", text)
    for check in table.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail else ""
        print(f"[{status}] {check.label}{detail}")
    return 0 if table.ok else 1


def _load_input(args, grid: GridSpec):
    if getattr(args, "input", None):
        f = load_sfn(args.input)
        return f, f.grid
    if getattr(args, "gallery", None):
        return gallery_from_spec(grid, args.gallery), grid
    raise LogBesovError("need --input file.sfn or --gallery SPEC")


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="logbesov",
        description="Numerical laboratory for logarithmic Besov spaces on the torus",
    )
    parser.add_argument("--grid", type=_parse_grid, default=(14, 1), help="J=<int>[,dim=<1|2>]")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("partition-check", help="partition-of-unity invariants")
    sp.add_argument("--kind", choices=("radial", "tensor"), default="radial")
    sp.add_argument("--export", default=None, help="also write the partition as .dpu")

    sp = sub.add_parser("norm", help="evaluate a function-space norm")
    sp.add_argument("--space", choices=("besov", "tl", "diff", "dini"), default="besov")
    sp.add_argument("--s", type=float, default=0.0)
    sp.add_argument("--b", type=float, default=0.0)
    sp.add_argument("--d", type=float, default=0.0)
    sp.add_argument("--p", type=float, default=INF)
    sp.add_argument("--q", type=float, default=INF)
    sp.add_argument("--m", type=int, default=1, help="modulus order for --space diff")
    sp.add_argument("--input", default=None)
    sp.add_argument("--gallery", default=None)

    sp = sub.add_parser("criteria", help="multiplier criterion report")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--input", default=None)
    sp.add_argument("--gallery", default=None)

    sp = sub.add_parser("lowerbound", help="multiplier-norm lower bound over a family")
    sp.add_argument("--f", required=True, help="gallery spec of the multiplier")
    sp.add_argument("--family", required=True, help="family spec, e.g. packets:cases=1-5,m=8,b=0")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--s", type=float, default=0.0)
    sp.add_argument("--q", type=float, default=INF)

    for verb in ("exp-growth", "charfun", "sandwich"):
        sp = sub.add_parser(verb, help=f"run the {verb} experiment")
        sp.add_argument("--kind", choices=("radial", "tensor"), default="radial")
        if verb == "exp-growth":
            sp.add_argument("--b-list", default="-2,-1,0,0.5,1,2")
            sp.add_argument("--p-list", default="1,inf")
        if verb == "charfun":
            sp.add_argument("--shape", choices=("cube", "halfspace"), default="cube")
        else:
            sp.add_argument("--m-min", type=int, default=3)
            sp.add_argument("--m-max", type=int, default=10)

    args = parser.parse_args(argv)
    j, dim = args.grid

    try:
        grid = GridSpec(dim, j)
        if args.verb == "partition-check":
            config = ExperimentConfig(dim=dim, log2_samples=j, kind=args.kind)
            table = RUNNERS["partition-check"](config)
            if args.export:
                save_dpu(args.export, build_partition(grid, args.kind))
                print(f"wrote {args.export}")
            return _emit_table(table, args)

        if args.verb == "norm":
            f, grid = _load_input(args, grid)
            partition = build_partition(grid)
            if args.space == "besov":
                res = besov_norm(f, partition, BesovParams(args.s, args.b, args.p, args.q))
            elif args.space == "tl":
                if args.p != INF:
                    raise InvalidInputError(f"--space tl is the p = inf norm; got --p {args.p}")
                res = tl_norm_inf(f, partition, args.s, args.b, args.q)
            elif args.space == "diff":
                res = diffspace_norm(f, DiffParams(args.s, args.b, args.d, args.p, args.q, args.m))
            else:
                res = dini_norm(f, args.p)
            print(json.dumps({"value": res.value, "tail": res.tail, "per_level": list(res.per_level)}))
            return 0

        if args.verb == "criteria":
            f, grid = _load_input(args, grid)
            partition = build_partition(grid)
            report = verdict(f, partition, args.p, args.b)
            _write_out(args, "report.json", json.dumps(report.to_dict(), indent=2))
            return 0

        if args.verb == "lowerbound":
            f = gallery_from_spec(grid, args.f)
            partition = build_partition(grid)
            family = family_from_spec(grid, args.family)
            bound, name = multiplier_lower_bound(
                f, partition, BesovParams(args.s, args.b, args.p, args.q), family
            )
            print(json.dumps({"lower_bound": bound, "argmax": name}))
            return 0

        # experiment verbs: each flag is registered only where its runner reads it
        fields = {}
        if args.verb == "exp-growth":
            fields["b_list"] = _parse_list("--b-list", args.b_list, float)
            fields["p_list"] = _parse_list("--p-list", args.p_list, float)
        if args.verb == "charfun":
            fields["shape"] = args.shape
        else:
            fields["m_range"] = (args.m_min, args.m_max)
        config = ExperimentConfig(dim=dim, log2_samples=j, kind=args.kind, **fields)
        table = RUNNERS[args.verb](config)
        return _emit_table(table, args)
    except LogBesovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run the command; a closed stdout (`| head -1`) ends it with exit code 1, not a traceback."""
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python's documented SIGPIPE handling: stdout now writes to devnull,
        # so the interpreter's final flush does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
