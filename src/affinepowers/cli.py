"""Command-line interface.

Polynomials are passed as comma-separated coefficient lists from the
constant term up ("1,0,-3/2,1"), or as "@path" to read the same text from a
file.  Exit codes: 0 for a verified success (including certified
above-threshold answers), 2 for a typed algorithmic failure, 1 for usage
errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, classic, decompose, generate, multivariate, sde, serialize
from .errors import ExactAlgebraError
from .unipoly import UniPoly


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; code 2 is reserved for algorithmic failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let coefficient lists with a leading minus ("-1,3,-3,1", "-3/2")
        # parse as positionals instead of being mistaken for option flags
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?(,.*)?$|^-\d*\.\d+$"
        )


def _read_text_arg(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read().strip()
    if arg.startswith("@"):
        return Path(arg[1:]).read_text().strip()
    return arg


def _parse_poly(arg: str) -> UniPoly:
    try:
        return serialize.parse_unipoly(_read_text_arg(arg))
    except (ValueError, OSError) as exc:
        print(f"error: cannot read polynomial: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _read_json_arg(arg: str) -> dict:
    try:
        if arg == "-":
            return json.load(sys.stdin)
        return json.loads(Path(arg).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read JSON input: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_node(node: Fraction) -> str:
    if node == 0:
        return "x"
    if node < 0:
        return f"(x + {-node})"
    return f"(x - {node})"


def _fmt_term(coeff: Fraction, node: Fraction, exponent: int) -> str:
    base = _fmt_node(node)
    if exponent == 0:
        return f"{coeff}"
    suffix = f"^{exponent}" if exponent != 1 else ""
    return f"{coeff} * {base}{suffix}"


def _fmt_form(term: multivariate.MultiTerm) -> str:
    parts = []
    if term.form.constant:
        parts.append(str(term.form.constant))
    for j, c in enumerate(term.form.coefficients):
        if not c:
            continue
        var = f"x{j + 1}"
        if not parts:
            parts.append(var if c == 1 else f"{c} {var}")
        elif c < 0:
            parts.append(f"- {var}" if c == -1 else f"- {-c} {var}")
        else:
            parts.append(f"+ {var}" if c == 1 else f"+ {c} {var}")
    body = " ".join(parts)
    return f"{term.coeff} * ({body})^{term.exponent}"


def _solver_name(text: str) -> str:
    # "-" and "_" are interchangeable in solver names
    return text.replace("-", "_")


_SOLVERS = ("auto", *(name for name, _ in decompose._STRATEGIES))


def _cmd_decompose(args) -> int:
    f = _parse_poly(args.poly)
    stats: list[dict] | None = [] if args.stats else None
    started = time.perf_counter()
    tag = args.algorithm
    if args.delta is not None and tag != "small_intervals":
        raise ValueError("--delta applies only to --algorithm small-intervals")
    if tag == "auto":
        dec, tag = decompose.decompose_auto(f)
    elif tag == "distinct_nodes":
        dec = decompose.decompose_distinct_nodes(f, stats=stats)
    elif tag == "small_intervals":
        width = None if args.delta in (None, "auto") else int(args.delta)
        dec = decompose.decompose_small_intervals(f, width)
    else:
        dec = dict(decompose._STRATEGIES)[tag](f)
    elapsed = time.perf_counter() - started
    # no second check here: every strategy re-expands its answer and
    # raises ReconstructionFailed unless it reproduces f
    if args.json:
        doc = serialize.decomposition_to_json(dec)
        doc["algorithm"] = tag
        doc["verified"] = True
        if stats is not None:
            doc["stats"] = stats
            doc["seconds"] = round(elapsed, 6)
        print(json.dumps(doc, indent=2))
    else:
        print(f"strategy: {tag}")
        print(f"terms: {len(dec)}")
        for t in dec.terms:
            print(_fmt_term(t.coeff, t.node, t.exponent))
        if stats is not None:
            for rec in stats:
                print(
                    "iteration {iteration}: order={order} "
                    "residual_degree={residual_degree} "
                    "max_coeff_bits={max_coeff_bits}".format(**rec)
                )
            print(f"seconds: {elapsed:.3f}")
        print("verified: true")
    return 0


def _cmd_generate(args) -> int:
    spec = generate.InstanceSpec(
        s=args.terms,
        exp_min=args.exp_min,
        exp_max=args.exp_max,
        min_gap=args.min_gap,
        node_range=args.node_range,
        repeated_nodes=args.repeated_nodes,
        seed=args.seed,
    )
    f, dec = generate.generate_instance(
        spec, args.regime, groups=args.groups, delta=args.delta
    )
    poly_text = serialize.format_unipoly(f)
    doc = {
        "regime": args.regime,
        "poly": serialize.unipoly_to_json(f),
        "decomposition": serialize.decomposition_to_json(dec),
    }
    if args.out:
        Path(args.out).write_text(poly_text + "\n")
        truth = Path(args.out + ".truth.json")
        truth.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.out} and {truth}")
    elif args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"regime: {args.regime}")
        print(f"poly: {poly_text}")
        for t in dec.terms:
            print(_fmt_term(t.coeff, t.node, t.exponent))
    return 0


def _cmd_verify(args) -> int:
    f = _parse_poly(args.poly)
    dec = serialize.decomposition_from_json(_read_json_arg(args.decomposition))
    ok = dec.expand() == f
    if args.json:
        print(json.dumps({"verified": ok}))
    else:
        print(f"verified: {str(ok).lower()}")
    return 0 if ok else 2


def _cmd_sde(args) -> int:
    f = _parse_poly(args.poly)
    eq = sde.find_min_sde(f, args.shift, max_order=args.max_order)
    if eq is None:
        print("error: no equation within the order limit", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(serialize.sde_to_json(eq), indent=2))
    else:
        print(f"order: {eq.order}")
        print(f"shift: {eq.shift}")
        for i, p in enumerate(eq.polys):
            print(f"P_{i}: {serialize.format_unipoly(p)}")
    return 0


def _cmd_waring(args) -> int:
    f = _parse_poly(args.poly)
    res = classic.waring_decompose(f)
    if args.json:
        doc = {"degree": res.degree, "above_threshold": res.above_threshold}
        if res.terms is not None:
            doc["terms"] = [
                {"coeff": str(c), "node": str(b)} for c, b in res.terms
            ]
        print(json.dumps(doc, indent=2))
    else:
        print(f"degree: {res.degree}")
        if res.terms is None:
            print("above threshold: optimum not certified at this degree")
        else:
            print(f"size: {len(res.terms)}")
            for c, b in res.terms:
                print(_fmt_term(c, b, res.degree))
    return 0


def _cmd_sparsest(args) -> int:
    f = _parse_poly(args.poly)
    res = classic.sparsest_shift(f)
    if args.json:
        doc = {"above_threshold": res.above_threshold}
        if res.support is not None:
            doc["shift"] = str(res.shift)
            doc["support"] = [
                {"exponent": e, "coeff": str(c)} for e, c in res.support
            ]
        print(json.dumps(doc, indent=2))
    else:
        if res.support is None:
            print("above threshold: no certified sparsest shift")
        else:
            print(f"shift: {res.shift}")
            print(f"size: {len(res.support)}")
            for e, c in res.support:
                print(_fmt_term(c, res.shift, e))
    return 0


def _cmd_multi(args) -> int:
    poly = serialize.multipoly_from_json(_read_json_arg(args.input))
    bb = multivariate.BlackBox.from_multipoly(poly)
    md = multivariate.multi_build(
        bb, rng_seed=args.seed, backend=args.backend, retries=args.retries
    )
    verified = multivariate.expand_multi(md) == poly
    if not verified:
        print("error: re-expansion mismatch", file=sys.stderr)
        return 2
    if args.json:
        doc = serialize.multidec_to_json(md)
        doc["verified"] = verified
        print(json.dumps(doc, indent=2))
    else:
        print(f"terms: {len(md)}")
        for t in md.terms:
            print(_fmt_form(t))
        print(f"verified: {str(verified).lower()}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="affinepowers",
        description="Exact decompositions of polynomials into sums of "
        "powers of affine forms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a univariate polynomial")
    p.add_argument("poly", help='coefficients "c0,c1,..." or @file')
    p.add_argument(
        "--algorithm",
        type=_solver_name,
        choices=_SOLVERS,
        default="auto",
        help="reconstruction strategy (default: auto)",
    )
    p.add_argument(
        "--delta",
        default=None,
        help="interval width for small_intervals only, or 'auto' (default)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--stats", action="store_true", help="print timing/iteration stats")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("generate", help="generate a certified random instance")
    p.add_argument("--regime", choices=generate.REGIMES, required=True)
    p.add_argument("--terms", type=int, required=True, help="number of terms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exp-min", type=int, default=None)
    p.add_argument("--exp-max", type=int, default=None)
    p.add_argument("--min-gap", type=int, default=None)
    p.add_argument("--node-range", type=int, default=9)
    p.add_argument("--repeated-nodes", action="store_true")
    p.add_argument("--groups", type=int, default=None, help="small_intervals groups")
    p.add_argument("--delta", type=int, default=None, help="small_intervals width")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None, help="write poly here and truth to OUT.truth.json")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check a decomposition against a polynomial")
    p.add_argument("poly", help='coefficients "c0,c1,..." or @file')
    p.add_argument("decomposition", help="decomposition JSON file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sde", help="minimal differential equation for a polynomial")
    p.add_argument("poly", help='coefficients "c0,c1,..." or @file')
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sde)

    p = sub.add_parser("waring", help="optimal equal-exponent decomposition")
    p.add_argument("poly", help='coefficients "c0,c1,..." or @file')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_waring)

    p = sub.add_parser("sparsest-shift", help="sparsest single-node form")
    p.add_argument("poly", help='coefficients "c0,c1,..." or @file')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sparsest)

    p = sub.add_parser("multi", help="multivariate decomposition from dense input")
    p.add_argument("input", help="multivariate polynomial JSON file, or - for stdin")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--backend",
        type=_solver_name,
        choices=_SOLVERS,
        default="distinct_nodes",
    )
    p.add_argument("--retries", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_multi)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExactAlgebraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
