"""Command-line front end: atlas tables, tensor queries, verification runs.

Exit codes: 0 success, 1 usage error, 2 computation or validation
failure.  Output is deterministic for identical inputs and seeds, and
the JSON form of every report round-trips losslessly.
"""

from __future__ import annotations

import argparse
import json
import sys

from .atlas import atlas_report, class_to_kind
from .tensors import enclosing_space, tensor_from_json
from .verify import SUITES, run_suites

# The squared tableau counts over all shapes of g cells sum to g!, so up
# to this genus every point count has at most 3,706 digits and prints
# under Python's 4,300-digit int-to-str limit; far above it the atlas hangs.
MAX_COMPONENTS_GENUS = 2500
# Every other number in a report is below g + d^2 + C(d + k, k) or, in the
# canonical block, C(g, k) + g: a section count r + 1 is at most d + 1, so
# each fiber is at most C(r + k, k) - 1 and each Sub_e at most
# e(n - e) + C(e + k - 1, k) - 1 with n <= d + 1, and a support adds at
# most g.  At these caps C(12000, 2000) has 2,347 digits.
MAX_COMPONENTS_DEGREE = 10000
MAX_COMPONENTS_K = 2000


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    computation failures, so remap usage errors to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="divatlas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_comp = sub.add_parser(
        "components",
        help="enumerate the components and intersections of one divisor variety",
    )
    p_comp.add_argument("--genus", type=int, required=True)
    p_comp.add_argument("--degree", type=int, required=True)
    p_comp.add_argument("--k", type=int, required=True, help="symmetric-product index")
    p_comp.add_argument(
        "--class",
        dest="nsclass",
        choices=("n", "t"),
        default="n",
        help="n: determinant (skew) class, t: symmetrized class",
    )
    p_comp.add_argument("--format", choices=("text", "json"), default="text")
    p_comp.add_argument(
        "--compat-paper-sym",
        action="store_true",
        help="use the parity-dropping symmetric enclosing bounds",
    )
    p_comp.add_argument(
        "--compat-paper-secdim",
        action="store_true",
        help="use the retained closed-form secant dimensions for k = 2 fibers",
    )
    p_comp.add_argument(
        "--canonical",
        action="store_true",
        help="include the canonical-class exorbitance analysis",
    )

    p_enc = sub.add_parser("enc", help="enclosing dimension of a tensor from a JSON file")
    p_enc.add_argument("tensor", help="path to a tensor JSON file")
    p_enc.add_argument(
        "--sub",
        type=int,
        default=None,
        metavar="E",
        help="also report membership in the subspace variety Sub_E",
    )
    p_enc.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", help="run the seeded verification suites")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--suite", choices=tuple(SUITES), default=None)
    return parser


def _format_components_text(report: dict) -> str:
    params = report["params"]
    lines = [
        "divisor variety atlas: genus {genus}, degree {degree}, C_{k}, class {cls}".format(
            genus=params["genus"], degree=params["degree"], k=params["k"], cls=params["class"]
        )
    ]
    comps = report["components"]
    if not comps:
        lines.append("no components: every linear system of this class is empty")
    else:
        header = f"{'r':>3} {'e':>3} {'support':>10} {'supp.dim':>9} {'fiber':>7} {'total':>6} {'mult':>5}  flags"
        lines.append(header)
        for c in comps:
            flags = "resolution" if c["is_resolution"] else ""
            lines.append(
                f"{c['r']:>3} {c['e']:>3} {c['support']:>10} {c['support_dim']:>9} "
                f"{'P^' + str(c['fiber_dim']):>7} {c['total_dim']:>6} {c['multiplicity']:>5}  {flags}".rstrip()
            )
    inters = report["intersections"]
    if inters:
        lines.append("intersections:")
        for x in inters:
            fiber = x["fiber"]
            lines.append(
                "  e={se} with e={de}: image {img}, fiber Sub_{fe}({kind} k={fk}, C^{amb}), "
                "fiber dim {fd}, total dim {td}".format(
                    se=x["shallow_e"],
                    de=x["deep_e"],
                    img=x["image"],
                    fe=fiber["e"],
                    kind=fiber["kind"],
                    fk=fiber["k"],
                    amb=fiber["ambient"],
                    fd=x["fiber_dim"],
                    td=x["total_dim"],
                )
            )
    counts = report["counts"]
    lines.append(
        "components: enumerated {}, closed-form count {}, agrees: {}".format(
            counts["enumerated"], counts["paper_formula"], "yes" if counts["agrees"] else "no"
        )
    )
    if "canonical" in report:
        can = report["canonical"]
        lines.append(
            "canonical analysis (genus {g}, k={k}): dim|K| = {cd}, dim main = {md}, "
            "gap = {gap}, exorbitant: {ex}".format(
                g=can["genus"],
                k=can["k"],
                cd=can["canonical_dim"],
                md=can["main_dim"],
                gap=can["gap"],
                ex="yes" if can["exorbitant"] else "no",
            )
        )
        locus = can["locus"]
        lines.append(
            "  deformable locus Sub_{e}({kind} k={k}, C^{amb}), codim {cod} in |K|".format(
                e=locus["e"], kind=locus["kind"], k=locus["k"], amb=locus["ambient"], cod=can["locus_codim"]
            )
        )
    for note in report["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_components(args) -> int:
    for flag, value, limit in (
        ("--genus", args.genus, MAX_COMPONENTS_GENUS),
        ("--degree", args.degree, MAX_COMPONENTS_DEGREE),
        ("--k", args.k, MAX_COMPONENTS_K),
    ):
        if value > limit:
            raise ValueError(f"{flag} {value} is above the components limit of {limit}")
    kind = class_to_kind(args.nsclass)
    report = atlas_report(
        args.genus,
        args.degree,
        args.k,
        kind,
        paper_sym=args.compat_paper_sym,
        printed_secdim=args.compat_paper_secdim,
        include_canonical=args.canonical,
    )
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_format_components_text(report))
    return 0


def _cmd_enc(args) -> int:
    try:
        with open(args.tensor, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        print(f"divatlas: cannot read {args.tensor}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"divatlas: {args.tensor} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    t = tensor_from_json(obj)
    basis = enclosing_space(t)
    value = basis.dim
    result = {
        "n": t.n,
        "k": t.k,
        "kind": t.kind,
        "enc": value,
        "basis": [[str(x) for x in v] for v in basis.vectors],
    }
    if args.sub is not None:
        result["sub"] = {"e": args.sub, "member": value <= args.sub}
    if args.format == "json":
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    print(f"kind: {t.kind}  n: {t.n}  k: {t.k}")
    print(f"enc: {value}")
    print("enclosing space basis:")
    for v in basis.vectors:
        print("  (" + ", ".join(str(x) for x in v) + ")")
    if not basis.vectors:
        print("  (empty)")
    if args.sub is not None:
        print(f"member of Sub_{args.sub}: {'true' if value <= args.sub else 'false'}")
    return 0


def _cmd_verify(args) -> int:
    names = None if args.suite is None else [args.suite]
    ok, lines = run_suites(names, seed=args.seed)
    print("\n".join(lines))
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        if args.command == "components":
            return _cmd_components(args)
        if args.command == "enc":
            return _cmd_enc(args)
        return _cmd_verify(args)
    except (ValueError, RuntimeError) as exc:
        print(f"divatlas: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
