"""Command-line front end: atlas tables, tensor queries, verification runs.

Exit codes: 0 success, 1 usage error or a reader that closed the
output pipe, 2 computation or validation failure.  Output is
deterministic for identical inputs and seeds, and the JSON form of
every report round-trips losslessly.

The argument parser is built once per process, on the first ``main()``
call, and reused by every later call; ``main`` keeps no other state
between calls.  Each call parses into a fresh namespace, and usage
errors and ``--help`` write to the ``sys.stderr`` and ``sys.stdout`` of
the moment.  Only the ``verify`` command imports ``divatlas.verify``,
so an ``enc`` or ``components`` process never compiles the suites; the
parser takes their names from ``SUITE_NAMES``, which a test holds equal
to ``verify.SUITES``.  ``enc`` refuses a ``--sub`` below 0 before it
reads the file, and writes its JSON answer through ``_enc_json``, the
text of ``json.dumps(indent=2, sort_keys=True)`` without json's
pure-Python indenting encoder.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .atlas import atlas_report, class_to_kind
from .tensors import _MAX_DIGITS, enclosing_space, tensor_from_json

# verify.SUITES's names in its order, the choices of verify --suite
SUITE_NAMES = (
    "rank-oracle",
    "enc-oracle",
    "subdim-oracle",
    "bn-forms",
    "atlas-examples",
    "count-reconciliation",
    "deformability",
)

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


# Building the parser takes several times as long as parsing one command
# line, and importing this module must build nothing, so the first call
# builds it.
@functools.cache
def _build_parser() -> _Parser:
    # --help shows the docstring up to its last paragraph, which is about
    # this module rather than the command
    parser = _Parser(prog="divatlas", description=__doc__.rsplit("\n\n", 1)[0])
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
    p_ver.add_argument("--suite", choices=SUITE_NAMES, default=None)
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


def _enc_json(result: dict) -> str:
    """json.dumps(result, indent=2, sort_keys=True) for _cmd_enc's result,
    byte for byte, without the pure-Python encoder that json runs
    whenever indent is set: each string goes through json's C string
    encoder, and the layout around them is written here.  A basis vector
    is never empty: it has n >= enc >= 1 entries."""
    encode = json.encoder.encode_basestring_ascii
    vectors = ["[\n      " + ",\n      ".join(map(encode, v)) + "\n    ]" for v in result["basis"]]
    lines = [
        '  "basis": ' + ("[\n    " + ",\n    ".join(vectors) + "\n  ]" if vectors else "[]"),
        f'  "enc": {result["enc"]}',
        f'  "k": {result["k"]}',
        f'  "kind": {encode(result["kind"])}',
        f'  "n": {result["n"]}',
    ]
    if "sub" in result:
        sub = result["sub"]
        member = "true" if sub["member"] else "false"
        lines.append(f'  "sub": {{\n    "e": {sub["e"]},\n    "member": {member}\n  }}')
    return "{\n" + ",\n".join(lines) + "\n}"


def _cmd_enc(args) -> int:
    if args.sub is not None and args.sub < 0:
        raise ValueError(f"--sub {args.sub} is below 0")
    try:
        with open(args.tensor, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {args.tensor}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.tensor} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # what is left is int()'s refusal of a JSON integer past its digit limit
        raise ValueError(f"{args.tensor} holds an integer of more than {_MAX_DIGITS} digits") from exc
    t = tensor_from_json(obj)
    basis = enclosing_space(t)
    value = basis.dim
    result = {
        "n": t.n,
        "k": t.k,
        "kind": t.kind,
        "enc": value,
        "basis": [list(map(str, v)) for v in basis.vectors],
    }
    if args.sub is not None:
        result["sub"] = {"e": args.sub, "member": value <= args.sub}
    if args.format == "json":
        print(_enc_json(result))
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
    from .verify import run_suites

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
            code = _cmd_components(args)
        elif args.command == "enc":
            code = _cmd_enc(args)
        else:
            code = _cmd_verify(args)
        # a short output waits in the buffer; a closed pipe shows here
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at
        # os.devnull so that flush cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"divatlas: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
