"""The production route never calls an oracle, and gauss_rank never calls the kernel.

Every exact rank on the production route (enc, enclosing_space,
is_in_power_of, sub_dim_tangent, the atlas and the CLI) comes from one
integer kernel in linalg: _eliminate, with _bareiss and _certified_rank
in front of it.  The names in ORACLES are independent second routes,
kept so that verify, the tests and perfbench can check that kernel.  If
a production function loaded one, a check would quietly become the
route it checks; if gauss_rank loaded the kernel, the cross-check would
compare the kernel with itself.  This test reads the source of each
production module and fails on either.

Module-level imports are not loads.  tensors and subspaces still import
rank with a "# noqa: F401", only because perfbench's tracer tests expect
to find that binding there; those imports go once the benchmark traces
the private kernels instead (ROADMAP item 1).
"""

import ast
import inspect
import textwrap

import pytest

from divatlas import atlas, brill_noether, cli, linalg, subspaces, tensors

PRODUCTION = (linalg, tensors, subspaces, atlas, brill_noether, cli)
ORACLES = frozenset(
    {
        "RationalMatrix",
        "rank",
        "image_basis",
        "in_span",
        "gauss_rank",
        "exact_det",
        "int_det",
        "random_matrix",
        "_int_rows",
        "contraction_matrix",
        "apply_linear_map",
        "_substitution",
        "_matrix_rows",
    }
)
KERNEL = frozenset({"_eliminate", "_bareiss", "_certified_rank"})


def _loads(node) -> set:
    """Every name that the code under node reads, bare or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
    return names


def _violations(source: str) -> list:
    """(top-level statement, name) pairs: an oracle name loaded outside the
    oracles' own definitions, or a kernel name loaded by gauss_rank."""
    found = []
    for node in ast.parse(source).body:
        where = getattr(node, "name", f"line {node.lineno}")
        if where == "gauss_rank":
            found += [(where, name) for name in sorted(_loads(node) & KERNEL)]
        elif where not in ORACLES:
            found += [(where, name) for name in sorted(_loads(node) & ORACLES)]
    return found


@pytest.mark.parametrize("module", PRODUCTION, ids=lambda m: m.__name__)
def test_production_code_loads_no_oracle(module):
    assert _violations(inspect.getsource(module)) == []


def test_every_oracle_is_defined_in_linalg_or_tensors():
    # a renamed oracle would leave a stale exemption behind
    defined = {
        node.name
        for module in (linalg, tensors)
        for node in ast.parse(inspect.getsource(module)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert ORACLES <= defined
    assert KERNEL <= defined


def test_the_check_sees_both_directions():
    source = textwrap.dedent(
        """
        from .linalg import rank

        def enc(t):
            return rank(contraction_matrix(t))

        def gauss_rank(M):
            return _bareiss(M)[0]

        def rank(M):
            return _bareiss(_int_rows(M._m))[0]

        class Basis:
            def dim(self):
                return linalg.image_basis(self.m)
        """
    )
    assert _violations(source) == [
        ("enc", "contraction_matrix"),
        ("enc", "rank"),
        ("gauss_rank", "_bareiss"),
        ("Basis", "image_basis"),
    ]
