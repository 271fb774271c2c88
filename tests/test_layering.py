"""The production route never calls an oracle, and gauss_rank never calls the kernel.

Every exact rank on the production route (enc, enclosing_space,
is_in_power_of, sub_dim_tangent, the atlas and the CLI) comes from one
integer kernel in linalg: _eliminate, with _packed_rows behind it, the
packed covector test of is_in_power_of and of _eliminate on a bound
that its caller passes (enc's).  The tangent oracle's block D takes
_certified_rank in every cell: the rank-counting pass mod p,
_rank_mod_p, on D's rows, and behind it _eliminate on the same rows.
The names in ORACLES are independent second routes, kept so that
verify, the tests and perfbench can check that kernel.  If
a production function loaded one, a check would quietly become the
route it checks; if gauss_rank loaded the kernel, the cross-check would
compare the kernel with itself.  This test reads the source of each
production module and fails on either.

One more fence runs inside tensors: membership's face sums
(_skew_face_sums, _sym_face_sums), from which is_in_power_of's True
answer comes, must load none of enc's dense column builders and not the
kernel, directly or through another function of the module; so
membership stays a check on enc rather than a second reading of enc's
columns.  A third runs inside subspaces: the tangent oracle
(sub_dim_tangent, _d_rows, _chart_pattern, _face_entries) must load
neither enc nor enclosing_space nor any of the contraction column
builders, in the same way; its rank D equals enc(w), read off the
entries that its chart makes for each face, so it stays a second route
to the enclosing dimension and does not rerun enc's.

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
        "contraction_matrix",
        "apply_linear_map",
        "_substitution",
        "_matrix_rows",
    }
)
KERNEL = frozenset({"_eliminate", "_rank_mod_p", "_certified_rank", "_packed_rows"})
# membership's face sums, from which is_in_power_of's True answer comes,
# and the dense side that they are checked against: enc's column builders
# and kernel
FACE_SUMS = ("_skew_face_sums", "_sym_face_sums")
DENSE_SIDE = frozenset(
    {"_contraction_columns", "_skew_columns", "_sym_columns", "_skew_column", "_sym_column", "_eliminate"}
)
# the tangent oracle, and enc's route, which its rank D must not rerun
TANGENT = ("sub_dim_tangent", "_d_rows", "_chart_pattern", "_face_entries")
ENC_SIDE = frozenset(
    {
        "enc",
        "enclosing_space",
        "_pivot_columns",
        "_contraction_columns",
        "_skew_columns",
        "_sym_columns",
        "_skew_column",
        "_sym_column",
    }
)


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
            return len(_eliminate(zip(*M), len(M))[0])

        def rank(M):
            return len(_eliminate(map(_int_vector, M.columns()), M.rows)[0])

        class Basis:
            def dim(self):
                return linalg.image_basis(self.m)
        """
    )
    assert _violations(source) == [
        ("enc", "contraction_matrix"),
        ("enc", "rank"),
        ("gauss_rank", "_eliminate"),
        ("Basis", "image_basis"),
    ]


def _fence_loads(source: str, roots, forbidden) -> list:
    """(function, name) pairs: a forbidden name loaded by a function of
    roots, or by a module-level function that one of them loads,
    followed to any depth."""
    defs = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += _loads(defs[name]) & defs.keys()
    return sorted((name, loaded) for name in seen for loaded in _loads(defs[name]) & forbidden)


def test_the_face_sums_read_no_dense_column():
    # membership's True answer comes from the face sums alone; if they
    # read a dense column or the kernel, membership would check enc
    # against enc's own columns
    source = inspect.getsource(tensors)
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    # a renamed function would leave a stale fence; _eliminate is linalg's
    assert set(FACE_SUMS) | DENSE_SIDE <= defined | KERNEL
    assert _fence_loads(source, FACE_SUMS, DENSE_SIDE) == []


def test_the_face_sums_fence_sees_direct_and_indirect_loads():
    source = textwrap.dedent(
        """
        def _skew_face_sums(keys, cs, rows):
            return tensors._contraction_columns(keys)

        def _sym_face_sums(keys, cs, k, rows):
            return _codes(keys)

        def _codes(keys):
            return [_sym_column(key.get, key, 0, True) for key in keys]

        def _skew_columns(t):
            return _skew_column(t.coeffs.get, (), t.n)
        """
    )
    assert _fence_loads(source, FACE_SUMS, DENSE_SIDE) == [
        ("_codes", "_sym_column"),
        ("_skew_face_sums", "_contraction_columns"),
    ]


def test_the_tangent_oracle_runs_no_enc():
    # sub_dim_tangent's redraw reads rank D, which equals enc(w) and comes
    # from its chart's face entries; if the oracle loaded enc or a contraction column
    # builder, it would measure w through the route that it checks
    source = inspect.getsource(subspaces)
    defined = {
        node.name
        for module in (subspaces, tensors)
        for node in ast.parse(inspect.getsource(module)).body
        if isinstance(node, ast.FunctionDef)
    }
    # a renamed function would leave a stale fence
    assert set(TANGENT) | ENC_SIDE <= defined
    assert _fence_loads(source, TANGENT, ENC_SIDE) == []


def test_the_tangent_fence_sees_direct_and_indirect_loads():
    source = textwrap.dedent(
        """
        def sub_dim_tangent(e, k, n, kind, seed=0):
            if enc(omega) < full:
                return _helper(omega)

        def _helper(omega):
            return tensors.enclosing_space(omega).dim

        def _chart_pattern(kind, e, k):
            return _skew_face_sums(basis, range(len(basis)), rows)
        """
    )
    assert _fence_loads(source, TANGENT, ENC_SIDE) == [("_helper", "enclosing_space"), ("sub_dim_tangent", "enc")]
