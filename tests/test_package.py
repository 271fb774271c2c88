"""The package's public names, and the Python versions its sources parse on.

The names are pinned one to a line, so a change to the public API shows
as a one-line diff here.  pyproject.toml asks for Python >= 3.10 and the
CI matrix runs 3.10, so every source file must parse under 3.10's
grammar, whichever interpreter runs the tests.
"""

import ast
import pathlib
import types

import divatlas

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC_NAMES = (
    "RationalMatrix",
    "SKEW",
    "SYM",
    "SkewTensor",
    "SubspaceBasis",
    "SymTensor",
    "achieved_r",
    "apply_linear_map",
    "atlas_report",
    "big_R",
    "canonical_analysis",
    "contraction_matrix",
    "deformable",
    "e_max",
    "e_max_sym",
    "enc",
    "enclosing_space",
    "fiber_dim",
    "gauss_rank",
    "image_basis",
    "in_span",
    "is_in_power_of",
    "lambda_grd",
    "normalize_e",
    "random_decomposable",
    "random_tensor",
    "rank",
    "rho",
    "sec_dim_printed",
    "small_r",
    "sub_dim",
    "sub_dim_tangent",
    "subset_rank",
    "subset_unrank",
    "sym_power",
    "sym_product",
    "tensor_from_json",
    "tensor_to_json",
    "w_dim",
    "w_top_points",
    "wedge",
)


def test_public_names_are_pinned():
    # submodules are left out: which of them are bound depends on what
    # else the test session imported
    names = sorted(
        name
        for name, value in vars(divatlas).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == list(PUBLIC_NAMES)


def test_every_source_parses_as_python_3_10():
    paths = sorted(p for d in ("src", "tests", "tools", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) >= 35
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
