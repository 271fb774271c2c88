"""The package's public names, and the Python versions its sources parse on.

The names are pinned one to a line, so a change to the public API shows
as a one-line diff here, and each of them is either used by the program
or named in README, so that no export lives only for its tests.
pyproject.toml asks for Python >= 3.10 and the CI matrix runs 3.10, so
every source file must parse under 3.10's grammar, whichever interpreter
runs the tests.  Importing the package must not load OpenSSL.
"""

import ast
import pathlib
import re
import subprocess
import sys
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
    "sym_power",
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


def _program_references() -> set:
    """Every name, attribute and identifier-shaped string in the modules
    that are not tests: the package's own (its __init__ only re-exports)
    and those under tools/ and perfbench/."""
    paths = [p for p in (ROOT / "src" / "divatlas").rglob("*.py") if p.name != "__init__.py"]
    paths += [p for d in ("tools", "perfbench") for p in (ROOT / d).rglob("*.py") if not p.name.startswith("test_")]
    refs = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                refs.add(node.value)
    return refs


def test_every_export_is_used_or_documented():
    # an export that only tests call is dead code: use it, name it in
    # README as part of the interface, or remove it
    documented = set(re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()))
    used = _program_references()
    assert [name for name in PUBLIC_NAMES if name not in used and name not in documented] == []


def test_every_source_parses_as_python_3_10():
    paths = sorted(p for d in ("src", "tests", "tools", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) >= 35
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_import_loads_no_openssl():
    # the tangent oracle draws from the builtin _blake2 module; hashlib,
    # which wraps it, also loads OpenSSL's _hashlib, a few MB per process
    code = "import sys, divatlas; print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
