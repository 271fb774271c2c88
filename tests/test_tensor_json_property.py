"""Property test: tensor_from_json against a per-term reference parser.

The reference below walks the terms one at a time: it checks each term
and its index, converts its coefficient, accumulates repeated keys, and
reports the first bad index once every term is read.  tensor_from_json
checks whole term lists at once; on every input it must return the same
tensor (same keys in the same order, same values and number types) or
raise a ValueError with the same message.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import itertools  # noqa: E402

from divatlas.linalg import as_exact  # noqa: E402
from divatlas.tensors import (  # noqa: E402
    SKEW,
    SYM,
    SkewTensor,
    SymTensor,
    _coeff_from_json,
    _coeffs_from_json,
    tensor_from_json,
)

# ---------------------------------------------------------------------------
# reference parser, one term at a time


def _ref_check_skew(idx, n, k):
    if len(idx) != k:
        raise ValueError(f"index {idx} does not have degree {k}")
    prev = -1
    for x in idx:
        if not isinstance(x, int) or x <= prev or x >= n:
            raise ValueError(f"index {idx} is not a strictly increasing subset of range({n})")
        prev = x


def _ref_check_sym(alpha, n, k):
    if len(alpha) != n:
        raise ValueError(f"exponent vector {alpha} does not have length {n}")
    if not all(isinstance(a, int) and a >= 0 for a in alpha) or sum(alpha) != k:
        raise ValueError(f"exponent vector {alpha} does not have total degree {k}")


def _ref_coeff(c):
    if type(c) is int and abs(c) >= 10**4300:
        raise ValueError("bad coefficient: an integer of more than 4300 digits")
    if type(c) is int:
        return c
    if type(c) is str and (c[1:] if c[:1] == "-" else c).isdigit():
        try:
            return int(c)
        except ValueError:
            pass
    if not isinstance(c, (str, int)):
        raise ValueError(f"coefficient must be an int or a 'p/q' string: {c!r}")
    try:
        return as_exact(c)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"bad coefficient {c!r}: {exc}") from exc


def _ref_int_list(idx):
    return isinstance(idx, list) and not any(not isinstance(x, int) or isinstance(x, bool) for x in idx)


def reference_from_json(obj):
    n, k, kind, terms = obj["n"], obj["k"], obj["kind"], obj["terms"]
    check = _ref_check_skew if kind == SKEW else _ref_check_sym
    coeffs = {}
    bad_index = None
    for term in terms:
        if not isinstance(term, dict) or "index" not in term or "coeff" not in term:
            raise ValueError(f"malformed term: {term!r}")
        idx = term["index"]
        if not _ref_int_list(idx):
            raise ValueError(f"malformed index: {idx!r}")
        val = _ref_coeff(term["coeff"])
        key = tuple(idx)
        if key in coeffs:
            coeffs[key] = as_exact(coeffs[key] + val)
        else:
            coeffs[key] = val
            if bad_index is None:
                try:
                    check(key, n, k)
                except ValueError as exc:
                    bad_index = exc
    if bad_index is not None:
        raise bad_index
    cls = SkewTensor if kind == SKEW else SymTensor
    return cls, n, k, [(key, type(c), c) for key, c in coeffs.items() if c]


# ---------------------------------------------------------------------------
# generated inputs

# every spelling of test_json_coefficient_spellings, then the refused ones
SPELLINGS = ["+3", " 5 ", "1_0", "-0", "007", "1.5", "1e3", "3/6", "1/2_0", "1e1_0", "1_0.2_5", 4]
REFUSED = ["x", "²", "1/0", "1__0", "_1", "1_", "1_/2", "1 / 2", True, None]
HUGE = "7" * 4301  # past int()'s 4,300-digit limit for str


@st.composite
def valid_index(draw, kind, n, k):
    if kind == SKEW:
        if k > n:
            return list(range(k))  # no valid index exists: out of range
        if k == 0:
            return []
        return sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    if n == 0:
        return []
    cuts = sorted(draw(st.lists(st.integers(0, k), min_size=n - 1, max_size=n - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [k])]


def broken_indices(index, n, k):
    """Indices that the term check or the key check refuses."""
    out = [index + [0], index[:-1], [x + 1 for x in index], [n] + index[1:], [-1] + index[1:]]
    if index:
        out += [[True] + index[1:], [float(index[0])] + index[1:], [str(index[0])] + index[1:]]
        out += [index[::-1], [index[0]] * len(index)]
    return out + [tuple(index), None, "01", {"i": 0}, [[0]]]


ODD_COEFFS = SPELLINGS + REFUSED + ["1/2", "-3/4", "6/3", HUGE, 10**4400, "1" * 4300]
BAD_TERMS = [None, [0, 1], "term", {"index": [0]}, {"coeff": "1"}]


@st.composite
def tensor_objects(draw):
    """Valid terms on a few keys, repeats included, coefficients all
    decimal strings, all JSON ints or mixed; then up to three faults at
    random places: a broken index, an odd coefficient, a malformed term
    or a repeat that cancels."""
    kind = draw(st.sampled_from([SKEW, SYM]))
    n = draw(st.integers(0, 5))
    k = draw(st.integers(0, 4))
    pool = draw(st.lists(valid_index(kind, n, k), min_size=1, max_size=4))
    values = draw(st.lists(st.integers(-9, 9), max_size=10))
    style = draw(st.sampled_from(["str", "int", "mixed"]))
    terms = [
        {
            "index": draw(st.sampled_from(pool)),
            "coeff": c if style == "int" or (style == "mixed" and i % 2) else str(c),
        }
        for i, c in enumerate(values)
    ]
    valid = [(term["index"], c) for term, c in zip(terms, values)]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["index", "coeff", "term", "cancel"]))
        at = draw(st.integers(0, len(terms)))
        if fault == "index":
            term = {"index": draw(st.sampled_from(broken_indices(draw(st.sampled_from(pool)), n, k))), "coeff": "1"}
        elif fault == "coeff":
            term = {"index": draw(st.sampled_from(pool)), "coeff": draw(st.sampled_from(ODD_COEFFS))}
        elif fault == "term":
            term = draw(st.sampled_from(BAD_TERMS))
        elif valid:
            index, c = draw(st.sampled_from(valid))
            term = {"index": index, "coeff": -c}
        else:
            continue
        terms.insert(at, term)
    return {"n": n, "k": k, "kind": kind, "terms": terms}


def _parse(obj):
    t = tensor_from_json(obj)
    return type(t), t.n, t.k, [(key, type(c), c) for key, c in t.coeffs.items()]


def _outcome(parse, obj):
    try:
        return "tensor", parse(obj)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(tensor_objects())
@example({"n": 3, "k": 1, "kind": SKEW, "terms": [{"index": [0], "coeff": "2"}, {"index": [1], "coeff": HUGE}]})
@example({"n": 3, "k": 1, "kind": SKEW, "terms": [{"index": [2], "coeff": "1\n2"}]})
@example({"n": 3, "k": 1, "kind": SKEW, "terms": [{"index": [0], "coeff": -(10**4400)}, {"index": [1], "coeff": "x"}]})
@example({"n": 0, "k": 0, "kind": SYM, "terms": [{"index": [], "coeff": "3"}, {"index": [], "coeff": "1/2"}]})
@example({"n": 0, "k": 1, "kind": SYM, "terms": [{"index": [], "coeff": "3"}]})
@example({"n": 2, "k": 2, "kind": SKEW, "terms": [{"index": [0, 1], "coeff": "٣"}]})
def test_tensor_from_json_matches_per_term_reference(obj):
    # the same keys in the same order, with the same values and number types
    assert _outcome(_parse, obj) == _outcome(reference_from_json, obj)


# ---------------------------------------------------------------------------
# the one-pass coefficient conversion

# ASCII and other decimal digits (Arabic-Indic three, Devanagari zero, a
# double-struck one), a superscript two (a digit to str.isdigit, not to
# int), spaces to str.isspace (ASCII, no-break, em, ideographic, the file
# separator, the line separator) and a zero-width space (not a space),
# underscores, signs and the characters of fractions, decimals and
# exponents
COEFF_CHARS = "0179" + "\u0663\u0966\U0001d7d9" + "\u00b2" + " \t\n\xa0\u2003\u3000\x1c\u2028\u200b" + "_+-/.eE"
LONG_LITERALS = ["1" * 4300, "-" + "1" * 4300, HUGE, "1_" * 2150 + "1", "1/2", "0.5", "1e3", "-3/4", "6/3"]


def _one_by_one(cs):
    try:
        return "values", [(type(c), c) for c in map(_coeff_from_json, cs)]
    except ValueError as exc:
        return "error", str(exc)


def _one_pass(cs):
    try:
        return "values", [(type(c), c) for c in _coeffs_from_json(cs)]
    except ValueError as exc:
        return "error", str(exc)


def test_coeffs_from_json_matches_one_by_one_on_every_short_string():
    # every string of up to three characters over COEFF_CHARS, alone and
    # after a good coefficient, so a refused one is the first error
    accepted = 0
    for size in range(4):
        for chars in itertools.product(COEFF_CHARS, repeat=size):
            c = "".join(chars)
            assert _one_pass([c]) == _one_by_one([c]), c
            assert _one_pass(["5", c]) == _one_by_one(["5", c]), c
            accepted += _one_by_one([c])[0] == "values"
    assert accepted > 1000


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(st.text(COEFF_CHARS, max_size=8), st.sampled_from(LONG_LITERALS)), max_size=5))
@example(["1", "2", HUGE, "x"])
@example(["1", "x", HUGE])
@example([" \u0663_\u0966 ", "+0_7", "-\U0001d7d9"])
def test_coeffs_from_json_gives_the_values_or_the_first_error_of_one_by_one(cs):
    # int() reads every string of a list in one pass; on one that it
    # refuses, the list goes one by one, so a fraction keeps its value and
    # the first bad coefficient, a literal past int()'s digit limit
    # included, raises its own message
    assert _one_pass(cs) == _one_by_one(cs)
