"""Component and intersection atlas of divisor varieties on symmetric products.

For a Petri-general curve C of genus g and a degree-d line bundle
class, the effective divisors of the determinant class (skew kind) or
the symmetrized class (sym kind) on the k-th symmetric product C_k fit
over the Picard torus via the Abel-Jacobi map, with fiber the full
linear system: the projectivization of the k-th exterior (resp.
symmetric) power of the section space.  As the bundle moves deeper into
the Brill-Noether stratification the maximal enclosing dimension of a
section can jump, and each jump contributes one irreducible component.

atlas_report is the one entry to the atlas of a divisor variety: one
report per (g, d, k, class) holds its components with their supports,
generic fibers and dimensions, all pairwise intersections (which are
fibered in subspace varieties over the deeper stratum), and the
enumerated component count next to the closed-form count, and it can
add the canonical class's exorbitance analysis.  Its three switches
select the retained compat conventions (paper_sym, printed_secdim) and
that analysis (include_canonical).  canonical_analysis, fiber_dim and
deformable are the standalone calls.

atlas_report checks g, d, k and kind once, through big_R, which also
brackets the top section count R.  The atlas is then one walk over the
strata r = small_r .. R on private cores that take their arguments as
checked: the Brill-Noether formulas of brill_noether, the fiber and
subspace-variety dimensions, and the row builders _component_rows and
_intersection_rows.  Those rows are the report's own JSON-ready dicts,
built from plain integers, and the only shape of the atlas, so every
value is computed in one place.  rho(g, r, d) strictly decreases in r
and the rows strictly increase in r, so only the last row, at r = R,
can be zero-dimensional and carry a point count: the enumerated count
and the zero-dimensional note read that row alone.  The canonical block
runs canonical_analysis's own check and core.  Each switch must be a
bool, and atlas_report refuses any other value before it does any work:
a truthy string would select a convention while the report echoed it.
"""

from __future__ import annotations

# w_dim is not called here; perfbench's test_tracer_rebinds_every_import_and_restores
# expects to find it bound in this module
from .brill_noether import _rho, _small_r, _top_points, _w_dim, big_R, w_dim  # noqa: F401
from .linalg import _check_ints
from .subspaces import _e_bound, _sub_dim, e_max, e_max_sym, sec_dim_printed
from .tensors import SKEW, SYM, _power_dim, check_kind


def _check_switches(**switches) -> None:
    """Refuse any switch that is not a bool, naming it."""
    for name, value in switches.items():
        if type(value) is not bool:
            raise ValueError(f"{name} must be a bool, got {value!r}")


def _check_atlas_args(g: int, d: int, k: int, kind: str) -> int:
    """Check g, d, k and kind, in that order; return R = big_R(g, d)."""
    R = big_R(g, d)
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"symmetric-product index k must be an integer >= 2, got {k}")
    check_kind(kind)
    return R


def fiber_dim(r: int, k: int, kind: str) -> int:
    """Projective dimension of the full linear system over a point of W^r_d.

    C(r+1, k) - 1 for the skew kind, C(r+k, k) - 1 for the symmetric
    kind; -1 signals an empty system.  r and k must be ints (not bools),
    r >= 0 and k >= 1.
    """
    check_kind(kind)
    _check_ints(r=r, k=k)
    if r < 0:
        raise ValueError("r must be >= 0")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _power_dim(r + 1, k, kind) - 1


def deformable(enc_value: int, k: int, r_target: int, kind: str) -> bool:
    """Whether a divisor with the given enclosing dimension deforms with its
    bundle into the stratum where h^0 = r_target + 1.

    True iff enc_value does not exceed the maximal enclosing dimension
    attainable in an (r_target+1)-dimensional section space (e_max, or
    the faithful e_max_sym).  enc_value, k and r_target must be ints
    (not bools), and enc_value and r_target must be >= 0.
    """
    check_kind(kind)
    _check_ints(enc_value=enc_value, k=k, r_target=r_target)
    for name, value in (("enc_value", enc_value), ("r_target", r_target)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    n = r_target + 1
    return enc_value <= (e_max(k, n) if kind == SKEW else e_max_sym(k, n))


def _strata(g: int, d: int, k: int, kind: str, paper_sym: bool, R: int) -> list:
    """The (r, e) pairs where the enclosing bound strictly jumps, on
    checked arguments, with R = big_R(g, d).

    Walk the achieved section counts r upward and keep a stratum exactly
    when its enclosing bound e strictly exceeds every bound seen at a
    smaller r (otherwise the whole system deforms out to the shallower
    stratum and contributes no new component).  An empty linear system
    (skew, r+1 < k) has enclosing bound 0, so it never exceeds the bound
    seen before it and is skipped without computing its fiber dimension.
    """
    out = []
    best = 0
    for r in range(_small_r(g, d), R + 1):
        e = _e_bound(k, r + 1, kind, paper_sym)
        if e > best:
            out.append((r, e))
            best = e
    return out


def _component_rows(g: int, d: int, k: int, kind: str, paper_sym: bool, R: int) -> list:
    """The report's component dicts on checked arguments, with R = big_R(g, d)."""
    out = []
    for r, e in _strata(g, d, k, kind, paper_sym, R):
        support = _w_dim(g, r, d)
        fib = _power_dim(r + 1, k, kind) - 1
        # only the top stratum can be zero-dimensional (rho = 0)
        multiplicity = _top_points(g, d, R) if support == 0 else 1
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        out.append(
            {
                "r": r,
                "e": e,
                "support": f"W^{r}_{d}",
                "support_dim": support,
                "fiber_dim": fib,
                "total_dim": support + fib,
                "multiplicity": multiplicity,
                "is_resolution": kind == SKEW and d == g - 1 and e == k and r + 1 == k,
            }
        )
    return out


def _intersection_rows(comps: list, k: int, kind: str, printed_secdim: bool) -> list:
    """The report's intersection dicts for the component rows comps."""
    out = []
    for i, shallow in enumerate(comps):
        e = shallow["e"]
        for deep in comps[i + 1 :]:
            if e >= deep["e"]:
                raise ValueError("shallow component must have the smaller bound e")
            ambient = deep["r"] + 1
            if printed_secdim and k == 2 and e % 2 == 0:
                fib = sec_dim_printed(e // 2, ambient, kind)
            else:
                # an attained bound, at least k (skew) or 1 (sym) and at
                # most shallow r + 1 < ambient: sub_dim's checks hold
                fib = _sub_dim(e, k, ambient, kind)
            out.append(
                {
                    "shallow_e": e,
                    "deep_e": deep["e"],
                    "image": deep["support"],
                    "fiber": {"e": e, "k": k, "ambient": ambient, "kind": kind},
                    "fiber_dim": fib,
                    "total_dim": deep["support_dim"] + fib,
                }
            )
    return out


def _paper_count(comps: list, g: int, d: int, k: int, kind: str, R: int) -> int:
    """The closed-form component count, reproduced verbatim for comparison.

    A zero-dimensional top stratum that is a component (the last of the
    rows comps, at r = R) already carries its point count as its
    multiplicity, so the count is taken from there; otherwise it is
    computed."""
    r0 = _small_r(g, d)
    size = R - r0 + 1
    if k == 2:
        eps = 1 if r0 % 2 == 0 else 0
        base = size // 2 + eps
    elif kind == SKEW:
        base = (size - 1) - (k - r0)
    else:
        base = size - 1
    if _rho(g, R, d) == 0:
        base += (comps[-1]["multiplicity"] if comps and comps[-1]["r"] == R else _top_points(g, d, R)) - 1
    return base


def _count(comps: list, g: int, d: int, k: int, kind: str, R: int) -> dict:
    # every row but the top one has multiplicity 1 (see _component_rows)
    enumerated = len(comps) - 1 + comps[-1]["multiplicity"] if comps else 0
    formula = _paper_count(comps, g, d, k, kind, R)
    return {"enumerated": enumerated, "paper_formula": formula, "agrees": enumerated == formula}


def canonical_analysis(g: int, k: int) -> dict:
    """Exorbitance analysis of the canonical system on C_k.

    Compares the dimension of the full canonical system |K| with the
    dimension of the main paracanonical component (the one dominating
    the Picard torus).  Their difference is gap = C(g-1, k-1) - g:
    negative for k = 2, positive for most k >= 3, and when positive the
    canonical system cannot lie inside the main component.  The two
    always meet along the subspace variety Sub_(g-1) of the canonical
    section space, whose codimension in |K| is taken from the Sub_e
    formula of sub_dim (its private core, on the arguments checked
    here), so it goes through normalize_e.  It exceeds the hand count
    C(g-1, k-1) - (g-1) by one at k = 2 with even g and at k = g-2.

    The checks and their messages are _check_canonical_range's, which
    atlas_report runs too before it calls the core _canonical_analysis.
    """
    _check_canonical_range(g, k)
    return _canonical_analysis(g, k)


def _check_canonical_range(g, k) -> None:
    """canonical_analysis's errors: g must be an int >= 3 and k an int
    with 2 <= k < g."""
    if not isinstance(g, int) or g < 3:
        raise ValueError(f"genus must be an integer >= 3, got {g}")
    if not isinstance(k, int) or not 2 <= k < g:
        raise ValueError(f"need 2 <= k < genus, got k={k}")


def _canonical_analysis(g: int, k: int) -> dict:
    """canonical_analysis on checked arguments."""
    canonical_dim = _power_dim(g, k, SKEW) - 1
    main_dim = g + _power_dim(g - 1, k, SKEW) - 1
    gap = canonical_dim - main_dim
    exorbitant = (k >= 3 and gap > 0) or (k == 2 and g % 2 == 0)
    return {
        "genus": g,
        "k": k,
        "canonical_dim": canonical_dim,
        "main_dim": main_dim,
        "gap": gap,
        "exorbitant": exorbitant,
        "locus": {"e": g - 1, "k": k, "ambient": g, "kind": SKEW},
        "locus_codim": canonical_dim - _sub_dim(g - 1, k, g, SKEW),
    }


# ---------------------------------------------------------------------------
# full report


def _kind_to_class(kind: str) -> str:
    return "n" if kind == SKEW else "t"


def class_to_kind(cls: str) -> str:
    if cls == "n":
        return SKEW
    if cls == "t":
        return SYM
    raise ValueError(f"class must be 'n' or 't', got {cls!r}")


def atlas_report(
    g: int,
    d: int,
    k: int,
    kind: str,
    paper_sym: bool = False,
    printed_secdim: bool = False,
    include_canonical: bool = False,
) -> dict:
    """Assemble the JSON-ready atlas of one divisor variety.

    The arguments are checked once, and one walk over the strata builds
    the component dicts, which the intersection dicts and the count then
    reuse; the dicts come straight from plain integers.  Every row but
    the last has multiplicity 1, so the count and the zero-dimensional
    note read the top row.

    - "components": one row per stratum r where the enclosing bound e
      strictly jumps, in increasing r and e: the support W^r_d with its
      dimension, the generic fiber dimension, and the total dimension,
      which is their sum.  A zero-dimensional top stratum (rho = 0) is a
      finite set of points, each carrying its own copy of the
      component; the row's multiplicity is that point count.  The
      resolution flag marks the degree g-1 skew components with
      e = r+1 = k, which map birationally onto W^(k-1) and resolve its
      singularities.
    - "intersections": one row per pair (shallow, deep) of components,
      named by their bounds shallow_e and deep_e.  It maps onto the deep
      row's support, with generic fiber the subspace variety of the
      shallow bound inside the deep linear system.
    - "counts": the enumerated count (multiplicities included) next to
      the closed-form count, with an agreement flag.

    paper_sym switches the symmetric k = 2 bounds to the parity-dropping
    convention, printed_secdim the k = 2 intersection fibers to the
    retained closed-form secant expressions, and include_canonical adds
    canonical_analysis(g, k).  The report always carries explicit notes
    for the code paths where the implemented values and the retained
    closed forms are known to disagree (component counts, k = 2 secant
    dimensions, the symmetric parity convention); transparency is
    preferred to reconciliation.  A switch that is not a bool is refused
    with a ValueError that names it.
    """
    # one test on the common path; _check_switches names the offender
    if not (type(paper_sym) is type(printed_secdim) is type(include_canonical) is bool):
        _check_switches(paper_sym=paper_sym, printed_secdim=printed_secdim, include_canonical=include_canonical)
    R = _check_atlas_args(g, d, k, kind)
    comps = _component_rows(g, d, k, kind, paper_sym, R)
    inters = _intersection_rows(comps, k, kind, printed_secdim)
    counts = _count(comps, g, d, k, kind, R)
    notes = []
    if not counts["agrees"]:
        notes.append(
            "component count: enumeration gives {}, closed-form count gives {}".format(
                counts["enumerated"], counts["paper_formula"]
            )
        )
    if k == 2 and inters:
        if printed_secdim:
            notes.append(
                "k = 2 intersection fibers use the retained closed-form secant "
                "dimensions, which disagree with the determinantal rank "
                "stratification in known cases"
            )
        else:
            notes.append(
                "k = 2 intersection fibers use determinantal rank-stratification "
                "dimensions; the retained closed-form secant expressions disagree "
                "in known cases and are available via the printed-secdim switch"
            )
    if kind == SYM and k == 2:
        if paper_sym:
            notes.append(
                "symmetric parity compat mode: the enclosing bound drops to n-1 "
                "for odd section counts, although odd catalecticant ranks occur"
            )
        else:
            notes.append(
                "symmetric enclosing bounds are faithful (generic catalecticants "
                "have full rank); the parity-dropping convention is available via "
                "the paper-sym compat switch"
            )
    if comps and comps[-1]["multiplicity"] > 1:
        notes.append(
            "top stratum is zero-dimensional; each of its points carries a "
            "distinct component (multiplicity column)"
        )
    report = {
        "params": {
            "genus": g,
            "degree": d,
            "k": k,
            "class": _kind_to_class(kind),
            "compat_paper_sym": paper_sym,
            "compat_paper_secdim": printed_secdim,
        },
        "components": comps,
        "intersections": inters,
        "counts": counts,
        "notes": notes,
    }
    if include_canonical:
        _check_canonical_range(g, k)
        report["canonical"] = _canonical_analysis(g, k)
    return report
