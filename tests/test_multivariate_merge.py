"""Differential test of MultiDecomposition.of against a reference merge.

The reference keys the merge by the normalized form's (coefficients,
constant) tuple and stores (coeff, form, exponent) triples, updating the
coefficient on each repeat; MultiDecomposition.of keys it by (form,
exponent).  On every input both must give the same decomposition, down to
the repr, or raise the same error.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from affinepowers import MultiDecomposition, MultiTerm  # noqa: E402
from affinepowers.multipoly import LinearForm  # noqa: E402
from affinepowers.multivariate import _normalize_term  # noqa: E402
from affinepowers.unipoly import _frac  # noqa: E402

F = Fraction

DIFFERENTIAL = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def reference_of(n, items):
    merged = {}
    for item in items:
        if isinstance(item, MultiTerm):
            c, form, e = item.coeff, item.form, item.exponent
        else:
            c, form, e = item
        t = _normalize_term(_frac(c), form, e)
        key = ((t.form.coefficients, t.form.constant), t.exponent)
        if key in merged:
            prev_c, _, _ = merged[key]
            merged[key] = (prev_c + t.coeff, t.form, t.exponent)
        else:
            merged[key] = (t.coeff, t.form, t.exponent)
    return MultiDecomposition(n, tuple(MultiTerm(c, form, e) for c, form, e in merged.values() if c))


def outcome(build, n, items):
    try:
        return repr(build(n, items))
    except ValueError as exc:
        return type(exc), str(exc)


# (constant, coefficients) in two variables; scaled copies of one base
# normalize to the same form, and the last two lead with x2 alone
BASES = [(3, (1, 2)), (1, (2, -1)), (0, (0, 1)), (5, (0, 3)), (0, (1, 0))]
nonzero = st.builds(F, st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@st.composite
def merge_items(draw):
    """Items over scaled copies of BASES, as MultiTerms or triples; a term
    may be followed by a scaled twin that cancels it after normalization."""
    items = []
    for _ in range(draw(st.integers(0, 6))):
        const, coeffs = draw(st.sampled_from(BASES))
        c, s, e = draw(nonzero), draw(nonzero), draw(st.integers(1, 3))
        terms = [(c, s)]
        if draw(st.booleans()):
            s2 = draw(nonzero)
            terms.append((-c * (s / s2) ** e, s2))  # c s^e + c2 s2^e = 0
        for coeff, scale in terms:
            form = LinearForm(scale * const, tuple(scale * b for b in coeffs))
            items.append(MultiTerm(coeff, form, e) if draw(st.booleans()) else (coeff, form, e))
    return draw(st.permutations(items))


@DIFFERENTIAL
@given(merge_items())
def test_of_matches_reference_merge(items):
    assert outcome(MultiDecomposition.of, 2, items) == outcome(reference_of, 2, items)


@pytest.mark.parametrize("e", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", [1, -1])
def test_forms_equal_after_normalization_merge(e, sign):
    # 1 * (2x + 4y + 6)^e is 2^e (x + 2y + 3)^e: with the second term's
    # coefficient sign * 2^e the pair sums to 2^(e+1) or cancels
    items = [
        (F(1), LinearForm.of(6, [2, 4]), e),
        MultiTerm(sign * 2**e, LinearForm.of(3, [1, 2]), e),
    ]
    md = MultiDecomposition.of(2, items)
    assert repr(md) == repr(reference_of(2, items))
    want = () if sign < 0 else (MultiTerm(2 ** (e + 1), LinearForm.of(3, [1, 2]), e),)
    assert md.terms == want


@pytest.mark.parametrize("zero", [0, F(0), "0"])
def test_zero_coefficient_item_still_raises(zero):
    items = [(F(1), LinearForm.of(1, [1, 2]), 2), (zero, LinearForm.of(1, [1, 2]), 2)]
    with pytest.raises(ValueError, match="^term coefficient must be nonzero$"):
        MultiDecomposition.of(2, items)
    assert outcome(MultiDecomposition.of, 2, items) == outcome(reference_of, 2, items)
