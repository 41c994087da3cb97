"""Tests for text and JSON round-trips of the value types."""

import json
from fractions import Fraction

import pytest

from affinepowers import (
    SDE,
    Decomposition,
    MultiDecomposition,
    MultiPoly,
    UniPoly,
    find_min_sde,
)
from affinepowers.multipoly import LinearForm
from affinepowers.serialize import (
    decomposition_from_json,
    decomposition_to_json,
    format_unipoly,
    multidec_from_json,
    multidec_to_json,
    multipoly_from_json,
    multipoly_to_json,
    parse_unipoly,
    sde_from_json,
    sde_to_json,
    unipoly_from_json,
    unipoly_to_json,
)

F = Fraction


def P(*coeffs) -> UniPoly:
    return UniPoly(coeffs)


class TestUniPolyText:
    def test_format_known(self):
        assert format_unipoly(P(1, 0, F(-3, 2), 1)) == "1,0,-3/2,1"
        assert format_unipoly(P()) == "0"

    def test_parse_known(self):
        assert parse_unipoly("1,0,-3/2,1") == P(1, 0, F(-3, 2), 1)
        assert parse_unipoly("0") == P()

    def test_parse_tolerates_whitespace(self):
        assert parse_unipoly(" 1 , 2 ,3 \n") == P(1, 2, 3)

    def test_parse_rejects_empty_pieces(self):
        for bad in ("", "1,,2", ",1", "1,"):
            with pytest.raises(ValueError):
                parse_unipoly(bad)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_unipoly("1,two,3")

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_unipoly("1/0,1")

    def test_roundtrip(self):
        for f in (P(), P(5), P(0, F(1, 3), -2, 0, 7)):
            assert parse_unipoly(format_unipoly(f)) == f


class TestUniPolyJson:
    def test_shape(self):
        doc = unipoly_to_json(P(1, F(-1, 2)))
        assert doc == {"coeffs": ["1", "-1/2"]}
        assert unipoly_to_json(P()) == {"coeffs": ["0"]}

    def test_roundtrip(self):
        for f in (P(), P(0, 0, F(7, 3)), P(-1, 2, -3)):
            assert unipoly_from_json(unipoly_to_json(f)) == f

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            unipoly_from_json({"coeffs": [0.5]})

    def test_json_serializable(self):
        text = json.dumps(unipoly_to_json(P(1, F(1, 3))))
        assert unipoly_from_json(json.loads(text)) == P(1, F(1, 3))


class TestDecompositionJson:
    def test_shape(self):
        d = Decomposition.of([(2, F(1, 2), 3)])
        doc = decomposition_to_json(d)
        assert doc == {
            "terms": [{"coeff": "2", "node": "1/2", "exponent": 3}]
        }

    def test_roundtrip(self):
        d = Decomposition.of([(1, -1, 5), (F(-3, 2), 0, 5), (2, 4, 2)])
        assert decomposition_from_json(decomposition_to_json(d)) == d

    def test_empty(self):
        d = Decomposition.of([])
        assert decomposition_from_json(decomposition_to_json(d)) == d


class TestSDEJson:
    def test_shape(self):
        s = SDE(1, 0, (P(5), P(2, -1)))
        doc = sde_to_json(s)
        assert doc == {"order": 1, "shift": 0, "polys": [["5"], ["2", "-1"]]}

    def test_roundtrip(self):
        f = UniPoly.affine_power(1, 1, 13) + UniPoly.affine_power(2, -2, 11)
        s = find_min_sde(f, 0)
        assert sde_from_json(sde_to_json(s)) == s

    @pytest.mark.parametrize("shift", [1, "1"], ids=repr)
    def test_found_equation_roundtrips_through_json_text(self, shift):
        # a shift given as True used to be written as "shift": true, which
        # sde_from_json refuses
        f = UniPoly.affine_power(1, 1, 13) + UniPoly.affine_power(2, -2, 11)
        s = find_min_sde(f, shift)
        assert sde_from_json(json.loads(json.dumps(sde_to_json(s)))) == s

    def test_json_serializable(self):
        s = SDE(1, 1, (P(F(1, 2)), P(1, 1, 1)))
        text = json.dumps(sde_to_json(s))
        assert sde_from_json(json.loads(text)) == s


class TestMultiPolyJson:
    def test_roundtrip(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        p = (x1 + 2 * x2) * (x1 - x2) + MultiPoly.constant(2, F(1, 3))
        assert multipoly_from_json(multipoly_to_json(p)) == p

    def test_zero(self):
        z = MultiPoly.constant(3, 0)
        assert multipoly_from_json(multipoly_to_json(z)) == z

    def test_arity_mismatch_rejected(self):
        doc = {"n": 2, "terms": [{"exps": [1], "coeff": "1"}]}
        with pytest.raises(ValueError):
            multipoly_from_json(doc)

    def test_duplicate_terms_add_up(self):
        doc = {
            "n": 2,
            "terms": [
                {"exps": [1, 0], "coeff": "1/2"},
                {"exps": [0, 2], "coeff": "3"},
                {"exps": [1, 0], "coeff": "1/3"},
                {"exps": [0, 2], "coeff": "-3"},
            ],
        }
        # the x1 pair adds up, the x2^2 pair cancels and disappears
        p = multipoly_from_json(doc)
        assert p.terms == {(1, 0): F(5, 6)}
        assert p == MultiPoly(2, {(1, 0): F(5, 6)})

    def test_terms_sorted_for_stable_output(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        p = x2 + x1
        doc = multipoly_to_json(p)
        assert doc["terms"] == sorted(doc["terms"], key=lambda t: t["exps"])


class TestMultiDecompositionJson:
    def test_roundtrip(self):
        md = MultiDecomposition.of(
            2,
            [
                (F(2), LinearForm.of(1, [1, 2]), 3),
                (F(-1), LinearForm.of(0, [1, -1]), 5),
            ],
        )
        assert multidec_from_json(multidec_to_json(md)) == md

    def test_shape(self):
        md = MultiDecomposition.of(2, [(F(1), LinearForm.of(0, [1, -1]), 4)])
        doc = multidec_to_json(md)
        assert doc == {
            "n": 2,
            "terms": [
                {
                    "coeff": "1",
                    "constant": "0",
                    "coefficients": ["1", "-1"],
                    "exponent": 4,
                }
            ],
        }

    def test_normalization_survives_roundtrip(self):
        # a non-monic form normalizes on construction; the JSON shape
        # stores the normalized version
        md = MultiDecomposition.of(2, [(F(1), LinearForm.of(2, [2, 4]), 3)])
        doc = multidec_to_json(md)
        assert doc["terms"][0]["coeff"] == "8"
        assert doc["terms"][0]["coefficients"] == ["1", "2"]
        assert multidec_from_json(doc) == md

    def test_empty(self):
        md = MultiDecomposition.of(2, [])
        assert multidec_from_json(multidec_to_json(md)) == md


class TestIntegerFields:
    """Integer fields must be integers: a float or a bool is not silently
    truncated, and a string must spell an integer."""

    BAD = (3.5, True, "3.5", "7/2")
    each_bad = pytest.mark.parametrize("bad", BAD, ids=repr)

    @each_bad
    def test_decomposition_exponent(self, bad):
        doc = {"terms": [{"coeff": "1", "node": "0", "exponent": bad}]}
        with pytest.raises(ValueError):
            decomposition_from_json(doc)

    @pytest.mark.parametrize("field", ["order", "shift"])
    @each_bad
    def test_sde_order_and_shift(self, field, bad):
        doc = {"order": 1, "shift": 0, "polys": [["1"], ["0", "1"]], field: bad}
        with pytest.raises(ValueError):
            sde_from_json(doc)

    @each_bad
    def test_multipoly_n(self, bad):
        with pytest.raises(ValueError):
            multipoly_from_json({"n": bad, "terms": [{"exps": [1], "coeff": "1"}]})

    @each_bad
    def test_multipoly_exps(self, bad):
        with pytest.raises(ValueError):
            multipoly_from_json({"n": 2, "terms": [{"exps": [1, bad], "coeff": "1"}]})

    @pytest.mark.parametrize("field", ["n", "exponent"])
    @each_bad
    def test_multidec_n_and_exponent(self, field, bad):
        term = {"coeff": "1", "constant": "0", "coefficients": ["1", "0"], "exponent": 2}
        doc = {"n": 2, "terms": [term]}
        (doc if field == "n" else term)[field] = bad
        with pytest.raises(ValueError):
            multidec_from_json(doc)

    def test_rationals_reject_bool(self):
        with pytest.raises(ValueError):
            unipoly_from_json({"coeffs": ["1", True]})
        doc = {"terms": [{"coeff": True, "node": "0", "exponent": 2}]}
        with pytest.raises(ValueError):
            decomposition_from_json(doc)

    def test_integral_values_still_accepted(self):
        doc = {"terms": [{"coeff": "1", "node": "0", "exponent": "3"}]}
        assert decomposition_from_json(doc) == Decomposition.of([(1, 0, 3)])
        doc = {"order": 1, "shift": 0, "polys": [["1"], ["0", "1"]]}
        assert sde_from_json(doc).order == 1


class TestMalformedDocuments:
    """A missing or ill-typed field raises ValueError naming the field,
    never KeyError or TypeError, and a string is not read as a list."""

    TERM = {"coeff": "1", "node": "0", "exponent": 2}

    @pytest.mark.parametrize(
        "reader, doc, field",
        [
            (decomposition_from_json, {}, "terms"),
            (decomposition_from_json, {"terms": 5}, "terms"),
            (decomposition_from_json, {"terms": "12"}, "terms"),
            (decomposition_from_json, [1, 2], "terms"),
            (decomposition_from_json, {"terms": [5]}, "coeff"),
            (decomposition_from_json, {"terms": [{"coeff": "1", "node": "0"}]}, "exponent"),
            (decomposition_from_json, {"terms": [{**TERM, "coeff": [1]}]}, "coeff"),
            (decomposition_from_json, {"terms": [{**TERM, "node": None}]}, "node"),
            (decomposition_from_json, {"terms": [{**TERM, "exponent": [2]}]}, "exponent"),
            (decomposition_from_json, {"terms": [{**TERM, "node": "1/0"}]}, "node"),
            (unipoly_from_json, {}, "coeffs"),
            (unipoly_from_json, {"coeffs": "12"}, "coeffs"),
            (unipoly_from_json, {"coeffs": [None]}, "coeffs"),
            (sde_from_json, {"order": 1, "shift": 0}, "polys"),
            (sde_from_json, {"order": 1, "shift": 0, "polys": [5, ["1"]]}, "polys"),
            (sde_from_json, {"order": None, "shift": 0, "polys": [["1"]]}, "order"),
            (multipoly_from_json, {}, "n"),
            (multipoly_from_json, {"n": 2}, "terms"),
            (multipoly_from_json, {"n": 2, "terms": [{"exps": 3, "coeff": "1"}]}, "exps"),
            (multipoly_from_json, {"n": 2, "terms": [{"exps": [1, 0]}]}, "coeff"),
            (multidec_from_json, {"terms": []}, "n"),
            (
                multidec_from_json,
                {"n": 2, "terms": [{"coeff": "1", "constant": "0", "exponent": 2}]},
                "coefficients",
            ),
        ],
    )
    def test_names_the_field(self, reader, doc, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            reader(doc)
