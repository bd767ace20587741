import math
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from reptile_lab import angles
from reptile_lab.angles import (ALPHA, BETA, GAMMA, PI, SYMBOLS, AngleForm,
                                NoExactCosineError, RelationSet, exact_cos,
                                format_angle, parse_angle)
from reptile_lab.exactmath import Poly

from oracles import FractionAngleForm, QuadExt, in_field


@dataclass(frozen=True)
class AngleAssignment:
    """Numeric values (radians) for alpha, beta, gamma."""

    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None


def evaluate(form, assignment):
    """Numeric value of an angle form in radians: the float oracle of
    `exact_cos`."""
    values = (math.pi, assignment.alpha, assignment.beta, assignment.gamma)
    for c, name, v in zip(form.coeffs, SYMBOLS, values):
        if c != 0 and name != "pi" and v is None:
            raise KeyError(f"assignment missing symbol {name}")
    return float(sum(float(c) * v for c, v in zip(form.coeffs, values) if c != 0))


R_CASE_A = RelationSet.of(("gamma", parse_angle("1/2 pi")),
                          ("alpha", parse_angle("pi-2*beta")))


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def angle_forms(draw):
    return AngleForm.of(*(draw(fractions) for _ in range(4)))


# mostly ASCII digits, with other scripts' numerals among them
NEAR_DIGITS = st.sampled_from("01234567890123456789\u0663\uff13\u00b2\u00bd")


@st.composite
def near_literals(draw):
    """One to three terms, each a sign, a coefficient and a symbol, any of
    them off the format now and then."""
    text = ""
    for _ in range(draw(st.integers(1, 3))):
        text += draw(st.sampled_from(["", "+", "-", "+", "-", "--", " - ", "\u2212"]))
        text += draw(st.text(NEAR_DIGITS, max_size=3))
        if draw(st.booleans()):
            text += "/" + draw(st.text(NEAR_DIGITS, max_size=2))
        text += draw(st.sampled_from(["", " ", "*", " * ", "\t", "\u00a0", "."]))
        text += draw(st.sampled_from(["pi", "alpha", "beta", "gamma", "pi", "", "delta"]))
    return text


class TestParse:
    @pytest.mark.parametrize("text,coeffs", [
        ("2/9 pi", (F(2, 9), 0, 0, 0)),
        ("alpha+2*beta", (0, 1, 2, 0)),
        ("pi-2*beta", (1, 0, -2, 0)),
        ("1/2 pi", (F(1, 2), 0, 0, 0)),
        ("gamma", (0, 0, 0, 1)),
        ("-alpha", (0, -1, 0, 0)),
    ])
    def test_examples(self, text, coeffs):
        assert parse_angle(text) == AngleForm.of(*coeffs)

    def test_one_parse_per_literal(self):
        assert parse_angle("2/9 pi-beta") is parse_angle("2/9 pi-beta")
        for _ in range(2):  # a refusal is not remembered as a form
            with pytest.raises(ValueError):
                parse_angle("1/0 pi")

    def test_rejects_garbage(self):
        for bad in ("", "2", "pi pi", "1/2", "delta", "1/0 pi", "alpha - 2/0 beta"):
            with pytest.raises(ValueError):
                parse_angle(bad)

    @given(angle_forms())
    def test_round_trip(self, form):
        assert parse_angle(format_angle(form)) == form

    @pytest.mark.parametrize("text", ["\u0663 pi", "1/\u0662 pi", "\uff13 pi", "\u00b2 pi",
                                      "\u00bd pi", "2*\u0968alpha"])
    def test_rejects_digits_outside_ascii(self, text):
        with pytest.raises(ValueError, match="bad angle term"):
            parse_angle(text)

    @pytest.mark.parametrize("text", ["\u00a0beta\u00a0", "\u20031/2 pi", "1/2 pi\u2003",
                                      "\u00a0-1/2 pi"])
    def test_rejects_spaces_outside_ascii(self, text):
        # around a literal as inside a term, only ASCII whitespace is space
        with pytest.raises(ValueError, match="bad angle term"):
            parse_angle(text)
        assert parse_angle(" \t" + text.strip() + "\n") == parse_angle(text.strip())

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.one_of(near_literals(), st.text(max_size=10)))
    def test_near_literals_round_trip_or_raise_value_error(self, text):
        try:
            form = parse_angle(text)
        except ValueError:
            return
        assert parse_angle(format_angle(form)) == form
        assert not any(ch.isnumeric() and not ch.isascii() for ch in text)


class TestExactCoefficients:
    """A coefficient is an int or a Fraction; a float or a str raises
    TypeError, as everywhere in the package."""

    @pytest.mark.parametrize("bad", [0.1, 0.5, "1/3"])
    def test_of_refuses(self, bad):
        with pytest.raises(TypeError):
            AngleForm.of(pi=bad)
        with pytest.raises(TypeError):
            AngleForm.of(beta=bad)

    @pytest.mark.parametrize("bad", [0.1, 0.5, "1/3"])
    def test_pi_multiple_refuses(self, bad):
        with pytest.raises(TypeError):
            AngleForm.pi_multiple(bad)

    @pytest.mark.parametrize("bad", [0.5, "2"])
    def test_scalar_product_refuses(self, bad):
        with pytest.raises(TypeError):
            bad * BETA
        with pytest.raises(TypeError):
            BETA * bad

    def test_exact_coefficients_accepted(self):
        assert AngleForm.of(pi=F(1, 3), beta=2) == parse_angle("1/3 pi+2*beta")
        assert AngleForm.pi_multiple(1) == PI
        assert 2 * BETA == BETA * F(2) == parse_angle("2*beta")


class TestNormalize:
    def test_substitution(self):
        r = RelationSet.of(("alpha", parse_angle("pi-2*beta")))
        assert r.normalize(ALPHA + BETA) == parse_angle("pi-beta")
        assert r.normalize(ALPHA + 2 * BETA) == PI

    def test_concrete(self):
        r = RelationSet.of(("gamma", parse_angle("1/2 pi")),
                           ("beta", parse_angle("1/3 pi")))
        assert r.normalize(2 * BETA) == parse_angle("2/3 pi")

    @given(angle_forms())
    def test_idempotent(self, form):
        once = R_CASE_A.normalize(form)
        assert R_CASE_A.normalize(once) == once

    @given(angle_forms())
    def test_eval_commutes(self, form):
        # assignment consistent with the relations
        beta = 1.234
        a = AngleAssignment(alpha=math.pi - 2 * beta, beta=beta, gamma=math.pi / 2)
        assert evaluate(R_CASE_A.normalize(form), a) == pytest.approx(evaluate(form, a), abs=1e-12)

    def test_cycle_detected(self):
        r = RelationSet.of(("alpha", BETA), ("beta", ALPHA))
        with pytest.raises(ValueError):
            r.normalize(ALPHA)

    def test_missing_symbol(self):
        with pytest.raises(KeyError):
            evaluate(ALPHA, AngleAssignment(beta=1.0))


class TestEval:
    def test_simple(self):
        a = AngleAssignment(alpha=math.pi / 4, beta=math.pi / 3, gamma=math.pi / 2)
        assert evaluate(ALPHA, a) == pytest.approx(0.7853981633974483)
        b = AngleAssignment(alpha=2 * math.pi / 9, beta=math.pi / 3, gamma=0.0)
        assert evaluate(2 * ALPHA + BETA, b) == pytest.approx(7 * math.pi / 9)
        c = AngleAssignment(alpha=math.pi / 4, beta=math.pi / 3, gamma=math.pi / 2)
        assert evaluate(ALPHA + BETA + GAMMA - PI, c) == pytest.approx(math.pi / 12)


class TestExactCos:
    @pytest.mark.parametrize("text,value", [
        ("1/3 pi", F(1, 2)),
        ("3/4 pi", QuadExt(F(0), F(-1, 2), 2)),
        ("1/5 pi", QuadExt(F(1, 4), F(1, 4), 5)),
        ("2/5 pi", QuadExt(F(-1, 4), F(1, 4), 5)),
        ("1/6 pi", QuadExt(F(0), F(1, 2), 3)),
        ("1/2 pi", F(0)),
        ("pi", F(-1)),
    ])
    def test_pi_multiples(self, text, value):
        assert exact_cos(parse_angle(text)) == in_field(value)

    def test_unsupported_denominator(self):
        # every rational multiple of pi has an exact cosine, so only a
        # symbol that no relation resolves is left without one
        assert float(exact_cos(parse_angle("2/9 pi"))) == pytest.approx(
            math.cos(2 * math.pi / 9), abs=1e-15)
        with pytest.raises(NoExactCosineError):
            exact_cos(ALPHA)

    def test_parametric(self):
        tpoly = Poly([0, 1])
        assert exact_cos(BETA, R_CASE_A, as_poly_in="beta") == tpoly
        assert exact_cos(ALPHA + BETA, R_CASE_A, as_poly_in="beta") == -tpoly
        assert exact_cos(ALPHA, R_CASE_A, as_poly_in="beta") == Poly([1, 0, -2])
        assert exact_cos(2 * BETA, R_CASE_A, as_poly_in="beta") == Poly([-1, 0, 2])
        assert exact_cos(GAMMA, R_CASE_A) == F(0)

    def test_numeric_agreement(self):
        a = AngleAssignment(alpha=math.pi / 5, beta=math.pi / 3, gamma=math.pi / 2)
        for text in ("1/5 pi", "2/5 pi", "3/4 pi", "1/6 pi", "1/3 pi"):
            form = parse_angle(text)
            assert float(exact_cos(form)) == pytest.approx(
                math.cos(evaluate(form, a)), abs=1e-12)

    def test_parametric_numeric_agreement(self):
        beta = 1.1
        a = AngleAssignment(alpha=math.pi - 2 * beta, beta=beta, gamma=math.pi / 2)
        tval = math.cos(beta)
        for form in (BETA, 2 * BETA, ALPHA, ALPHA + BETA):
            poly = exact_cos(form, R_CASE_A, as_poly_in="beta")
            assert float(poly(F(tval).limit_denominator(10 ** 12))) == pytest.approx(
                math.cos(evaluate(form, a)), abs=1e-9)


# ---------------------------------------------------------------------------
# The integer-row form against the former Fraction form
# ---------------------------------------------------------------------------


def random_fraction(rng, zero_share=0.3):
    if rng.random() < zero_share:
        return F(0)
    return F(rng.randint(-120, 120), rng.randint(1, 60))


def random_form(rng, zero=()):
    """(AngleForm, FractionAngleForm) twins, denominators up to 60; the
    symbols in `zero` get coefficient 0."""
    cs = [F(0) if s in zero else random_fraction(rng) for s in SYMBOLS]
    return AngleForm.of(*cs), FractionAngleForm(cs)


def random_relations(rng, acyclic=True):
    """(RelationSet, reference rules): an ordered subset of alpha, beta,
    gamma, each replaced by a random form.  Acyclic: no replacement holds
    its own symbol or one an earlier rule eliminated."""
    syms = rng.sample(SYMBOLS[1:], rng.randint(1, 3))
    rules, ref = [], []
    for i, s in enumerate(syms):
        form, twin = random_form(rng, zero=syms[:i + 1] if acyclic else ())
        rules.append((s, form))
        ref.append((s, twin))
    return RelationSet.of(*rules), ref


def assert_twins(form, twin):
    assert form.coeffs == twin.coeffs
    assert form.den > 0 and math.gcd(form.den, *form.row) == 1


def test_row_form_matches_fraction_form():
    rng = random.Random(44)
    relation_sets = [(R_CASE_A, [(s, FractionAngleForm.of(f)) for s, f in R_CASE_A.rules])]
    relation_sets += [random_relations(rng) for _ in range(40)]
    relation_sets += [random_relations(rng, acyclic=False) for _ in range(40)]
    cyclic = 0
    for _ in range(400):
        (a, fa), (b, fb) = random_form(rng), random_form(rng)
        k = rng.choice([random_fraction(rng, 0.1), rng.randint(-5, 5)])
        assert_twins(a + b, fa + fb)
        assert_twins(a - b, fa - fb)
        assert_twins(-a, -fa)
        assert_twins(k * a, k * fa)
        assert_twins(a * k, k * fa)
        for s in SYMBOLS[1:]:
            assert_twins(a.substitute(s, b), fa.substitute(s, fb))
        assert a.pi_fraction() == fa.pi_fraction()
        p, fp = random_form(rng, zero=SYMBOLS[1:])
        assert p.pi_fraction() == fp.pi_fraction() == fp.coeffs[0]
        relations, rules = rng.choice(relation_sets)
        try:
            want = fa.normalize(rules)
        except ValueError:
            cyclic += 1
            with pytest.raises(ValueError, match="cyclic"):
                relations.normalize(a)
        else:
            assert_twins(relations.normalize(a), want)
        text = format_angle(a)
        assert text == fa.text() and parse_angle(text) == a
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert cyclic >= 20


def test_row_order_is_the_coefficient_order():
    rng = random.Random(45)
    pairs = [random_form(rng) for _ in range(300)]
    # equal leading coefficients, so later ones decide
    pairs += [(AngleForm.of(F(1, 2), x), FractionAngleForm([F(1, 2), x, 0, 0]))
              for x in (F(-1, 3), F(0), F(2, 7), F(1, 60))]
    rng.shuffle(pairs)
    by_row = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
    by_ref = sorted(range(len(pairs)), key=lambda i: pairs[i][1].sort_key())
    assert by_row == by_ref


@pytest.mark.parametrize("texts", [("1/2 pi", "2/4 pi", "pi-1/2 pi", "3/2 pi-pi"),
                                   ("beta-alpha", "2*beta-alpha-beta"),
                                   ("0 pi", "pi-pi", "beta-beta")])
def test_equal_forms_hash_alike(texts):
    forms = [parse_angle(t) for t in texts]
    assert len(set(forms)) == 1 and len({hash(f) for f in forms}) == 1
    assert all(f.row == forms[0].row and f.den == forms[0].den for f in forms)


def test_fresh_case_a_computes_each_normal_form_and_validity_once():
    """In a fresh `case-a` run, 236 normalizations under the half-turn
    relations ask for 8 distinct normal forms, and its validity filter's 42
    questions (it stops at case-a-5's first invalid triangle) for 12
    distinct triangles: each is computed once."""
    code = ("from reptile_lab import angles, scenarios, spherical\n"
            "print(scenarios.run_scenario('case-a').passed)\n"
            "for f in (angles._normal_form, spherical._valid_on_interval):\n"
            "    info = f.cache_info()\n"
            "    print(info.misses, info.hits + info.misses)\n")
    src = str(pathlib.Path(angles.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.split("\n") == ["True", "8 236", "12 42", ""]
