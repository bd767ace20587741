"""Exact symbolic angles.

An angle is a rational linear form q_pi*pi + q_a*alpha + q_b*beta + q_g*gamma,
held as an integer row (one numerator per symbol) over one positive
denominator, in lowest terms (`exactmath.lowest_terms`), so a form hashes,
compares and orders (as its coefficient tuple) on ints and gives its
Fraction coefficients only when asked.  A relation set rewrites symbols
away (e.g. gamma -> pi/2, alpha -> pi - 2*beta) and gives every form a
unique canonical representative, its normal form, so label equality in
diagrams is decidable.  Each form's normal form under a relation set is
computed once per process.

Exact cosines are available for every rational multiple of pi (values in Q
or in the field Q(cos(pi/n))), and, under a cos-parametrisation of beta, for
integer combinations k*pi + r*beta (values in Q[t], t = cos beta).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache, lru_cache
from typing import NamedTuple, Optional

from .exactmath import chebyshev, cos_pi, frac, lowest_terms

SYMBOLS = ("pi", "alpha", "beta", "gamma")


class NoExactCosineError(ValueError):
    """The angle has no exact cosine: a symbol is left that no relation or
    parametrisation resolves."""


class AngleForm:
    """Rational linear form over (pi, alpha, beta, gamma): the coefficients
    row[i]/den, ordered as SYMBOLS, row four ints and den > 0 in lowest
    terms (`AngleForm(row, den)` reduces them).  `a < b` compares the
    coefficient tuples `coeffs`, on ints."""

    __slots__ = ("row", "den")

    def __init__(self, row: tuple, den: int = 1):
        if len(row) != len(SYMBOLS):
            raise ValueError(f"an angle form has {len(SYMBOLS)} coefficients, not {len(row)}")
        row, den = lowest_terms(row, den)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("AngleForm is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.row == other.row and self.den == other.den

    def __hash__(self):
        return hash((self.row, self.den))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.den, other.den
        return [x * b for x in self.row] < [y * a for y in other.row]

    @staticmethod
    def of(pi=0, alpha=0, beta=0, gamma=0) -> "AngleForm":
        cs = [frac(pi), frac(alpha), frac(beta), frac(gamma)]
        den = math.lcm(*[c.denominator for c in cs])
        return AngleForm([c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def pi_multiple(q) -> "AngleForm":
        return AngleForm.of(pi=q)

    @property
    def coeffs(self) -> tuple:
        """The four coefficients as Fractions, ordered as SYMBOLS."""
        return tuple(Fraction(c, self.den) for c in self.row)

    def _sum(self, other: "AngleForm", sign: int) -> "AngleForm":
        a, b = other.den, self.den
        return AngleForm([x * a + sign * y * b for x, y in zip(self.row, other.row)], a * b)

    def __add__(self, other: "AngleForm") -> "AngleForm":
        return self._sum(other, 1)

    def __sub__(self, other: "AngleForm") -> "AngleForm":
        return self._sum(other, -1)

    def __neg__(self) -> "AngleForm":
        return AngleForm([-c for c in self.row], self.den)

    def __rmul__(self, k) -> "AngleForm":
        k = frac(k)
        return AngleForm([k.numerator * c for c in self.row], k.denominator * self.den)

    __mul__ = __rmul__

    def pi_fraction(self) -> Optional[Fraction]:
        """The q with self == q*pi, or None if a symbol is present."""
        if any(self.row[1:]):
            return None
        return Fraction(self.row[0], self.den)

    def substitute(self, symbol: str, replacement: "AngleForm") -> "AngleForm":
        i = SYMBOLS.index(symbol)
        c = self.row[i]
        if not c:
            return self
        # row/den - c/den symbol + c/den replacement, over den * replacement.den
        rd = replacement.den
        return AngleForm([(x if j != i else 0) * rd + c * r
                          for j, (x, r) in enumerate(zip(self.row, replacement.row))],
                         self.den * rd)

    def __repr__(self):
        return f"AngleForm({format_angle(self)!r})"


PI = AngleForm.of(pi=1)
ALPHA = AngleForm.of(alpha=1)
BETA = AngleForm.of(beta=1)
GAMMA = AngleForm.of(gamma=1)


class RelationSet(NamedTuple):
    """Ordered substitution rules, each eliminating one symbol.

    Rules are applied left to right; the rule list must be acyclic in the
    sense that after one full pass every eliminated symbol is gone.
    """

    rules: tuple  # of (symbol, AngleForm)

    @staticmethod
    def of(*rules) -> "RelationSet":
        for s, _ in rules:
            if s not in SYMBOLS[1:]:
                raise ValueError(f"relation symbol {s!r}: expected alpha, beta or gamma")
        return RelationSet(tuple((s, f) for s, f in rules))

    def normalize(self, form: AngleForm) -> AngleForm:
        """The canonical representative of the form under the rules."""
        return _normal_form(self, form) if self.rules else form


@cache
def _normal_form(relations: RelationSet, form: AngleForm) -> AngleForm:
    """`relations.normalize(form)`, computed once per (relations, form)
    in a process: both are immutable."""
    out = form
    for sym, rep in relations.rules:
        out = out.substitute(sym, rep)
    for sym, _ in relations.rules:
        if out.row[SYMBOLS.index(sym)]:
            raise ValueError(f"cyclic relation set: {sym} reappears")
    return out


EMPTY_RELATIONS = RelationSet(())


# ---------------------------------------------------------------------------
# Text format: "1/2 pi", "2/9 pi", "alpha+2*beta", "3*alpha", ...
# ---------------------------------------------------------------------------

_SPACE = " \t\n\r\f\v"  # the \s of _TERM_RE under re.ASCII

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coef>-?\d+(?:/\d+)?)\s*\*?\s*)?(?P<sym>pi|alpha|beta|gamma)\s*$"
    r"|^\s*(?P<bare>-?\d+(?:/\d+)?)\s*$",
    re.ASCII,  # \d and \s match ASCII only: "\u0663 pi" (an Arabic-Indic 3) is refused
)


@lru_cache(maxsize=1024)
def parse_angle(text: str) -> AngleForm:
    """Parse an angle literal; inverse of format_angle.  A form is
    immutable, so each literal is parsed once and its form shared."""
    s = text.strip(_SPACE)
    if not s:
        raise ValueError("empty angle literal")
    # split into signed terms at top level
    terms = []
    buf = ""
    sign = 1
    for ch in s:
        if ch in "+-" and buf.strip(_SPACE):
            terms.append((sign, buf))
            buf = ""
            sign = 1 if ch == "+" else -1
        elif ch in "+-" and not buf.strip(_SPACE):
            sign = sign if ch == "+" else -sign
        else:
            buf += ch
    terms.append((sign, buf))
    coeffs = [Fraction(0)] * len(SYMBOLS)
    for sign, term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad angle term {term!r} in {text!r}")
        if m.group("bare") is not None:
            raise ValueError(f"bare number {term!r}: angles need a pi factor")
        try:
            coef = sign * Fraction(m.group("coef") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in angle term {term!r}") from None
        coeffs[SYMBOLS.index(m.group("sym"))] += coef
    return AngleForm.of(*coeffs)


def format_angle(form: AngleForm) -> str:
    """Canonical text for an angle form; parse_angle round-trips it."""
    parts = []
    for c, sym in zip(form.coeffs, SYMBOLS):
        if c == 0:
            continue
        mag = abs(c)
        if sym == "pi":
            body = "pi" if mag == 1 else f"{mag} pi"
        else:
            body = sym if mag == 1 else f"{mag}*{sym}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    if not parts:
        return "0 pi"
    return "".join(parts)


# ---------------------------------------------------------------------------
# Exact cosines
# ---------------------------------------------------------------------------


def exact_cos(form: AngleForm, relations: RelationSet = EMPTY_RELATIONS,
              as_poly_in: Optional[str] = None):
    """Exact cosine of the angle under the given relations.

    Returns a Fraction or a `RealCyclotomic` for every rational multiple
    of pi (a Fraction exactly when the value is rational).  With
    as_poly_in="beta", forms reducing to k*pi + r*beta (k, r integers)
    yield a Poly in t = cos(beta).  Raises NoExactCosineError otherwise.
    """
    f = relations.normalize(form)
    q = f.pi_fraction()
    if q is not None:
        return cos_pi(q)
    k, a, r, g = f.row
    if as_poly_in == "beta" and not (a or g) and f.den == 1:
        p = chebyshev(abs(r))
        return p if k % 2 == 0 else -p
    raise NoExactCosineError(f"no exact cosine for {format_angle(f)}")
