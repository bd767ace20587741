"""Exact symbolic angles.

An angle is a rational linear form q_pi*pi + q_a*alpha + q_b*beta + q_g*gamma.
A relation set rewrites symbols away (e.g. gamma -> pi/2, alpha -> pi - 2*beta)
and gives every form a unique canonical representative, so label equality in
diagrams is decidable.

Exact cosines are available for every rational multiple of pi (values in Q
or in the field Q(cos(pi/n))), and, under a cos-parametrisation of beta, for
integer combinations k*pi + r*beta (values in Q[t], t = cos beta).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .exactmath import chebyshev, cos_pi, frac

SYMBOLS = ("pi", "alpha", "beta", "gamma")


class NoExactCosineError(ValueError):
    """The angle has no exact cosine: a symbol is left that no relation or
    parametrisation resolves."""


class AngleForm:
    """Rational linear form over (pi, alpha, beta, gamma)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):  # 4 Fractions, ordered as SYMBOLS
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("AngleForm is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs,))

    @staticmethod
    def of(pi=0, alpha=0, beta=0, gamma=0) -> "AngleForm":
        return AngleForm((frac(pi), frac(alpha), frac(beta), frac(gamma)))

    @staticmethod
    def pi_multiple(q) -> "AngleForm":
        return AngleForm.of(pi=q)

    def __add__(self, other: "AngleForm") -> "AngleForm":
        return AngleForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AngleForm") -> "AngleForm":
        return AngleForm(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AngleForm":
        return AngleForm(tuple(-a for a in self.coeffs))

    def __rmul__(self, k) -> "AngleForm":
        k = frac(k)
        return AngleForm(tuple(k * a for a in self.coeffs))

    __mul__ = __rmul__

    def coefficient(self, symbol: str) -> Fraction:
        return self.coeffs[SYMBOLS.index(symbol)]

    def pi_fraction(self) -> Optional[Fraction]:
        """The q with self == q*pi, or None if a symbol is present."""
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def substitute(self, symbol: str, replacement: "AngleForm") -> "AngleForm":
        i = SYMBOLS.index(symbol)
        c = self.coeffs[i]
        if c == 0:
            return self
        base = list(self.coeffs)
        base[i] = Fraction(0)
        return AngleForm(tuple(base)) + c * replacement

    def sort_key(self):
        return tuple(self.coeffs)

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
        out = form
        for sym, rep in self.rules:
            out = out.substitute(sym, rep)
        for sym, _ in self.rules:
            if out.coefficient(sym) != 0:
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
    return AngleForm(tuple(coeffs))


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
    if as_poly_in == "beta" and f.coefficient("alpha") == 0 == f.coefficient("gamma"):
        k, r = f.coefficient("pi"), f.coefficient("beta")
        if k.denominator == 1 and r.denominator == 1:
            p = chebyshev(abs(int(r)))
            return p if int(k) % 2 == 0 else -p
    raise NoExactCosineError(f"no exact cosine for {format_angle(f)}")
