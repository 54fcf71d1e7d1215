"""Mechanized scale analysis of the thin-layer reduction.

Every term of the nondimensional equations (mass, horizontal momentum,
vertical momentum) is tracked with an exact symbolic coefficient, a product
of powers of the aspect ratio eps and of the dimensionless groups. Applying
the asymptotic viscosity regime

    mu1 / Re1 = nu1,    mu_i / Re_i = eps^2 nu_i (i = 2, 3),
    lam / Re_lam = eps^2 gamma,

and the canonical normalization (the vertical momentum equation is
multiplied by eps^2) assigns each term an integer eps-order. The reduced
system keeps exactly the order-zero terms.

Coefficients are exponent vectors over a fixed symbol basis, no floating
point is involved, so kept/dropped decisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

# Display and canonical ordering of coefficient symbols.
SYMBOLS = (
    "eps",
    "Ma",
    "Fr",
    "Re1",
    "Re2",
    "Re3",
    "Re_lam",
    "mu1",
    "mu2",
    "mu3",
    "lam",
    "nu1",
    "nu2",
    "nu3",
    "gamma",
)

EQUATIONS = ("mass", "horizontal-momentum", "vertical-momentum")


@dataclass(frozen=True)
class Coefficient:
    """Exact product  factor * prod(sym^power)  over the symbol basis."""

    factor: int = 1
    powers: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        seen = set()
        for sym, p in self.powers:
            if sym not in SYMBOLS:
                raise ValueError(f"unknown symbol {sym!r}")
            if sym in seen:
                raise ValueError(f"repeated symbol {sym!r}")
            seen.add(sym)
        # fixed display order regardless of construction order
        canon = tuple(
            sorted(
                ((s, p) for s, p in self.powers if p != 0),
                key=lambda sp: SYMBOLS.index(sp[0]),
            )
        )
        object.__setattr__(self, "powers", canon)

    def power(self, sym: str) -> int:
        for s, p in self.powers:
            if s == sym:
                return p
        return 0

    def times(self, sym: str, p: int) -> "Coefficient":
        d = dict(self.powers)
        d[sym] = d.get(sym, 0) + p
        return Coefficient(self.factor, tuple(d.items()))

    def __str__(self) -> str:
        parts = []
        for sym, p in self.powers:
            parts.append(sym if p == 1 else f"{sym}^{p}")
        if self.factor != 1 or not parts:
            parts.insert(0, str(self.factor))
        return "*".join(parts)


@dataclass(frozen=True)
class TermScale:
    """One term of one nondimensional equation with its exact coefficient."""

    equation: str
    term_id: str
    coefficient: Coefficient

    def __post_init__(self):
        if self.equation not in EQUATIONS:
            raise ValueError(f"unknown equation {self.equation!r}")

    @property
    def key(self) -> str:
        return f"{self.equation}.{self.term_id}"

    @property
    def eps_order(self) -> int:
        return self.coefficient.power("eps")

    @property
    def kept(self) -> bool:
        """The reduced system keeps exactly the eps-order-zero terms."""
        return self.eps_order == 0


def _c(factor: int = 1, **powers: int) -> Coefficient:
    return Coefficient(factor, tuple(powers.items()))


# The three nondimensional equations, term by term, with the coefficients
# they carry before any regime substitution. The vertical momentum terms are
# listed as displayed, before the canonical eps^2 normalization.
_RAW_TERMS: Tuple[Tuple[str, str, Coefficient], ...] = (
    ("mass", "time-derivative", _c()),
    ("mass", "horizontal-transport", _c()),
    ("mass", "vertical-transport", _c()),
    ("horizontal-momentum", "time-derivative", _c()),
    ("horizontal-momentum", "horizontal-advection", _c()),
    ("horizontal-momentum", "vertical-advection", _c()),
    ("horizontal-momentum", "pressure-gradient", _c(Ma=-2)),
    ("horizontal-momentum", "strain-viscosity", _c(Re1=-1, mu1=1)),
    ("horizontal-momentum", "vertical-shear-viscosity", _c(eps=-2, Re2=-1, mu2=1)),
    ("horizontal-momentum", "vertical-velocity-gradient", _c(Re2=-1, mu2=1)),
    ("horizontal-momentum", "dilatation-gradient", _c(Re_lam=-1, lam=1)),
    ("horizontal-momentum", "vertical-compression-gradient", _c(Re_lam=-1, lam=1)),
    ("vertical-momentum", "time-derivative", _c()),
    ("vertical-momentum", "horizontal-advection", _c()),
    ("vertical-momentum", "vertical-advection", _c()),
    ("vertical-momentum", "pressure-gradient", _c(eps=-2, Ma=-2)),
    ("vertical-momentum", "gravity", _c(eps=-2, Fr=-2)),
    ("vertical-momentum", "shear-divergence", _c(eps=-2, Re3=-1, mu3=1)),
    ("vertical-momentum", "horizontal-gradient-viscosity", _c(Re3=-1, mu3=1)),
    ("vertical-momentum", "vertical-compression-viscosity", _c(2, eps=-2, Re3=-1, mu3=1)),
    ("vertical-momentum", "dilatation-gradient", _c(eps=-2, Re_lam=-1, lam=1)),
    ("vertical-momentum", "vertical-compression-gradient", _c(eps=-2, Re_lam=-1, lam=1)),
)

# (viscosity symbol, Reynolds symbol, replacement, extra eps power)
_REGIME = (
    ("mu1", "Re1", "nu1", 0),
    ("mu2", "Re2", "nu2", 2),
    ("mu3", "Re3", "nu3", 2),
    ("lam", "Re_lam", "gamma", 2),
)


def _apply_regime(coeff: Coefficient) -> Coefficient:
    d = dict(coeff.powers)
    for visc, rey, repl, extra in _REGIME:
        if d.get(visc, 0) == 1 and d.get(rey, 0) == -1:
            del d[visc]
            del d[rey]
            d[repl] = d.get(repl, 0) + 1
            d["eps"] = d.get("eps", 0) + extra
    return Coefficient(coeff.factor, tuple(d.items()))


def scale_terms(apply_regime: bool) -> List[TermScale]:
    """Enumerate every term of the scaled equations with its eps-order.

    The vertical momentum equation is normalized by eps^2 in both modes;
    `apply_regime` controls only the viscosity substitution. Without it the
    horizontal vertical-shear term keeps its raw eps^-2 coefficient, which
    is how an un-normalized system is recognized downstream. The
    bookkeeping is exact and symbolic: it needs no numbers.
    """
    out = []
    for equation, term_id, coeff in _RAW_TERMS:
        if equation == "vertical-momentum":
            coeff = coeff.times("eps", 2)
        if apply_regime:
            coeff = _apply_regime(coeff)
        out.append(TermScale(equation, term_id, coeff))
    return out


def reduce_system(terms: Sequence[TermScale]) -> List[str]:
    """Keep the eps-order-zero terms of a fully scaled system.

    Returns the kept terms as "equation.term-id" strings in input order.
    Refuses empty input, input that does not cover all three equations,
    and systems containing negative eps-orders (the signature of a term
    list built without the asymptotic regime).
    """
    if not terms:
        raise ValueError("no terms to reduce")
    covered = {t.equation for t in terms}
    missing = [e for e in EQUATIONS if e not in covered]
    if missing:
        raise ValueError(f"term list does not cover equations: {', '.join(missing)}")
    negative = [t for t in terms if t.eps_order < 0]
    if negative:
        worst = min(negative, key=lambda t: t.eps_order)
        raise ValueError(
            f"term {worst.key} has eps-order {worst.eps_order}; "
            "the asymptotic regime was not applied"
        )
    return [t.key for t in terms if t.kept]


def audit_table(terms: Sequence[TermScale]) -> str:
    """Fixed-width table of the term bookkeeping for the CLI audit."""
    rows = [("equation", "term", "coefficient", "eps-order", "status")]
    for t in terms:
        rows.append(
            (
                t.equation,
                t.term_id,
                str(t.coefficient),
                str(t.eps_order),
                "kept" if t.kept else "dropped",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(c.ljust(widths[j]) for j, c in enumerate(r)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
