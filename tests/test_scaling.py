"""Golden bookkeeping for the thin-layer scale analysis.

The expected coefficients and eps-orders below were derived by hand from
the nondimensional equations with the vertical momentum equation
normalized by eps^2 and the viscosity regime

    mu1/Re1 = nu1,  mu2/Re2 = eps^2 nu2,  mu3/Re3 = eps^2 nu3,
    lam/Re_lam = eps^2 gamma.

They are frozen here string-for-string; the module must reproduce them
exactly, no tolerance.
"""

import pytest

from cpesim.scaling import (
    Coefficient,
    TermScale,
    audit_table,
    reduce_system,
    scale_terms,
)

# (key, coefficient string after regime + normalization, eps-order)
GOLDEN = [
    ("mass.time-derivative", "1", 0),
    ("mass.horizontal-transport", "1", 0),
    ("mass.vertical-transport", "1", 0),
    ("horizontal-momentum.time-derivative", "1", 0),
    ("horizontal-momentum.horizontal-advection", "1", 0),
    ("horizontal-momentum.vertical-advection", "1", 0),
    ("horizontal-momentum.pressure-gradient", "Ma^-2", 0),
    ("horizontal-momentum.strain-viscosity", "nu1", 0),
    ("horizontal-momentum.vertical-shear-viscosity", "nu2", 0),
    ("horizontal-momentum.vertical-velocity-gradient", "eps^2*nu2", 2),
    ("horizontal-momentum.dilatation-gradient", "eps^2*gamma", 2),
    ("horizontal-momentum.vertical-compression-gradient", "eps^2*gamma", 2),
    ("vertical-momentum.time-derivative", "eps^2", 2),
    ("vertical-momentum.horizontal-advection", "eps^2", 2),
    ("vertical-momentum.vertical-advection", "eps^2", 2),
    ("vertical-momentum.pressure-gradient", "Ma^-2", 0),
    ("vertical-momentum.gravity", "Fr^-2", 0),
    ("vertical-momentum.shear-divergence", "eps^2*nu3", 2),
    ("vertical-momentum.horizontal-gradient-viscosity", "eps^4*nu3", 4),
    ("vertical-momentum.vertical-compression-viscosity", "2*eps^2*nu3", 2),
    ("vertical-momentum.dilatation-gradient", "eps^2*gamma", 2),
    ("vertical-momentum.vertical-compression-gradient", "eps^2*gamma", 2),
]

REDUCED = [key for key, _, order in GOLDEN if order == 0]


# ------------------------------------------------------------ golden match


def test_scaled_terms_match_golden_table():
    terms = scale_terms(apply_regime=True)
    assert len(terms) == len(GOLDEN)
    for term, (key, coeff, order) in zip(terms, GOLDEN):
        assert term.key == key
        assert str(term.coefficient) == coeff
        assert term.eps_order == order


def test_term_reads_its_eps_order_and_keep_rule_from_its_coefficient():
    term = TermScale("mass", "x", Coefficient(1, (("eps", 2),)))
    assert term.eps_order == 2
    assert term.kept is False
    assert TermScale("mass", "x", Coefficient(2, (("Ma", -2),))).kept is True


def test_reduced_system_is_the_canonical_eleven():
    terms = scale_terms(apply_regime=True)
    assert reduce_system(terms) == REDUCED
    assert len(REDUCED) == 11


def test_gravity_and_pressure_survive_in_the_vertical():
    # the reduced vertical equation is hydrostatic balance and nothing else
    vertical = [k for k in REDUCED if k.startswith("vertical-momentum.")]
    assert vertical == [
        "vertical-momentum.pressure-gradient",
        "vertical-momentum.gravity",
    ]


def test_unregimed_system_is_refused():
    terms = scale_terms(apply_regime=False)
    by_key = {t.key: t for t in terms}
    raw = by_key["horizontal-momentum.vertical-shear-viscosity"]
    assert str(raw.coefficient) == "eps^-2*Re2^-1*mu2"
    assert raw.eps_order == -2
    with pytest.raises(ValueError, match="vertical-shear-viscosity"):
        reduce_system(terms)


def test_reduce_refuses_incomplete_coverage():
    terms = scale_terms(apply_regime=True)
    partial = [t for t in terms if t.equation != "mass"]
    with pytest.raises(ValueError, match="mass"):
        reduce_system(partial)
    with pytest.raises(ValueError):
        reduce_system([])


def test_audit_table_layout():
    terms = scale_terms(apply_regime=True)
    table = audit_table(terms)
    lines = table.splitlines()
    assert lines[0].split() == ["equation", "term", "coefficient", "eps-order", "status"]
    assert len(lines) == 2 + len(GOLDEN)  # header, rule, one row per term
    assert sum(line.endswith("kept") for line in lines) == 11
    assert sum(line.endswith("dropped") for line in lines) == 11
    assert any("2*eps^2*nu3" in line for line in lines)


# ------------------------------------------------------- coefficient algebra


def test_coefficient_string_forms():
    assert str(Coefficient()) == "1"
    assert str(Coefficient(2)) == "2"
    assert str(Coefficient(1, (("eps", 1),))) == "eps"
    assert str(Coefficient(1, (("Ma", -2), ("eps", 2)))) == "eps^2*Ma^-2"


def test_coefficient_times_accumulates_and_cancels():
    c = Coefficient(1, (("eps", -2),)).times("eps", 2)
    assert c.powers == ()
    assert c.power("eps") == 0
    assert str(c) == "1"


def test_coefficient_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Coefficient(1, (("bogus", 1),))
    with pytest.raises(ValueError):
        Coefficient(1, (("eps", 1), ("eps", 2)))
