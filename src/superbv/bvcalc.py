"""Integral forms, the divergence-type operator and the BV operator it induces.

An integral form is stored as a map (I, J) -> g representing

    sum  d xibar^I  (x)  d/dxi^J  (x)  g . [dxi]

with the coefficient written between the multivector and the Berezinian
basis section.  [dxi] carries parity m and is inert under everything except
coordinate changes.

The BV operator of a trivialising section omega = h . [dxi] is the
conjugate of the divergence operator by the isomorphism that tensors with
omega; it vanishes on functions and (0,1)-forms, sends coordinate
derivations to d_k(h) h^-1, and is extended to arbitrary sections either
directly (delta_omega) or through the bracket recursion (extend_delta).
The two extensions are independent code paths and are tested against each
other.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache

from .charts import BerSection, Chart, ChartError, Morphism, pull_ber
from .grading import koszul
from .jetring import _parts
from .mvforms import (
    MultiVectorForm,
    Section,
    _merged,
    add_terms,
    dbar,
    pull_mvform,
    schouten,
    wedge,
)


class IntegralForm(Section):
    """Integral form d xibar^I (x) d/dxi^J (x) g . [dxi]."""

    __slots__ = ()
    _tag = "intform"

    def mv_part(self) -> MultiVectorForm:
        """The underlying multivector form, coefficients read off in place."""
        return MultiVectorForm(self.chart, dict(self.terms), self.prec)

    def _factors(self, dbars: list, vecs: list, coeff: str) -> list:
        return dbars + vecs + [coeff, "[dxi]"]


# -- eta and the divergence operator ---------------------------------------


def eta(omega: BerSection, alpha: MultiVectorForm) -> IntegralForm:
    """Tensor a section with the trivialising omega = h . [dxi]."""
    if omega.chart != alpha.chart:
        raise ChartError("section and form live on different charts")
    if not omega.is_trivialising():
        raise ChartError("eta needs a trivialising section (even unit coefficient)")
    h = omega.coefficient
    return IntegralForm(alpha.chart, {k: c * h for k, c in alpha.terms.items()}, alpha.prec)


def eta_inverse(omega: BerSection, sigma: IntegralForm) -> MultiVectorForm:
    if omega.chart != sigma.chart:
        raise ChartError("section and form live on different charts")
    if not omega.is_trivialising():
        raise ChartError("eta needs a trivialising section (even unit coefficient)")
    h_inv = omega.coefficient.invert()
    return MultiVectorForm(sigma.chart, {k: c * h_inv for k, c in sigma.terms.items()}, sigma.prec)


def partial_int(sigma: IntegralForm, drop_form_sign: bool = False) -> IntegralForm:
    """The divergence-type operator lowering the multivector degree by one.

    On g-coefficient terms it contracts one coordinate derivation against
    the Berezinian slot; the (-1)^q prefactor on the barred form part is
    essential for the anticommutation with dbar, and ``drop_form_sign`` is a
    negative-control hook that omits it so the verification driver can show
    that the anticommutation then fails.
    """
    chart = sigma.chart
    pairs = []
    for (i_idx, j_idx), coeff in sigma.terms.items():
        q = len(i_idx)
        pj_total = sum(chart.parity(k) for k in j_idx) % 2
        for pg, part in _parts(coeff):
            prefix = 0
            for pos, direction in enumerate(j_idx):
                pk = chart.parity(direction)
                derivative = chart.d(part, direction)
                if not derivative.is_zero():
                    exponent = pos + pk * (prefix + pg)          # omission sign
                    exponent += pg * pj_total                     # coeff to the left
                    exponent += (pg + pk) * (pj_total + pk)       # result coeff back right
                    if not drop_form_sign:
                        exponent += q
                    key = (i_idx, j_idx[:pos] + j_idx[pos + 1:])
                    pairs.append((key, derivative if koszul(exponent) > 0 else -derivative))
                prefix = (prefix + pk) % 2
    return IntegralForm(chart, add_terms({}, pairs), sigma.prec - 1)


def dbar_int(sigma: IntegralForm) -> IntegralForm:
    """dbar on integral forms: acts on the form part, [dxi] is inert."""
    chart = sigma.chart
    mv = dbar(sigma.mv_part())
    return IntegralForm(chart, dict(mv.terms), mv.prec)


def pull_intform(phi: Morphism, sigma: IntegralForm) -> IntegralForm:
    """Pullback through a holomorphic change of coordinates.

    The multivector-form part transports as usual and the Berezinian slot
    contributes sdet of the differential.
    """
    pulled = pull_mvform(phi, sigma.mv_part())
    sdet = phi.differential_sdet()
    return IntegralForm(
        phi.source, {k: c * sdet for k, c in pulled.terms.items()}, pulled.prec
    )


# -- the BV operator --------------------------------------------------------


def delta_omega(omega: BerSection, alpha: MultiVectorForm) -> MultiVectorForm:
    """The BV operator of omega, as the conjugated divergence operator."""
    if not omega.coefficient.is_holomorphic():
        raise ChartError("the BV operator needs a holomorphic trivialising section")
    return eta_inverse(omega, partial_int(eta(omega, alpha)))


@dataclass(frozen=True)
class DeltaOperator:
    """Generator table of a strongly compatible BV operator.

    ``values[k]`` is the image of the coordinate derivation d/dxi^k;
    functions and (0,1)-forms are sent to zero, and the bracket recursion
    determines everything else.
    """

    chart: Chart
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) != self.chart.dim:
            raise ChartError("need one table entry per coordinate direction")
        for k, value in enumerate(self.values):
            if value.sig != self.chart.sig:
                raise ChartError("table entry lives in the wrong ring")
            if not value.is_zero() and value.parity() != self.chart.parity(k):
                raise ChartError(f"table entry {k} must have parity {self.chart.parity(k)}")

    @staticmethod
    def from_section(omega: BerSection) -> "DeltaOperator":
        """Table of the BV operator of omega: d/dxi^k -> d_k(h) h^-1."""
        if not omega.is_trivialising():
            raise ChartError("need a trivialising section")
        if not omega.coefficient.is_holomorphic():
            raise ChartError("need a holomorphic trivialising section")
        chart = omega.chart
        h = omega.coefficient
        h_inv = h.invert()
        return DeltaOperator(chart, tuple(chart.d(h, k) * h_inv for k in range(chart.dim)))


def extend_delta(delta: DeltaOperator, alpha: MultiVectorForm) -> MultiVectorForm:
    """Evaluate a generator table on an arbitrary section.

    The table extends by the bracket recursion

        D(w . rest) = [[w, rest]] + D(w) ^ rest - w ^ D(rest)

    which is the bracket-compatibility condition specialised to deg(w) = 1;
    ``_extend_term`` evaluates it on one stored term in closed form.  A key
    outside normal form is sorted first, with its sign, and the keys of its
    image past the chart's ``odd_wedge_cap`` drop.  Each term's image is
    summed on its own, then added into one dict in the order of the terms.
    The result does not depend on the peeling order; the right-peeled variant
    below exists to test exactly that.
    """
    chart = alpha.chart
    if delta.chart != chart:
        raise ChartError("operator and section live on different charts")
    terms: dict = {}
    prec = max(0, alpha.prec - 1)
    for key, coeff in alpha.terms.items():
        bars, vecs = _merged(chart, key[0]), _merged(chart, key[1])
        normal = bars and vecs and (bars[0], vecs[0]) == key
        if not normal:
            # sort the key once, with its sign, keeping odd indices past the
            # cap; the image's keys past the cap drop
            wide = replace(chart, odd_wedge_cap=len(key[0]) + len(key[1]))
            bars, vecs = _merged(wide, key[0]), _merged(wide, key[1])
            if not (bars and vecs):
                continue
            coeff = coeff if koszul(bars[1] + vecs[1]) > 0 else -coeff
        image = _extend_term(delta, chart, bars[0], vecs[0], coeff)
        add_terms(terms, image.terms.items() if normal else [
            (k, c) for k, c in image.terms.items() if _merged(chart, k[0]) and _merged(chart, k[1])])
        prec = min(prec, image.prec)
    return MultiVectorForm._clean(chart, terms, prec)


def _extend_term(delta: DeltaOperator, chart: Chart, i_idx, j_idx, coeff) -> MultiVectorForm:
    """D of the stored term d xibar^I (x) d/dxi^J . f, in closed form.

    The term is in normal form: I and J sorted, no even index repeated and
    no odd one past the chart's ``odd_wedge_cap``.  Barred symbols bracket
    to zero and have D = 0, and peeling the vectors j_0, j_1, ... of J one
    at a time unrolls the bracket recursion into the divergence formula

        D(I, J, f) = sum_a e_a (d_(j_a) f + D(d/dxi^(j_a)) f)  on (I, J - j_a)

    with e_a = (-1)^(|I| + a) koszul(|j_a| (|j_(a+1)| + |j_(a+2)| + ...)):
    every symbol before j_a, put back in front of the inner image, costs a
    minus sign, and d/dxi^(j_a) passes the vectors after it.  Removing one
    index from a sorted key keeps it sorted and in normal form.

    The pieces are added in the recursion's order: the bracket term of each
    a ascending, then the table term of each a descending, each where it is
    nonzero.  Two of them share a key only inside a run of a repeated odd
    index j.  Every piece there is an integer multiple of d_j f, of
    precision f.prec, or of D(d/dxi^j) f, of precision at most that, and a
    table piece comes last, so the terms and ``prec`` left on the key do not
    depend on how the recursion grouped the sum, even when a partial sum
    cancels in ``add_terms``.  The form's ``prec`` is the least of
    max(0, f.prec - 1) and, for each a with a nonzero table entry, that
    entry's ``prec`` and f.prec; it bounds every coefficient's.
    """
    parity = chart.parity
    prec = max(0, coeff.prec - 1)
    terms: dict = {}
    tables = []
    after = sum(map(parity, j_idx))  # |j_(a+1)| + ... once j_a is taken off
    for a, j in enumerate(j_idx):
        pj = parity(j)
        after -= pj
        positive = koszul(len(i_idx) + a + pj * after) > 0
        key = (i_idx, j_idx[:a] + j_idx[a + 1:])
        bracket = chart.d(coeff, j)
        if bracket.terms:
            add_terms(terms, ((key, bracket if positive else -bracket),))
        value = delta.values[j]
        if value.terms:
            prec = min(prec, value.prec, coeff.prec)
            tables.append((key, positive, value))
    for key, positive, value in reversed(tables):
        first = value * coeff
        if first.terms:
            add_terms(terms, ((key, first if positive else -first),))
    return MultiVectorForm._clean(chart, terms, prec)


def extend_delta_right(delta: DeltaOperator, alpha: MultiVectorForm) -> MultiVectorForm:
    """Right-peeled variant of the recursion; oracle for order independence."""
    chart = alpha.chart
    out = MultiVectorForm.zero(chart, alpha.prec - 1)
    for (i_idx, j_idx), coeff in alpha.terms.items():
        out = out + _extend_term_right(delta, chart, i_idx, j_idx, coeff)
    return out


def _extend_term_right(delta: DeltaOperator, chart: Chart, i_idx, j_idx, coeff) -> MultiVectorForm:
    """D of d xibar^I (x) d/dxi^J . coeff, peeled at its last symbol w as
    D(front . (w . coeff)), with the tail w . coeff one factor of degree 1."""
    if not i_idx and not j_idx:
        return MultiVectorForm.zero(chart, coeff.prec - 1)
    last, front = ((), j_idx[-1:]), (i_idx, j_idx[:-1])
    if not j_idx:
        last, front = (i_idx[-1:], ()), (i_idx[:-1], ())
    one = chart.one()
    if not front[0] and not front[1]:
        # base case: D(w . f) = [[w, f]] + D(w) f
        coeff_form = MultiVectorForm.from_function(chart, coeff)
        out = schouten(_word_form(chart, *last, one), coeff_form)
        if j_idx and not delta.values[j_idx[0]].is_zero():
            table_form = MultiVectorForm.from_function(chart, delta.values[j_idx[0]])
            out = out + wedge(table_form, coeff_form)
        return out
    tail_form = _word_form(chart, *last, coeff)
    front_form = _word_form(chart, *front, one)
    sign = koszul(len(front[0]) + len(front[1]))
    bracket = schouten(front_form, tail_form)
    if sign > 0:
        bracket = -bracket
    first = wedge(_extend_term_right(delta, chart, *front, one), tail_form)
    second = wedge(front_form, _extend_term_right(delta, chart, *last, coeff))
    if sign < 0:
        second = -second
    return bracket + first + second


def _word_form(chart: Chart, i_idx, j_idx, coeff) -> MultiVectorForm:
    """d xibar^I (x) d/dxi^J . coeff as a section: its key sorted by
    ``_merged``, with the sign, or no term where the key drops."""
    bars, vecs = _merged(chart, i_idx), _merged(chart, j_idx)
    if not (bars and vecs):
        return MultiVectorForm.zero(chart, coeff.prec)
    coeff = coeff if koszul(bars[1] + vecs[1]) > 0 else -coeff
    return MultiVectorForm(chart, {(bars[0], vecs[0]): coeff})


# -- strong-compatibility projection -----------------------------------------


@dataclass
class ProjectionResult:
    delta: DeltaOperator
    generator_residuals: dict


def project_strong(op, chart: Chart) -> ProjectionResult:
    """Project an operator on sections to its (p, q) -> (p-1, q) part.

    ``op`` is any callable MultiVectorForm -> MultiVectorForm.  The returned
    table is the projection evaluated on coordinate derivations; the
    residuals record what the projection discarded there.
    """
    values = []
    residuals = {}
    for k in range(chart.dim):
        image = op(MultiVectorForm.vector(chart, k))
        kept = image.project(0, 0)
        values.append(kept.terms.get(((), ()), chart.zero()))
        residual = image - kept
        if not residual.is_zero():
            residuals[k] = residual
    return ProjectionResult(DeltaOperator(chart, tuple(values)), residuals)


def projected_apply(op, alpha: MultiVectorForm) -> MultiVectorForm:
    """Apply an operator and keep only the (p-1, q) graded pieces."""
    out = MultiVectorForm.zero(alpha.chart, alpha.prec - 1)
    for (p, q), piece in alpha.bidegree_components().items():
        if p == 0:
            continue
        out = out + op(piece).project(p - 1, q)
    return out


# -- axiom checker -------------------------------------------------------------


def bv_bracket(delta_apply, alpha: MultiVectorForm, beta: MultiVectorForm,
               alpha_deg: int) -> MultiVectorForm:
    """The failure of delta to be a derivation:

    delta_alpha(beta) = (-1)^deg(a) D(a^b) - (-1)^deg(a) D(a)^b - a^D(b).
    """
    return _bv_bracket(delta_apply, alpha, beta, alpha_deg, delta_apply(alpha), delta_apply(beta))


def _bv_bracket(delta_apply, alpha, beta, alpha_deg, delta_alpha, delta_beta) -> MultiVectorForm:
    """``bv_bracket`` with the images D(a) and D(b) already computed."""
    first = delta_apply(wedge(alpha, beta))
    second = wedge(delta_alpha, beta)
    if koszul(alpha_deg) < 0:
        first, second = -first, -second
    return first - second - wedge(alpha, delta_beta)


@contextmanager
def _charged(elapsed: dict, name: str):
    """Add the wall time of the enclosed block to ``elapsed[name]``, in ms."""
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed[name] += (time.perf_counter() - start) * 1000


def check_bv_axioms(chart: Chart, delta_apply, samples, dbar_apply=dbar):
    """Evaluate the BV axioms on sample triples, exactly.

    ``samples`` is a sequence of dicts with keys alpha, beta, gamma (homogeneous
    MultiVectorForms), their bidegrees/parities, and a sample seed.  Returns a
    list of dicts {check, elapsed_ms, status, sample_seed, counterexample}.
    Each check is timed on its own.  The images of alpha and beta, their
    bracket and the BV bracket of alpha and beta are shared: each is computed
    at most once per sample, and charged to the first open check that needs
    it.
    """
    checks = {
        "bv_derivation": None,
        "bracket_compatibility": None,
        "delta_squared": None,
        "dbar_anticommute": None,
        "gbv_bracket_identity": None,
    }
    elapsed = dict.fromkeys(checks, 0.0)
    for sample in samples:
        alpha, beta, gamma = sample["alpha"], sample["beta"], sample["gamma"]
        da, pa = sample["alpha_deg"], sample["alpha_parity"]
        db, pb = sample["beta_deg"], sample["beta_parity"]
        seed = sample.get("seed")
        # thunks, called only inside this iteration
        delta_alpha = cache(lambda: delta_apply(alpha))
        delta_beta = cache(lambda: delta_apply(beta))
        bracket = cache(lambda: schouten(alpha, beta))
        bracket_of_alpha = cache(
            lambda: _bv_bracket(delta_apply, alpha, beta, da, delta_alpha(), delta_beta()))

        if checks["bv_derivation"] is None:
            with _charged(elapsed, "bv_derivation"):
                beta_gamma = wedge(beta, gamma)
                lhs = _bv_bracket(delta_apply, alpha, beta_gamma, da, delta_alpha(),
                                  delta_apply(beta_gamma))
                second = wedge(beta, _bv_bracket(delta_apply, alpha, gamma, da, delta_alpha(),
                                                 delta_apply(gamma)))
                if koszul((da + 1) * db + pa * pb) < 0:
                    second = -second
                rhs = wedge(bracket_of_alpha(), gamma) + second
                if not lhs.agrees_with(rhs):
                    checks["bv_derivation"] = (seed, lhs - rhs)

        if checks["bracket_compatibility"] is None:
            with _charged(elapsed, "bracket_compatibility"):
                if not bracket().agrees_with(-bracket_of_alpha()):
                    checks["bracket_compatibility"] = (seed, bracket() + bracket_of_alpha())

        if checks["delta_squared"] is None:
            with _charged(elapsed, "delta_squared"):
                squared = delta_apply(delta_alpha())
                if not squared.is_zero():
                    checks["delta_squared"] = (seed, squared)

        if checks["dbar_anticommute"] is None:
            with _charged(elapsed, "dbar_anticommute"):
                anti = dbar_apply(delta_alpha()) + delta_apply(dbar_apply(alpha))
                if not anti.is_zero():
                    checks["dbar_anticommute"] = (seed, anti)

        if checks["gbv_bracket_identity"] is None:
            with _charged(elapsed, "gbv_bracket_identity"):
                lhs = -delta_apply(bracket())
                second = schouten(alpha, delta_beta())
                if koszul(da) < 0:
                    second = -second
                rhs = -schouten(delta_alpha(), beta) + second
                if not lhs.agrees_with(rhs):
                    checks["gbv_bracket_identity"] = (seed, lhs - rhs)

    report = []
    for name, failure in checks.items():
        item = {"check": name, "elapsed_ms": elapsed[name]}
        if failure is None:
            item["status"] = "pass"
        else:
            seed, witness = failure
            item.update(status="fail", sample_seed=seed, counterexample=witness.render())
        report.append(item)
    return report


# -- comparison with the parity-flip picture -------------------------------------


class SymTensorForm(Section):
    """Sections of the parity-flipped symmetric algebra tensored with [dxi].

    Stored as (I, J) -> f for  d xibar^I (x) ([dxi] . f) (x) flip(d/dxi^J)
    with J sorted; flipped even derivations square to zero, flipped odd ones
    may repeat, so the index discipline matches the wedge side exactly.
    """

    __slots__ = ()
    _tag = "symform"

    def _factors(self, dbars: list, vecs: list, coeff: str) -> list:
        return dbars + ["[dxi]", coeff] + [f"flip({v})" for v in vecs]


def _gamma_sign(chart: Chart, j_idx, coeff_parity: int) -> int:
    """Total sign of the parity-flip map on one stored integral-form term."""
    p = len(j_idx)
    pj = sum(chart.parity(k) for k in j_idx) % 2
    m = chart.sig.m
    exponent = coeff_parity * pj                    # coeff to the left of the vectors
    exponent += (coeff_parity + pj) * m             # swap with the Berezinian slot
    exponent += p * (m + coeff_parity)              # flip map past [dxi] . f
    for pos, k in enumerate(j_idx, start=1):        # the position-weighted flip sign
        exponent += (p - pos + 1) * chart.parity(k)
    return koszul(exponent)


def _gamma_terms(form: Section) -> dict:
    """Terms of the parity-flip map; the map is its own inverse on terms."""
    chart = form.chart
    pairs = []
    for key, coeff in form.terms.items():
        for parity, part in _parts(coeff):
            sign = _gamma_sign(chart, key[1], parity)
            pairs.append((key, part if sign > 0 else -part))
    return add_terms({}, pairs)


def manin_gamma(sigma: IntegralForm) -> SymTensorForm:
    """Parity-flip comparison map from wedge powers to symmetric powers."""
    return SymTensorForm(sigma.chart, _gamma_terms(sigma), sigma.prec)


def manin_gamma_inverse(tau: SymTensorForm) -> IntegralForm:
    return IntegralForm(tau.chart, _gamma_terms(tau), tau.prec)


def manin_delta(tau: SymTensorForm, drop_form_sign: bool = False) -> SymTensorForm:
    """The divergence operator on the parity-flipped side, by its own formula.

    Derived once by pushing the wedge-side operator through the flip map; the
    anticommutation delta o Gamma = -Gamma o partial is a test, not an input.
    """
    chart = tau.chart
    m = chart.sig.m
    pairs = []
    for (i_idx, j_idx), coeff in tau.terms.items():
        q = len(i_idx)
        for pf, part in _parts(coeff):
            prefix = 0
            for pos, direction in enumerate(j_idx, start=1):
                pk = chart.parity(direction)
                derivative = chart.d(part, direction)
                if not derivative.is_zero():
                    exponent = 1 + m + pf + (pos - 1) + pos * pk + pk * pf + (1 + pk) * prefix
                    if not drop_form_sign:
                        exponent += q
                    key = (i_idx, j_idx[:pos - 1] + j_idx[pos:])
                    pairs.append((key, derivative if koszul(exponent) > 0 else -derivative))
                prefix = (prefix + pk) % 2
    return SymTensorForm(chart, add_terms({}, pairs), tau.prec - 1)


# -- coordinate covariance of the BV operator --------------------------------------


def pull_delta_table(phi: Morphism, omega: BerSection) -> DeltaOperator:
    """Table of the BV operator of the pulled-back section, on the source chart."""
    return DeltaOperator.from_section(pull_ber(phi, omega))
