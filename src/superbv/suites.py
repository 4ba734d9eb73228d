"""Named verification suites.

Each suite draws seeded random desk-scale instances on the scenario's chart
and checks one family of identities exactly, in the precision-tracked ring.
Suites report one record per check with the first counterexample rendered;
negative controls (deliberately broken signs) are part of the shipped set
and pass exactly when the sabotaged identity fails somewhere.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

from .bvcalc import (
    DeltaOperator,
    bv_bracket,
    check_bv_axioms,
    dbar_int,
    delta_omega,
    eta,
    extend_delta,
    extend_delta_right,
    manin_delta,
    manin_gamma,
    manin_gamma_inverse,
    partial_int,
    project_strong,
    projected_apply,
    pull_intform,
    pull_delta_table,
)
from .charts import BerSection, Chart, pull_ber
from .connect import (
    bv_connection,
    ber_from_tangent,
    check_cy_consistency,
    check_sdet_transport,
    is_flat,
    solve_delta_formula,
    transform_christoffel,
)
from .grading import koszul
from .jetring import _parts, dot
from .mvforms import MultiVectorForm, pull_mvform, schouten, wedge
from .samples import SampleGen


@dataclass
class CheckResult:
    suite: str
    check: str
    law: str
    trials: int
    status: str
    counterexample: str | None = None
    elapsed_ms: float = 0.0

    def as_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "check": self.check,
            "law": self.law,
            "trials": self.trials,
            "status": self.status,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        # a counterexample accompanies exactly the failed checks; scenario-level
        # problems are reported separately
        if self.status == "fail" and self.counterexample is not None:
            out["counterexample"] = self.counterexample
        elif self.status == "error" and self.counterexample is not None:
            out["error"] = self.counterexample
        return out


class _Recorder:
    def __init__(self, suite: str, trials: int):
        self.suite = suite
        self.trials = trials
        self.results: list[CheckResult] = []

    def run(self, check: str, law: str, body) -> None:
        start = time.perf_counter()
        failure = None
        try:
            failure = body()
        except Exception as error:  # surfaced as a scenario-level error, not a math failure
            elapsed = (time.perf_counter() - start) * 1000
            self.results.append(CheckResult(self.suite, check, law, self.trials,
                                            "error", repr(error), elapsed))
            return
        elapsed = (time.perf_counter() - start) * 1000
        if failure is None:
            self.results.append(CheckResult(self.suite, check, law, self.trials,
                                            "pass", None, elapsed))
        else:
            self.results.append(CheckResult(self.suite, check, law, self.trials,
                                            "fail", failure, elapsed))


def _gen(seed: int, suite: str) -> SampleGen:
    return SampleGen(seed ^ zlib.crc32(suite.encode()))


# -- Schouten bracket suites -----------------------------------------------------


def suite_schouten_symmetry(chart: Chart, seed: int, trials: int):
    rec = _Recorder("schouten_symmetry", trials)
    gen = _gen(seed, "schouten_symmetry")

    def body():
        for _ in range(trials):
            alpha, p, q, pa = gen.homogeneous_mvform(chart)
            beta, r, s, pb = gen.homogeneous_mvform(chart)
            rhs = schouten(beta, alpha)
            if koszul(((p + q) + 1) * ((r + s) + 1) + pa * pb) > 0:
                rhs = -rhs
            lhs = schouten(alpha, beta)
            if not lhs.agrees_with(rhs):
                return (lhs - rhs).render()
        return None

    rec.run("graded_symmetry",
            "the bracket of multivector forms flips with the sign "
            "(-1)^((deg a + 1)(deg b + 1) + |a||b|)", body)
    return rec.results


def suite_schouten_derivation(chart: Chart, seed: int, trials: int):
    rec = _Recorder("schouten_derivation", trials)
    gen = _gen(seed, "schouten_derivation")

    def derivation():
        for _ in range(trials):
            alpha, p, q, pa = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
            beta, r, s, pb = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
            gamma, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
            lhs = schouten(alpha, wedge(beta, gamma))
            second = wedge(beta, schouten(alpha, gamma))
            if koszul(((p + q) + 1) * (r + s) + pa * pb) < 0:
                second = -second
            rhs = wedge(schouten(alpha, beta), gamma) + second
            if not lhs.agrees_with(rhs):
                return (lhs - rhs).render()
        return None

    def vector_bracket():
        from .charts import vector_apply

        for _ in range(trials):
            v = gen.mvform(chart, 1, 0, parity=gen.rng.randint(0, 1))
            w = gen.mvform(chart, 1, 0, parity=gen.rng.randint(0, 1))
            if v.is_zero() or w.is_zero():
                continue
            f = gen.jet(chart.sig)
            col = lambda form: [form.terms.get(((), (k,)), chart.zero())
                                for k in range(chart.dim)]
            lhs = vector_apply(chart, col(schouten(v, w)), f)
            second = vector_apply(chart, col(w), vector_apply(chart, col(v), f))
            if koszul(v.parity() * w.parity()) < 0:
                second = -second
            rhs = vector_apply(chart, col(v), vector_apply(chart, col(w), f)) - second
            if not lhs.agrees_with(rhs):
                return (lhs - rhs).render()
        return None

    rec.run("wedge_derivation",
            "bracketing with a fixed section is a derivation of the exterior product", derivation)
    rec.run("extends_vector_bracket",
            "on vector fields the bracket is the supercommutator of derivations", vector_bracket)
    return rec.results


# -- BV operator suites ------------------------------------------------------------


def _omega_family(gen: SampleGen, chart: Chart):
    sections = [BerSection(chart, chart.one())]
    z1 = chart.coordinate(0)
    sections.append(BerSection(chart, chart.one() + z1))
    sections.append(BerSection(chart, gen.unit(chart.sig, holomorphic=True)))
    return sections


def suite_tian_todorov(chart: Chart, seed: int, trials: int):
    rec = _Recorder("tian_todorov", trials)
    gen = _gen(seed, "tian_todorov")

    def body():
        deltas = [DeltaOperator.from_section(omega) for omega in _omega_family(gen, chart)]
        for index in range(trials):
            delta = deltas[index % len(deltas)]
            alpha, p, q, _ = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
            beta, *_ = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
            lhs = -schouten(alpha, beta)
            rhs = bv_bracket(lambda x: extend_delta(delta, x), alpha, beta, p + q)
            if not lhs.agrees_with(rhs):
                return (lhs - rhs).render()
        return None

    rec.run("bracket_from_bv_operator",
            "the failure of the BV operator to be a derivation is minus the bracket",
            body)
    return rec.results


def suite_gbv_compat(chart: Chart, seed: int, trials: int):
    rec = _Recorder("gbv_compat", trials)
    gen = _gen(seed, "gbv_compat")
    laws = {
        "bv_derivation": "the bracket operator attached to a section is a graded derivation",
        "bracket_compatibility": "the attached bracket equals minus the Schouten bracket",
        "delta_squared": "the BV operator squares to zero",
        "dbar_anticommute": "the BV operator anticommutes with dbar",
        "gbv_bracket_identity": "the BV operator is a graded derivation of the bracket",
    }
    start = time.perf_counter()
    try:
        omega = gen.trivialising_section(chart)
        delta = DeltaOperator.from_section(omega)
        samples = []
        for index in range(trials):
            alpha, p, q, pa = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
            beta, r, s, pb = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
            gamma, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
            samples.append({
                "alpha": alpha, "beta": beta, "gamma": gamma,
                "alpha_deg": p + q, "alpha_parity": pa,
                "beta_deg": r + s, "beta_parity": pb,
                "seed": index,
            })
        report = check_bv_axioms(chart, lambda x: extend_delta(delta, x), samples)
    except Exception as error:  # an error, as in _Recorder.run; the checks below need delta
        elapsed = (time.perf_counter() - start) * 1000 / len(laws)
        return [CheckResult("gbv_compat", check, law, trials, "error", repr(error), elapsed)
                for check, law in laws.items()]
    for item in report:
        rec.results.append(CheckResult("gbv_compat", item["check"], laws[item["check"]], trials,
                                       item["status"], item.get("counterexample"),
                                       item["elapsed_ms"]))

    def order_independence():
        for _ in range(max(5, trials // 4)):
            alpha, *_ = gen.homogeneous_mvform(chart)
            left = extend_delta(delta, alpha)
            right = extend_delta_right(delta, alpha)
            if not left.agrees_with(right):
                return (left - right).render()
        return None

    rec.run("extension_order_independent",
            "extending the generator table peels factors from either side alike",
            order_independence)

    def two_paths():
        for _ in range(max(5, trials // 2)):
            alpha, *_ = gen.homogeneous_mvform(chart)
            via_table = extend_delta(delta, alpha)
            composite = delta_omega(omega, alpha)
            if not via_table.agrees_with(composite):
                return (via_table - composite).render()
        return None

    rec.run("generator_table_determines_operator",
            "the bracket recursion reproduces the conjugated divergence operator",
            two_paths)
    return rec.results


def suite_partial_dbar(chart: Chart, seed: int, trials: int):
    rec = _Recorder("partial_dbar", trials)
    gen = _gen(seed, "partial_dbar")

    def make_sigma():
        alpha, *_ = gen.homogeneous_mvform(chart)
        return eta(gen.trivialising_section(chart), alpha)

    def square():
        for _ in range(trials):
            sigma = make_sigma()
            out = partial_int(partial_int(sigma))
            if not out.is_zero():
                return out.render()
        return None

    def anticommute():
        for _ in range(trials):
            sigma = make_sigma()
            out = partial_int(dbar_int(sigma)) + dbar_int(partial_int(sigma))
            if not out.is_zero():
                return out.render()
        return None

    def negative_control():
        for _ in range(trials):
            sigma = make_sigma()
            out = partial_int(dbar_int(sigma), drop_form_sign=True) \
                + dbar_int(partial_int(sigma, drop_form_sign=True))
            if not out.is_zero():
                return None  # the sabotaged operator fails, as it must
        return "dropping the form-degree sign never broke the anticommutation"

    def covariance():
        for _ in range(max(10, trials // 2)):
            phi = gen.invertible_morphism(chart)
            alpha, *_ = gen.homogeneous_mvform(phi.target, max_p=2, max_q=1)
            sigma = eta(BerSection(phi.target, phi.target.one()), alpha)
            lhs = pull_intform(phi, partial_int(sigma))
            rhs = partial_int(pull_intform(phi, sigma))
            if not lhs.agrees_with(rhs):
                return (lhs - rhs).render()
        return None

    rec.run("divergence_squared",
            "the divergence operator on integral forms squares to zero", square)
    rec.run("divergence_dbar_anticommute",
            "the divergence operator anticommutes with dbar", anticommute)
    rec.run("negative_control_form_sign",
            "omitting the form-degree sign must break the anticommutation", negative_control)
    rec.run("divergence_covariance",
            "the divergence operator is independent of holomorphic coordinates", covariance)
    return rec.results


# -- graded matrix suite -------------------------------------------------------------


def suite_jacobi_sum(chart: Chart, seed: int, trials: int):
    rec = _Recorder("jacobi_sum", trials)
    gen = _gen(seed, "jacobi_sum")

    def multiplicative():
        for _ in range(trials):
            phi = gen.invertible_morphism(chart)
            psi = gen.invertible_morphism(chart)
            m = phi.differential()
            n = psi.differential()
            lhs = (m * n).sdet()
            rhs = m.sdet() * n.sdet()
            if not lhs.agrees_with(rhs):
                return (lhs - rhs).render()
        return None

    def supertranspose():
        for _ in range(trials):
            m = gen.invertible_morphism(chart).differential()
            if not m.supertranspose().sdet().agrees_with(m.sdet()):
                return m.render()
        return None

    def jacobi():
        for _ in range(max(5, trials // 3)):
            phi = gen.invertible_morphism(chart)
            d = phi.differential()
            sdet = d.sdet()
            d_inv = d.inverse()
            weighted = [[sdet * entry for entry in row] for row in d_inv.rows]
            for k in range(chart.dim):
                px = chart.parity(k)
                lhs = chart.d(sdet, k)
                pairs = []
                for mrow in range(chart.dim):
                    for nrow in range(chart.dim):
                        pm, pn = chart.parity(mrow), chart.parity(nrow)
                        factor = weighted[mrow][nrow]
                        if koszul(pm + px * (pm + pn)) < 0:
                            factor = -factor
                        pairs.append((factor, chart.d(d.rows[nrow][mrow], k)))
                rhs = dot(chart.sig, pairs)
                if not lhs.agrees_with(rhs):
                    return (lhs - rhs).render()
        return None

    def divergence_sum():
        for _ in range(max(5, trials // 3)):
            phi = gen.invertible_morphism(chart)
            d = phi.differential()
            sdet = d.sdet()
            d_inv = d.inverse()
            for k in range(chart.dim):
                acc = chart.zero()
                for j in range(chart.dim):
                    acc = acc + chart.d(sdet * d_inv.rows[j][k], j)
                if not acc.is_zero():
                    return acc.render()
        return None

    def commutator_trace():
        for _ in range(trials):
            m = gen.invertible_morphism(chart).differential()
            n = gen.invertible_morphism(chart).differential()
            out = (m * n - n * m).str_()
            if not out.is_zero():
                return out.render()
        return None

    rec.run("sdet_multiplicative", "the superdeterminant is multiplicative", multiplicative)
    rec.run("sdet_supertranspose", "the superdeterminant is supertranspose invariant",
            supertranspose)
    rec.run("jacobi_formula",
            "derivatives of the superdeterminant expand through the inverse matrix", jacobi)
    rec.run("jacobi_divergence_sum",
            "the weighted divergence of the inverse differential vanishes", divergence_sum)
    rec.run("supertrace_commutator", "the supertrace kills commutators", commutator_trace)
    return rec.results


# -- connection suites ------------------------------------------------------------------


def suite_bv_flat(chart: Chart, seed: int, trials: int):
    rec = _Recorder("bv_flat", trials)
    gen = _gen(seed, "bv_flat")

    def flatness():
        for _ in range(max(10, trials)):
            omega = gen.trivialising_section(chart)
            conn = bv_connection(DeltaOperator.from_section(omega))
            if not is_flat(conn):
                return omega.render()
        return None

    def parallel_equivalence():
        for _ in range(trials):
            omega = gen.trivialising_section(chart)
            h = omega.coefficient
            table = DeltaOperator.from_section(omega)
            conn = bv_connection(table)
            for k in range(chart.dim):
                residual = chart.d(h, k) + h * conn.coefficients[k]
                if not residual.is_zero():
                    return residual.render()
                if not (h * table.values[k]).agrees_with(chart.d(h, k)):
                    return h.render()
        return None

    def round_trip():
        for _ in range(max(5, trials // 3)):
            omega = gen.trivialising_section(chart)
            table = DeltaOperator.from_section(omega)
            h = solve_delta_formula(table)
            recovered = DeltaOperator.from_section(BerSection(chart, h))
            for a, b in zip(recovered.values, table.values):
                if not a.agrees_with(b):
                    return (a - b).render()
            scaled = h.scale_numerators(5, 0, 1)
            factor = scaled * h.invert()
            f_inv = factor.invert()
            for k in range(chart.dim):
                if not (f_inv * chart.d(factor, k)).is_zero():
                    return factor.render()
        return None

    def covariance():
        for _ in range(max(10, trials // 2)):
            phi = gen.invertible_morphism(chart)
            omega = gen.trivialising_section(phi.target)
            conn_target = bv_connection(DeltaOperator.from_section(omega))
            conn_source = bv_connection(pull_delta_table(phi, omega))
            witness = _connection_covariance_witness(chart, phi, conn_target, conn_source)
            if witness is not None:
                return witness
        return None

    def tangent_covariance():
        for _ in range(max(10, trials // 2)):
            phi = gen.invertible_morphism(chart)
            gamma_src = gen.christoffel(chart)
            # ber_from_tangent reads only the diagonal symbols (q, l, q)
            diagonal = [(q, l, q) for l in range(chart.dim) for q in range(chart.dim)]
            gamma_tgt = transform_christoffel(phi, gamma_src, diagonal)
            witness = _connection_covariance_witness(
                chart, phi, ber_from_tangent(gamma_tgt), ber_from_tangent(gamma_src))
            if witness is not None:
                return witness
        return None

    rec.run("bv_connection_flat",
            "the connection built from a BV generator table has zero curvature", flatness)
    rec.run("parallel_section_equation",
            "parallelness of h [dxi] is the local equation h Delta(d_k) = d_k(h)",
            parallel_equivalence)
    rec.run("delta_table_round_trip",
            "solving the local equation recovers the table, up to one constant", round_trip)
    rec.run("bv_connection_covariance",
            "the BV connection transforms correctly under coordinate changes", covariance)
    rec.run("tangent_connection_covariance",
            "the induced Berezinian connection transforms with the Christoffel law",
            tangent_covariance)
    return rec.results


def _connection_covariance_witness(chart, phi, conn_target, conn_source):
    sdet = phi.differential().sdet()
    d_inv = phi.differential_inverse()
    pulled = phi.apply_many(conn_target.coefficients)
    d_sdet = [chart.d(sdet, mrow) for mrow in range(chart.dim)]
    for k in range(chart.dim):
        lhs = pulled[k] * sdet
        pairs = []
        for mrow in range(chart.dim):
            pm = chart.parity(mrow)
            for pc, part in _parts(d_inv.rows[mrow][k]):
                if koszul(pm * pc) < 0:
                    part = -part
                pairs.append((part, d_sdet[mrow]))
                pairs.append((part * conn_source.coefficients[mrow], sdet))
        rhs = dot(chart.sig, pairs)
        if not lhs.agrees_with(rhs):
            return (lhs - rhs).render()
    return None


def suite_sdet_transport(chart: Chart, seed: int, trials: int):
    rec = _Recorder("sdet_transport", trials)
    gen = _gen(seed, "sdet_transport")

    def body():
        for index in range(max(10, trials // 2)):
            gamma = gen.christoffel(chart)
            path = gen.formal_path(chart, with_odd_direction=(index % 2 == 0))
            report = check_sdet_transport(gamma, path, order=4)
            if report["status"] != "pass":
                return report["counterexample"]
        return None

    rec.run("ber_transport_is_inverse_sdet",
            "Berezinian transport equals the inverse superdeterminant of frame transport",
            body)
    return rec.results


def suite_cy_consistency(chart: Chart, seed: int, trials: int):
    rec = _Recorder("cy_consistency", trials)
    gen = _gen(seed, "cy_consistency")

    def body():
        for _ in range(max(10, trials // 2)):
            h, gamma, _ = gen.cy_scenario(chart)
            report = check_cy_consistency(h, gamma)
            if report["status"] != "pass":
                return report["counterexample"] or report["status"]
        return None

    rec.run("two_connections_agree",
            "under the supertrace constraint the BV and tangent-induced connections agree",
            body)
    return rec.results


def suite_manin_comparison(chart: Chart, seed: int, trials: int):
    rec = _Recorder("manin_comparison", trials)
    gen = _gen(seed, "manin_comparison")

    def make_sigma():
        alpha, *_ = gen.homogeneous_mvform(chart)
        return eta(gen.trivialising_section(chart), alpha)

    def round_trip():
        for _ in range(trials):
            sigma = make_sigma()
            if not manin_gamma_inverse(manin_gamma(sigma)).agrees_with(sigma):
                return sigma.render()
        return None

    def anticommute():
        for _ in range(trials):
            sigma = make_sigma()
            lhs = manin_delta(manin_gamma(sigma))
            rhs = -manin_gamma(partial_int(sigma))
            if not lhs.agrees_with(rhs):
                return sigma.render()
        return None

    def squared():
        for _ in range(trials):
            tau = manin_gamma(make_sigma())
            out = manin_delta(manin_delta(tau))
            if not out.is_zero():
                return out.render()
        return None

    rec.run("parity_flip_bijective", "the parity-flip comparison map is a bijection", round_trip)
    rec.run("flip_anticommutes_divergence",
            "the flipped divergence anticommutes with the comparison map", anticommute)
    rec.run("flipped_divergence_squared", "the flipped divergence squares to zero", squared)
    return rec.results


def suite_delta_projection(chart: Chart, seed: int, trials: int):
    rec = _Recorder("delta_projection", trials)
    gen = _gen(seed, "delta_projection")

    def body():
        omega = gen.trivialising_section(chart)
        delta = DeltaOperator.from_section(omega)
        if chart.dim < 2:
            raise ValueError("the projection suite needs at least two coordinate directions")
        alpha0 = MultiVectorForm(chart, {((0, 1), ()): chart.coordinate(0)})

        def perturbed(x):
            return extend_delta(delta, x) + schouten(alpha0, x)

        projected = project_strong(perturbed, chart)
        for got, want in zip(projected.delta.values, delta.values):
            if not got.agrees_with(want):
                return (got - want).render()
        for _ in range(trials):
            x, *_ = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
            via_table = extend_delta(projected.delta, x)
            if not extend_delta(projected.delta, via_table).is_zero():
                return via_table.render()
            direct = projected_apply(perturbed, x)
            if not via_table.agrees_with(direct):
                return (via_table - direct).render()
        return None

    rec.run("projection_restores_strong_compatibility",
            "projecting a compatible operator onto its degree-lowering part is "
            "strongly compatible and squares to zero", body)
    return rec.results


def suite_covariance(chart: Chart, seed: int, trials: int):
    rec = _Recorder("covariance", trials)
    gen = _gen(seed, "covariance")

    def bracket_equivariance():
        for _ in range(max(10, trials // 2)):
            phi = gen.invertible_morphism(chart)
            a, *_ = gen.homogeneous_mvform(phi.target, max_p=2, max_q=1)
            b, *_ = gen.homogeneous_mvform(phi.target, max_p=1, max_q=1)
            lhs = pull_mvform(phi, schouten(a, b))
            rhs = schouten(pull_mvform(phi, a), pull_mvform(phi, b))
            if not lhs.agrees_with(rhs):
                return (lhs - rhs).render()
        return None

    def functoriality():
        for _ in range(max(5, trials // 4)):
            phi = gen.invertible_morphism(chart)
            psi = gen.invertible_morphism(phi.target)
            alpha, *_ = gen.homogeneous_mvform(psi.target, max_p=1, max_q=1)
            once = pull_mvform(psi.compose(phi), alpha)
            twice = pull_mvform(phi, pull_mvform(psi, alpha))
            if not once.agrees_with(twice):
                return (once - twice).render()
        return None

    def bv_covariance():
        for _ in range(max(5, trials // 4)):
            phi = gen.invertible_morphism(chart)
            omega = gen.trivialising_section(phi.target)
            alpha, *_ = gen.homogeneous_mvform(phi.target, max_p=2, max_q=1)
            lhs = pull_mvform(phi, delta_omega(omega, alpha))
            rhs = delta_omega(pull_ber(phi, omega), pull_mvform(phi, alpha))
            if not lhs.agrees_with(rhs):
                return (lhs - rhs).render()
        return None

    rec.run("schouten_equivariance",
            "the bracket commutes with holomorphic coordinate changes", bracket_equivariance)
    rec.run("pullback_functorial", "pullback respects composition of coordinate changes",
            functoriality)
    rec.run("bv_operator_covariance",
            "the BV operator of a transported section is the transported operator",
            bv_covariance)
    return rec.results


SUITES = {
    "schouten_symmetry": suite_schouten_symmetry,
    "schouten_derivation": suite_schouten_derivation,
    "tian_todorov": suite_tian_todorov,
    "gbv_compat": suite_gbv_compat,
    "partial_dbar": suite_partial_dbar,
    "jacobi_sum": suite_jacobi_sum,
    "bv_flat": suite_bv_flat,
    "sdet_transport": suite_sdet_transport,
    "cy_consistency": suite_cy_consistency,
    "manin_comparison": suite_manin_comparison,
    "delta_projection": suite_delta_projection,
    "covariance": suite_covariance,
}


def run_suites(chart: Chart, suites, seed: int, trials: int):
    """Run the named suites in declaration order; deterministic for fixed inputs."""
    results = []
    for name in suites:
        runner = SUITES[name]
        results.extend(runner(chart, seed, trials))
    return results
