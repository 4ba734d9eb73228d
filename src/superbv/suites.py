"""Named verification suites.

Each suite draws seeded random desk-scale instances on the scenario's chart
and checks one family of identities exactly, in the precision-tracked ring.
Suites report one record per check with the first counterexample rendered;
negative controls (deliberately broken signs) are part of the shipped set
and pass exactly when the sabotaged identity fails somewhere.

A check is one row ``(check, law, count, trial)`` of its suite's table: a
trial draws one instance and returns a residue, the rendered witness of a
failure or ``None``.  ``_run`` runs ``count`` trials, stops at the first
residue and decides pass, fail and error for every check.  A suite's checks
share one stream, ``_gen(seed, suite)``, in declaration order, so giving
each check its own stream would move every recorded hash.  A report's ``trials``
is the scenario's count; checks run ``trials``, ``max(10, trials)``,
``max(10, trials // 2)``, ``max(5, trials // 2)``, ``max(5, trials // 3)``
or ``max(5, trials // 4)`` trials.  A check with set-up before its draws,
or one that needs all its draws for a verdict, is a one-trial row that runs
its own trials through ``_first_residue``.
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
from .charts import BerSection, Chart, pull_ber, vector_apply
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
from .jetring import _parts, dot, jet_sum
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


def _run(suite: str, trials: int, rows) -> list[CheckResult]:
    """One ``CheckResult`` per row ``(check, law, count, trial)``, in order."""
    results = []
    for check, law, count, trial in rows:
        start = time.perf_counter()
        try:
            residue = _first_residue(count, trial)
            status = "pass" if residue is None else "fail"
        except Exception as error:  # surfaced as a scenario-level error, not a math failure
            status, residue = "error", repr(error)
        results.append(CheckResult(suite, check, law, trials, status, residue,
                                   (time.perf_counter() - start) * 1000))
    return results


def _first_residue(count: int, trial):
    """The first of ``trial(0)``, ..., ``trial(count - 1)`` that is not ``None``."""
    for index in range(count):
        residue = trial(index)
        if residue is not None:
            return residue
    return None


def _differ(lhs, rhs, witness=None):
    """``None`` if ``lhs`` agrees with ``rhs``, else ``witness`` or ``lhs - rhs`` rendered."""
    if lhs.agrees_with(rhs):
        return None
    return (lhs - rhs if witness is None else witness).render()


def _nonzero(value, witness=None):
    """``None`` if ``value`` is zero, else ``witness`` or ``value`` rendered."""
    if value.is_zero():
        return None
    return (value if witness is None else witness).render()


def _once(make):
    """``make`` as a thunk that runs it once; later calls return the same
    value or raise the same error, without drawing anew."""
    outcome = []

    def thunk():
        if not outcome:
            try:
                outcome.append(make())
            except Exception as error:
                outcome.append(error)
        if isinstance(outcome[0], Exception):
            raise outcome[0]
        return outcome[0]

    return thunk


def _gen(seed: int, suite: str) -> SampleGen:
    return SampleGen(seed ^ zlib.crc32(suite.encode()))


# -- Schouten bracket suites -----------------------------------------------------


def suite_schouten_symmetry(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "schouten_symmetry")

    def symmetry(_):
        alpha, p, q, pa = gen.homogeneous_mvform(chart)
        beta, r, s, pb = gen.homogeneous_mvform(chart)
        rhs = schouten(beta, alpha)
        if koszul(((p + q) + 1) * ((r + s) + 1) + pa * pb) > 0:
            rhs = -rhs
        return _differ(schouten(alpha, beta), rhs)

    return _run("schouten_symmetry", trials, [
        ("graded_symmetry",
         "the bracket of multivector forms flips with the sign "
         "(-1)^((deg a + 1)(deg b + 1) + |a||b|)", trials, symmetry),
    ])


def suite_schouten_derivation(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "schouten_derivation")

    def derivation(_):
        alpha, p, q, pa = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
        beta, r, s, pb = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
        gamma, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
        lhs = schouten(alpha, wedge(beta, gamma))
        second = wedge(beta, schouten(alpha, gamma))
        if koszul(((p + q) + 1) * (r + s) + pa * pb) < 0:
            second = -second
        return _differ(lhs, wedge(schouten(alpha, beta), gamma) + second)

    def col(form):
        return [form.terms.get(((), (k,)), chart.zero()) for k in range(chart.dim)]

    def vector_bracket(_):
        # an odd vector field needs an odd direction
        v, w = (gen.mvform(chart, 1, 0, parity=gen.rng.randint(0, 1) if chart.sig.m else 0)
                for _ in range(2))
        if v.is_zero() or w.is_zero():
            return None
        f = gen.jet(chart.sig)
        lhs = vector_apply(chart, col(schouten(v, w)), f)
        second = vector_apply(chart, col(w), vector_apply(chart, col(v), f))
        if koszul(v.parity() * w.parity()) < 0:
            second = -second
        return _differ(lhs, vector_apply(chart, col(v), vector_apply(chart, col(w), f)) - second)

    return _run("schouten_derivation", trials, [
        ("wedge_derivation",
         "bracketing with a fixed section is a derivation of the exterior product",
         trials, derivation),
        ("extends_vector_bracket",
         "on vector fields the bracket is the supercommutator of derivations",
         trials, vector_bracket),
    ])


# -- BV operator suites ------------------------------------------------------------


def _integral_form(gen: SampleGen, chart: Chart):
    alpha, *_ = gen.homogeneous_mvform(chart)
    return eta(gen.trivialising_section(chart), alpha)


def suite_tian_todorov(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "tian_todorov")

    def bracket(deltas, index):
        delta = deltas[index % len(deltas)]
        alpha, p, q, _ = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
        beta, *_ = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
        lhs = -schouten(alpha, beta)
        return _differ(lhs, bv_bracket(lambda x: extend_delta(delta, x), alpha, beta, p + q))

    def todorov(_):
        units = (chart.one(), chart.one() + chart.coordinate(0),
                 gen.unit(chart.sig, holomorphic=True))
        deltas = [DeltaOperator.from_section(BerSection(chart, h)) for h in units]
        return _first_residue(trials, lambda index: bracket(deltas, index))

    return _run("tian_todorov", trials, [
        ("bracket_from_bv_operator",
         "the failure of the BV operator to be a derivation is minus the bracket", 1, todorov),
    ])


def suite_gbv_compat(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "gbv_compat")
    laws = {
        "bv_derivation": "the bracket operator attached to a section is a graded derivation",
        "bracket_compatibility": "the attached bracket equals minus the Schouten bracket",
        "delta_squared": "the BV operator squares to zero",
        "dbar_anticommute": "the BV operator anticommutes with dbar",
        "gbv_bracket_identity": "the BV operator is a graded derivation of the bracket",
    }

    def sample(index):
        alpha, p, q, pa = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
        beta, r, s, pb = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
        gamma, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
        return {"alpha": alpha, "beta": beta, "gamma": gamma,
                "alpha_deg": p + q, "alpha_parity": pa,
                "beta_deg": r + s, "beta_parity": pb,
                "seed": index}

    @_once
    def setup():
        omega = gen.trivialising_section(chart)
        delta = DeltaOperator.from_section(omega)
        samples = [sample(index) for index in range(trials)]
        report = check_bv_axioms(chart, lambda x: extend_delta(delta, x), samples)
        return omega, delta, {item["check"]: item for item in report}

    def axiom(check):
        return lambda _: setup()[2][check].get("counterexample")

    def order_independence(_):
        _, delta, _ = setup()
        alpha, *_ = gen.homogeneous_mvform(chart)
        return _differ(extend_delta(delta, alpha), extend_delta_right(delta, alpha))

    def two_paths(_):
        omega, delta, _ = setup()
        alpha, *_ = gen.homogeneous_mvform(chart)
        return _differ(extend_delta(delta, alpha), delta_omega(omega, alpha))

    # if the set-up raises, every check that needs it reports its error
    results = _run("gbv_compat", trials, [(check, law, 1, axiom(check))
                                          for check, law in laws.items()] + [
        ("extension_order_independent",
         "extending the generator table peels factors from either side alike",
         max(5, trials // 4), order_independence),
        ("generator_table_determines_operator",
         "the bracket recursion reproduces the conjugated divergence operator",
         max(5, trials // 2), two_paths),
    ])
    if results[0].status != "error":  # check_bv_axioms times each of its checks itself
        for result in results[:len(laws)]:
            result.elapsed_ms = setup()[2][result.check]["elapsed_ms"]
    return results


def suite_partial_dbar(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "partial_dbar")

    def square(_):
        return _nonzero(partial_int(partial_int(_integral_form(gen, chart))))

    def anticommute(_):
        sigma = _integral_form(gen, chart)
        return _nonzero(partial_int(dbar_int(sigma)) + dbar_int(partial_int(sigma)))

    def sign_dropped(_):
        """A residue, left unrendered, where the sabotaged operators do not anticommute."""
        sigma = _integral_form(gen, chart)
        out = partial_int(dbar_int(sigma), drop_form_sign=True) \
            + dbar_int(partial_int(sigma, drop_form_sign=True))
        return None if out.is_zero() else "sign dropped"

    def negative_control(_):
        if _first_residue(trials, sign_dropped) is not None:
            return None  # the sabotaged operator fails, as it must
        return "dropping the form-degree sign never broke the anticommutation"

    def covariance(_):
        phi = gen.invertible_morphism(chart)
        alpha, *_ = gen.homogeneous_mvform(phi.target, max_p=2, max_q=1)
        sigma = eta(BerSection(phi.target, phi.target.one()), alpha)
        return _differ(pull_intform(phi, partial_int(sigma)),
                       partial_int(pull_intform(phi, sigma)))

    return _run("partial_dbar", trials, [
        ("divergence_squared",
         "the divergence operator on integral forms squares to zero", trials, square),
        ("divergence_dbar_anticommute",
         "the divergence operator anticommutes with dbar", trials, anticommute),
        ("negative_control_form_sign",
         "omitting the form-degree sign must break the anticommutation", 1, negative_control),
        ("divergence_covariance",
         "the divergence operator is independent of holomorphic coordinates",
         max(10, trials // 2), covariance),
    ])


# -- graded matrix suite -------------------------------------------------------------


def suite_jacobi_sum(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "jacobi_sum")

    def multiplicative(_):
        m = gen.invertible_morphism(chart).differential()
        n = gen.invertible_morphism(chart).differential()
        return _differ((m * n).sdet(), m.sdet() * n.sdet())

    def supertranspose(_):
        m = gen.invertible_morphism(chart).differential()
        return _differ(m.supertranspose().sdet(), m.sdet(), m)

    def jacobi(_):
        d = gen.invertible_morphism(chart).differential()
        sdet = d.sdet()
        d_inv = d.inverse()
        weighted = [[sdet * entry for entry in row] for row in d_inv.rows]

        def direction(k):
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
            return _differ(lhs, dot(chart.sig, pairs))

        return _first_residue(chart.dim, direction)

    def divergence_sum(_):
        d = gen.invertible_morphism(chart).differential()
        sdet = d.sdet()
        d_inv = d.inverse()

        def direction(k):
            return _nonzero(jet_sum(chart.sig, (chart.d(sdet * d_inv.rows[j][k], j)
                                                for j in range(chart.dim))))

        return _first_residue(chart.dim, direction)

    def commutator_trace(_):
        m = gen.invertible_morphism(chart).differential()
        n = gen.invertible_morphism(chart).differential()
        return _nonzero((m * n - n * m).str_())

    return _run("jacobi_sum", trials, [
        ("sdet_multiplicative", "the superdeterminant is multiplicative", trials, multiplicative),
        ("sdet_supertranspose", "the superdeterminant is supertranspose invariant",
         trials, supertranspose),
        ("jacobi_formula",
         "derivatives of the superdeterminant expand through the inverse matrix",
         max(5, trials // 3), jacobi),
        ("jacobi_divergence_sum",
         "the weighted divergence of the inverse differential vanishes",
         max(5, trials // 3), divergence_sum),
        ("supertrace_commutator", "the supertrace kills commutators", trials, commutator_trace),
    ])


# -- connection suites ------------------------------------------------------------------


def suite_bv_flat(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "bv_flat")

    def flatness(_):
        omega = gen.trivialising_section(chart)
        if is_flat(bv_connection(DeltaOperator.from_section(omega))):
            return None
        return omega.render()

    def parallel_equivalence(_):
        omega = gen.trivialising_section(chart)
        h = omega.coefficient
        table = DeltaOperator.from_section(omega)
        conn = bv_connection(table)
        return _first_residue(chart.dim, lambda k: (
            _nonzero(chart.d(h, k) + h * conn.coefficients[k])
            or _differ(h * table.values[k], chart.d(h, k), h)))

    def round_trip(_):
        omega = gen.trivialising_section(chart)
        table = DeltaOperator.from_section(omega)
        h = solve_delta_formula(table)
        recovered = DeltaOperator.from_section(BerSection(chart, h))
        residue = _first_residue(chart.dim,
                                 lambda k: _differ(recovered.values[k], table.values[k]))
        if residue is not None:
            return residue
        factor = h.scale_numerators(5, 0, 1) * h.invert()
        f_inv = factor.invert()
        return _first_residue(chart.dim, lambda k: _nonzero(f_inv * chart.d(factor, k), factor))

    def covariance(_):
        phi = gen.invertible_morphism(chart)
        omega = gen.trivialising_section(phi.target)
        conn_target = bv_connection(DeltaOperator.from_section(omega))
        conn_source = bv_connection(pull_delta_table(phi, omega))
        return _connection_covariance_witness(chart, phi, conn_target, conn_source)

    def tangent_covariance(_):
        phi = gen.invertible_morphism(chart)
        gamma_src = gen.christoffel(chart)
        # ber_from_tangent reads only the diagonal symbols (q, l, q)
        diagonal = [(q, l, q) for l in range(chart.dim) for q in range(chart.dim)]
        gamma_tgt = transform_christoffel(phi, gamma_src, diagonal)
        return _connection_covariance_witness(
            chart, phi, ber_from_tangent(gamma_tgt), ber_from_tangent(gamma_src))

    return _run("bv_flat", trials, [
        ("bv_connection_flat",
         "the connection built from a BV generator table has zero curvature",
         max(10, trials), flatness),
        ("parallel_section_equation",
         "parallelness of h [dxi] is the local equation h Delta(d_k) = d_k(h)",
         trials, parallel_equivalence),
        ("delta_table_round_trip",
         "solving the local equation recovers the table, up to one constant",
         max(5, trials // 3), round_trip),
        ("bv_connection_covariance",
         "the BV connection transforms correctly under coordinate changes",
         max(10, trials // 2), covariance),
        ("tangent_connection_covariance",
         "the induced Berezinian connection transforms with the Christoffel law",
         max(10, trials // 2), tangent_covariance),
    ])


def _connection_covariance_witness(chart, phi, conn_target, conn_source):
    sdet = phi.differential_sdet()
    d_inv = phi.differential_inverse()
    pulled = phi.apply_many(conn_target.coefficients)
    d_sdet = [chart.d(sdet, mrow) for mrow in range(chart.dim)]

    def direction(k):
        pairs = []
        for mrow in range(chart.dim):
            pm = chart.parity(mrow)
            for pc, part in _parts(d_inv.rows[mrow][k]):
                if koszul(pm * pc) < 0:
                    part = -part
                pairs.append((part, d_sdet[mrow]))
                pairs.append((part * conn_source.coefficients[mrow], sdet))
        return _differ(pulled[k] * sdet, dot(chart.sig, pairs))

    return _first_residue(chart.dim, direction)


def suite_sdet_transport(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "sdet_transport")

    def transport(index):
        gamma = gen.christoffel(chart)
        path = gen.formal_path(chart, with_odd_direction=(index % 2 == 0))
        return check_sdet_transport(gamma, path, order=4)["counterexample"]  # None on a pass

    return _run("sdet_transport", trials, [
        ("ber_transport_is_inverse_sdet",
         "Berezinian transport equals the inverse superdeterminant of frame transport",
         max(10, trials // 2), transport),
    ])


def suite_cy_consistency(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "cy_consistency")

    def agree(_):
        h, gamma, _ = gen.cy_scenario(chart)
        return check_cy_consistency(h, gamma)["counterexample"]  # None on a pass

    return _run("cy_consistency", trials, [
        ("two_connections_agree",
         "under the supertrace constraint the BV and tangent-induced connections agree",
         max(10, trials // 2), agree),
    ])


def suite_manin_comparison(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "manin_comparison")

    def round_trip(_):
        sigma = _integral_form(gen, chart)
        return _differ(manin_gamma_inverse(manin_gamma(sigma)), sigma, sigma)

    def anticommute(_):
        sigma = _integral_form(gen, chart)
        return _differ(manin_delta(manin_gamma(sigma)), -manin_gamma(partial_int(sigma)), sigma)

    def squared(_):
        return _nonzero(manin_delta(manin_delta(manin_gamma(_integral_form(gen, chart)))))

    return _run("manin_comparison", trials, [
        ("parity_flip_bijective", "the parity-flip comparison map is a bijection",
         trials, round_trip),
        ("flip_anticommutes_divergence",
         "the flipped divergence anticommutes with the comparison map", trials, anticommute),
        ("flipped_divergence_squared", "the flipped divergence squares to zero", trials, squared),
    ])


def suite_delta_projection(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "delta_projection")

    def projection(_):
        omega = gen.trivialising_section(chart)
        delta = DeltaOperator.from_section(omega)
        if chart.dim < 2:
            raise ValueError("the projection suite needs at least two coordinate directions")
        alpha0 = MultiVectorForm(chart, {((0, 1), ()): chart.coordinate(0)})

        def perturbed(x):
            return extend_delta(delta, x) + schouten(alpha0, x)

        projected = project_strong(perturbed, chart).delta

        def strong(_):
            x, *_ = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
            via_table = extend_delta(projected, x)
            return (_nonzero(extend_delta(projected, via_table), via_table)
                    or _differ(via_table, projected_apply(perturbed, x)))

        residue = _first_residue(chart.dim,
                                 lambda k: _differ(projected.values[k], delta.values[k]))
        return _first_residue(trials, strong) if residue is None else residue

    return _run("delta_projection", trials, [
        ("projection_restores_strong_compatibility",
         "projecting a compatible operator onto its degree-lowering part is "
         "strongly compatible and squares to zero", 1, projection),
    ])


def suite_covariance(chart: Chart, seed: int, trials: int):
    gen = _gen(seed, "covariance")

    def bracket_equivariance(_):
        phi = gen.invertible_morphism(chart)
        a, *_ = gen.homogeneous_mvform(phi.target, max_p=2, max_q=1)
        b, *_ = gen.homogeneous_mvform(phi.target, max_p=1, max_q=1)
        return _differ(pull_mvform(phi, schouten(a, b)),
                       schouten(pull_mvform(phi, a), pull_mvform(phi, b)))

    def functoriality(_):
        phi = gen.invertible_morphism(chart)
        psi = gen.invertible_morphism(phi.target)
        alpha, *_ = gen.homogeneous_mvform(psi.target, max_p=1, max_q=1)
        return _differ(pull_mvform(psi.compose(phi), alpha),
                       pull_mvform(phi, pull_mvform(psi, alpha)))

    def bv_covariance(_):
        phi = gen.invertible_morphism(chart)
        omega = gen.trivialising_section(phi.target)
        alpha, *_ = gen.homogeneous_mvform(phi.target, max_p=2, max_q=1)
        return _differ(pull_mvform(phi, delta_omega(omega, alpha)),
                       delta_omega(pull_ber(phi, omega), pull_mvform(phi, alpha)))

    return _run("covariance", trials, [
        ("schouten_equivariance",
         "the bracket commutes with holomorphic coordinate changes",
         max(10, trials // 2), bracket_equivariance),
        ("pullback_functorial", "pullback respects composition of coordinate changes",
         max(5, trials // 4), functoriality),
        ("bv_operator_covariance",
         "the BV operator of a transported section is the transported operator",
         max(5, trials // 4), bv_covariance),
    ])


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


# The module's own runners, kept as a tuple: a tracer or test double that
# rebinds the registry's entries leaves it as it is, so the two can be compared.
_OWN_RUNNERS = tuple(SUITES.items())


def run_suites(chart: Chart, suites, seed: int, trials: int):
    """Run the named suites; results come in declaration order and are
    deterministic for fixed inputs.

    Each suite draws from its own stream (``_gen``) and shares nothing with
    the others but pure caches, so the suites are spread over the CPUs this
    process may use (see ``_spread``).  They run in this process alone on one
    CPU, without ``os.fork``, when a ``SUITES`` entry is not the module's own
    runner, so that a tracer or test double sees every call, and while other
    threads run, which a forked child would find holding their locks.
    """
    import os
    import sys

    names = list(suites)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(len(names), cpus)
    threading = sys.modules.get("threading")
    if (not hasattr(os, "fork") or tuple(SUITES.items()) != _OWN_RUNNERS
            or threading is not None and threading.active_count() > 1):
        workers = 1
    return _spread(lambda index: SUITES[names[index]](chart, seed, trials), len(names), workers)


def _spread(run, count: int, workers: int) -> list:
    """``run(0) + run(1) + ... + run(count - 1)``, over ``workers`` processes.

    With more than one worker this process forks ``workers - 1`` children and
    works as well: the indices go into one pipe in order and every process
    takes one at a time, which balances the load.  A child sends its results
    back as JSON lines and leaves with ``os._exit``, so it never returns into
    the caller's stack or flushes the stdio buffers it inherited.  Whatever no
    worker returned (a worker died, or ``run`` raised) is run here afterwards,
    in order, so errors are those of a run in this process.
    """
    import json
    import os
    import signal

    done = {}
    pids, pipes = [], []  # the children, and the read ends of their result pipes
    tasks = None
    try:
        if workers > 1:
            tasks, feed = os.pipe()
            os.set_blocking(feed, False)
            try:
                for index in range(count):  # 4 bytes a write, so each write is atomic
                    os.write(feed, index.to_bytes(4, "big"))
            except BlockingIOError:  # the pipe is full: the rest runs below
                pass
            finally:
                os.close(feed)
        for _ in range(workers - 1):
            result_pipe, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: fewer workers
                os.close(result_pipe)
                os.close(out)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(result_pipe)
                    lines = [json.dumps([index, [vars(r) for r in results]]) + "\n"
                             for index, results in _take(run, tasks).items()]
                    with open(out, "w", encoding="utf-8") as stream:
                        stream.writelines(lines)
                    code = 0
                finally:
                    os._exit(code)
            os.close(out)
            pids.append(pid)
            pipes.append(result_pipe)
        if tasks is not None:
            done = _take(run, tasks)
        while pipes:
            with open(pipes.pop(0), encoding="utf-8") as lines:
                for line in lines:
                    try:
                        index, fields = json.loads(line)
                    except ValueError:  # cut short by the worker's death
                        continue
                    done[index] = [CheckResult(**f) for f in fields]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in [tasks, *pipes]:
            if fd is not None:
                os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    results = []
    for index in range(count):
        results.extend(done[index] if index in done else run(index))
    return results


def _take(run, tasks: int) -> dict:
    """Run the indices read from the pipe ``tasks`` until it is empty; an
    index whose run raises is left out for ``_spread`` to run again."""
    import os

    done = {}
    while record := os.read(tasks, 4):
        index = int.from_bytes(record, "big")
        try:
            done[index] = run(index)
        except Exception:
            pass
    return done
