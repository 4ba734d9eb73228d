"""Connections in local coordinates: Christoffel data, Berezinian connections,
curvature, formal parallel transport and the Calabi-Yau consistency checks.

Everything is stored in the complex picture on the holomorphic tangent
directions.  A Berezinian connection is the family of coefficients A_k with

    nabla_k [dxi] = A_k . [dxi]

The two constructions of such a connection, from a BV generator table
(A_k = -Delta(d/dxi^k)) and from tangent Christoffel symbols
(A_l = -str of the right-symbol matrix), are independent code paths; their
agreement on constrained data is the local Calabi-Yau consistency theorem.

Paths are formal polynomials in an even parameter t with coefficients in an
auxiliary odd-parameter ring, so all transport statements stay exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .bvcalc import DeltaOperator
from .charts import Chart, ChartError, Morphism
from .grading import koszul
from .jetring import JetSuperFunction, RingSignature, _accumulate, _finish, dot, jet_sum
from .supermatrix import SuperMatrix


class ConnectionError(ChartError):
    pass


@dataclass(frozen=True)
class Christoffel:
    """Left Christoffel symbols: nabla_k d/dxi^l = Gamma^q_(k l) . d/dxi^q.

    ``symbols`` maps (q, k, l) to a holomorphic superfunction; absent keys
    are zero.  The right symbols differ by the parity twist that moves the
    coefficient across the coordinate derivation.
    """

    chart: Chart
    symbols: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (q, k, l), value in self.symbols.items():
            want = (self.chart.parity(q) + self.chart.parity(k) + self.chart.parity(l)) % 2
            if not value.is_zero() and value.parity() != want:
                raise ConnectionError(f"symbol ({q},{k},{l}) must have parity {want}")

    def left(self, q: int, k: int, l: int) -> JetSuperFunction:
        return self.symbols.get((q, k, l), self.chart.zero())

    def right(self, q: int, k: int, l: int) -> JetSuperFunction:
        """Right symbol: Gamma^q_(kl) . d_q = d_q . RGamma^q_(kl)."""
        value = self.left(q, k, l)
        parity = (self.chart.parity(q) + self.chart.parity(k) + self.chart.parity(l)) % 2
        if koszul(parity * self.chart.parity(q)) < 0:
            return -value
        return value

    def is_holomorphic(self) -> bool:
        return all(v.is_holomorphic() for v in self.symbols.values())


@dataclass(frozen=True)
class BerConnection:
    """Coefficients A_k of a connection on the Berezinian line bundle."""

    chart: Chart
    coefficients: tuple

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.chart.dim:
            raise ConnectionError("need one coefficient per coordinate direction")
        for k, value in enumerate(self.coefficients):
            if not value.is_zero() and value.parity() != self.chart.parity(k):
                raise ConnectionError(f"coefficient {k} must have parity {self.chart.parity(k)}")


def bv_connection(delta: DeltaOperator) -> BerConnection:
    """Connection induced by a BV generator table: A_k = -Delta(d/dxi^k)."""
    return BerConnection(delta.chart, tuple(-v for v in delta.values))


def ber_from_tangent(gamma: Christoffel) -> BerConnection:
    """Connection induced on the Berezinian by a tangent connection.

    A_l is minus the supertrace of the right-symbol matrix in the direction
    l.  The covariant-derivative operator along an odd direction is odd, and
    the supertrace of an odd operator in right-coefficient convention carries
    the twist (-1)^(|q|(1 + |l|)); the plain alternating-sign supertrace only
    applies along even directions.  The choice is pinned by the transport
    comparison suite at two odd directions, where the alternatives diverge.
    """
    chart = gamma.chart
    coeffs = []
    for l in range(chart.dim):
        pl = chart.parity(l)
        entries = []
        for q in range(chart.dim):
            entry = gamma.right(q, l, q)
            entries.append(entry if koszul(chart.parity(q) * (1 + pl)) > 0 else -entry)
        coeffs.append(-jet_sum(chart.sig, entries))
    return BerConnection(chart, tuple(coeffs))


def delta_from_tangent(gamma: Christoffel) -> DeltaOperator:
    """Generator table str(RGamma_(k .)) read off a tangent connection."""
    conn = ber_from_tangent(gamma)
    return DeltaOperator(gamma.chart, tuple(-a for a in conn.coefficients))


def transform_christoffel(phi: Morphism, gamma: Christoffel, keys=None) -> Christoffel:
    """Transport Christoffel symbols from the source chart to the target chart.

    Implements the displayed transformation law with its parity signs; the
    independent oracle in the tests transports nabla_X Y componentwise
    through the pullbacks instead.  The law is evaluated as three
    contractions, each over one summed index and each one ``dot``, a sign
    being a negated factor:

        inner[m,q,l] = sum_n (-1)^(|q||n|) Gamma^q_(m n) dinv[n][l] + (-1)^|q| d_m dinv[q][l]
        right[m,p,l] = sum_q (-1)^(|q||l| + |p|(|p|+|q|)) inner[m,q,l] d[p][q]
        acc[p,k,l]   = sum_m (-1)^(|m|(|m|+|k|)) dinv[m][k] right[m,p,l]

    A summand whose factor ``inner`` or ``dinv[m][k]`` has no terms is left
    out, so its precision never lowers the sum; a contraction with no
    summands at all is left out of the next one in the same way.

    ``keys`` names the target symbols (q, k, l) to compute; by default all
    of them.  Each symbol computed does not depend on which others are,
    since one symbol's pullback is the same in any batch.
    """
    if gamma.chart != phi.source:
        raise ConnectionError("symbols live on the wrong chart for this morphism")
    source, target = phi.source, phi.target
    d = phi.differential()
    d_inv = phi.differential_inverse()
    dim = source.dim
    sig = source.sig
    wanted: dict = {}  # l -> p -> the k wanted for symbol (p, k, l)
    for p_idx, k_idx, l_idx in itertools.product(range(dim), repeat=3) if keys is None else keys:
        wanted.setdefault(l_idx, {}).setdefault(p_idx, set()).add(k_idx)
    accs = {}
    for l_idx, by_p in sorted(wanted.items()):
        pl = target.parity(l_idx)
        inner = [[_christoffel_inner(source, gamma, d_inv, m_idx, q_idx, l_idx)
                  for q_idx in range(dim)] for m_idx in range(dim)]
        for p_idx, k_set in sorted(by_p.items()):
            pp = target.parity(p_idx)
            right = []
            for m_idx in range(dim):
                pairs = []
                for q_idx in range(dim):
                    value = inner[m_idx][q_idx]
                    if value is None:
                        continue
                    pq = source.parity(q_idx)
                    sign = koszul(pq * pl + pp * (pp + pq))
                    pairs.append((value if sign > 0 else -value, d.rows[p_idx][q_idx]))
                right.append(dot(sig, pairs) if pairs else None)
            for k_idx in sorted(k_set):
                pk = target.parity(k_idx)
                pairs = []
                for m_idx in range(dim):
                    left = d_inv.rows[m_idx][k_idx]
                    if right[m_idx] is None or left.is_zero():
                        continue
                    pm = source.parity(m_idx)
                    pairs.append((left if koszul(pm * (pm + pk)) > 0 else -left, right[m_idx]))
                acc = dot(sig, pairs)
                if not acc.is_zero():
                    accs[(p_idx, k_idx, l_idx)] = acc
    found = sorted(accs)
    pulled = phi.invert().apply_many(accs[key] for key in found)
    return Christoffel(target, dict(zip(found, pulled)))


def _christoffel_inner(source, gamma, d_inv, m_idx, q_idx, l_idx):
    """First contraction of the Christoffel law; None when it has no terms."""
    pq = source.parity(q_idx)
    pairs = []
    for n_idx in range(source.dim):
        sym = gamma.left(q_idx, m_idx, n_idx)
        if sym.is_zero():
            continue
        if koszul(pq * source.parity(n_idx)) < 0:
            sym = -sym
        pairs.append((sym, d_inv.rows[n_idx][l_idx]))
    hessian = source.d(d_inv.rows[q_idx][l_idx], m_idx)
    inner = dot(source.sig, pairs) + (hessian if koszul(pq) > 0 else -hessian)
    return None if inner.is_zero() else inner


def curvature_ber(conn: BerConnection):
    """Curvature of a Berezinian connection over holomorphic direction pairs.

    The quadratic terms are kept even though they cancel identically; the
    cancellation is re-derived numerically rather than assumed.
    """
    chart = conn.chart
    out = {}
    for l in range(chart.dim):
        pl = chart.parity(l)
        for m in range(chart.dim):
            pm = chart.parity(m)
            a_l, a_m = conn.coefficients[l], conn.coefficients[m]
            second = chart.d(a_l, m)
            quad_one = a_m * a_l
            quad_two = a_l * a_m
            if koszul(pl * pm) < 0:
                second = -second
                quad_one = -quad_one
            out[(l, m)] = jet_sum(chart.sig, (chart.d(a_m, l), -second, quad_one, -quad_two))
    return out


def curvature_ber_mixed(conn: BerConnection):
    """Mixed curvature components against the barred directions.

    The (0,1)-part of the connection is dbar, so the mixed curvature is just
    the barred derivative of the coefficients; nonzero exactly when they fail
    to be holomorphic.
    """
    chart = conn.chart
    return {
        (k, l): chart.dbar(conn.coefficients[l], k)
        for k in range(chart.dim)
        for l in range(chart.dim)
    }


def is_flat(conn: BerConnection) -> bool:
    holo = all(v.is_zero() for v in curvature_ber(conn).values())
    mixed = all(v.is_zero() for v in curvature_ber_mixed(conn).values())
    return holo and mixed


# -- the local parallel-section equation -----------------------------------------


class IntegrabilityError(ConnectionError):
    pass


def solve_delta_formula(delta: DeltaOperator) -> JetSuperFunction:
    """Solve h . Delta(d/dxi^k) = d_k(h) for h with h(0) = 1.

    Cross-derivative consistency of the table is checked first; the solution
    is then built weight by weight in the holomorphic subring and verified.
    The weight of a monomial is its even degree plus its number of odd
    generators; Euler's identity sum_k xi^k d_k h_w = w h_w and d_k h =
    h Delta_k give

        w h_w = sum_k xi^k sum_(u < w) h_u (Delta_k)_(w-1-u)

    with one ``dot`` per direction and weight, truncated at the cap and not
    at the precision of Delta_k: an even coordinate times a factor known
    through p is known through p + 1.  An entry cut below the precision the
    others imply reads as zero past its own, in every direction, so such a
    table can fail the verification.
    """
    chart = delta.chart
    sig = chart.sig
    for value in delta.values:
        if not value.is_holomorphic():
            raise IntegrabilityError("table entries must be holomorphic")
    for l in range(chart.dim):
        for k in range(chart.dim):
            lhs = chart.d(delta.values[k], l)
            rhs = chart.d(delta.values[l], k)
            if koszul(chart.parity(l) * chart.parity(k)) < 0:
                rhs = -rhs
            if not lhs.agrees_with(rhs):
                raise IntegrabilityError("cross-derivative consistency fails; no local solution")

    layout, cap = sig._layout, sig.cap
    shift, odd_mask = layout.shift, layout.odd_mask
    # weight parts of each table entry, with the cap's precision
    table = []
    for value in delta.values:
        parts: dict = {}
        for key, numerators in value.terms.items():
            parts.setdefault((key >> shift) + (key & odd_mask).bit_count(), {})[key] = numerators
        table.append({w: _finish(sig, terms, value.den, cap) for w, terms in parts.items()})
    coordinates = [chart.coordinate(k) for k in range(chart.dim)]
    h_parts = [JetSuperFunction.one(sig)]
    for w in range(1, cap + sig.m + 1):
        pairs = []
        for coordinate, by_weight in zip(coordinates, table):
            inner = [(part, by_weight[w - 1 - u]) for u, part in enumerate(h_parts)
                     if w - 1 - u in by_weight]
            if inner:
                pairs.append((coordinate, dot(sig, inner)))
        h_parts.append(dot(sig, pairs).scale_numerators(1, 0, w))
    h = jet_sum(sig, h_parts)
    for k in range(chart.dim):
        if not chart.d(h, k).agrees_with(h * delta.values[k]):
            raise IntegrabilityError("solution verification failed")
    return h


# -- formal paths and parallel transport ------------------------------------------


def path_ring(odd_params: int, order: int) -> RingSignature:
    """Ring of t-polynomials over the auxiliary odd parameters.

    The single even generator is the path parameter t; precision tracks
    t-degree, with headroom above the requested transport order.
    """
    return RingSignature(n=1, m=odd_params, cap=order + 2)


@dataclass(frozen=True)
class FormalPath:
    """A formal path: one component polynomial per coordinate direction.

    Components live in a path ring, are polynomials in t = z1 and the odd
    parameters eta_j = th_j, have matching parity, and vanish at t = 0.
    """

    chart: Chart
    ring: RingSignature
    components: tuple

    def __post_init__(self) -> None:
        if len(self.components) != self.chart.dim:
            raise ConnectionError("need one component per coordinate direction")
        for k, comp in enumerate(self.components):
            if comp.sig != self.ring:
                raise ConnectionError("component lives in the wrong path ring")
            if not comp.is_zero() and comp.parity() != self.chart.parity(k):
                raise ConnectionError(f"component {k} must have parity {self.chart.parity(k)}")
            if 0 in comp.terms:
                raise ConnectionError("paths must start at the base point")

    def velocity(self, k: int) -> JetSuperFunction:
        return self.components[k].partial(0)

    def evaluate(self, f: JetSuperFunction) -> JetSuperFunction:
        """Substitute the path components into a holomorphic chart function."""
        if not f.is_holomorphic():
            raise ConnectionError("paths evaluate holomorphic data only")
        sig = self.chart.sig
        images = [None] * sig.gen_count()
        for k in range(self.chart.dim):
            images[self.chart.gen_id(k)] = self.components[k]
        return f.substitute(images, self.ring)


def t_integrate(f: JetSuperFunction) -> JetSuperFunction:
    """Integrate in the path parameter with zero constant term: each term
    moves one step up in t and is divided by its new exponent, over one
    denominator; terms past the new precision are dropped."""
    layout = f.sig._layout
    step, offset, mask = layout.steps[0], layout.offsets[0], layout.field_mask
    terms, den = {}, 1
    for key, numerators in f.terms.items():
        key += step
        den = _accumulate(terms, den, {key: numerators}, f.den * (key >> offset & mask))
    return _finish(f.sig, terms, den, min(f.sig.cap, f.prec + 1))


def transport_generator(gamma: Christoffel, path: FormalPath) -> SuperMatrix:
    """Right-hand-side matrix W of the transport equation d_t P = W . P:

    W^m_k = -(-1)^(|m|(|k|+1)) d_t(gamma*(xi^l)) gamma*(Gamma^m_(l k)).
    """
    if not gamma.is_holomorphic():
        raise ConnectionError("transport needs holomorphic Christoffel data")
    chart = gamma.chart
    ring = path.ring
    dim = chart.dim
    w_rows = [[JetSuperFunction.zero(ring) for _ in range(dim)] for _ in range(dim)]
    for m_idx in range(dim):
        pm = chart.parity(m_idx)
        for k_idx in range(dim):
            pk = chart.parity(k_idx)
            pairs = []
            for l_idx in range(dim):
                sym = gamma.left(m_idx, l_idx, k_idx)
                if not sym.is_zero():
                    pairs.append((path.velocity(l_idx), path.evaluate(sym)))
            acc = dot(ring, pairs)
            w_rows[m_idx][k_idx] = acc if koszul(pm * (pk + 1)) < 0 else -acc
    return SuperMatrix(ring, chart.sig.n, chart.sig.m, w_rows)


def transport_tangent(gamma: Christoffel, path: FormalPath, order: int) -> SuperMatrix:
    """Solve the parallel-transport equation for the tangent frame,
    degree by degree in t with P(0) = 1."""
    w = transport_generator(gamma, path)
    chart = gamma.chart
    return solve_transport(w, path.ring, chart.sig.n, chart.sig.m, order)


def solve_transport(w: SuperMatrix, ring, p, q, order) -> SuperMatrix:
    """Picard iteration for d_t P = W . P, P(0) = identity."""
    identity = SuperMatrix.identity(ring, p, q)
    current = identity
    for _ in range(order + 1):
        integrated = [[t_integrate(e) for e in row] for row in (w * current).rows]
        current = identity + SuperMatrix(ring, p, q, integrated)
    return current


def transport_ber(conn: BerConnection, path: FormalPath, order: int) -> JetSuperFunction:
    """Parallel transport of the Berezinian frame along the path."""
    chart = conn.chart
    ring = path.ring
    pairs = []
    for l in range(chart.dim):
        coeff = conn.coefficients[l]
        if coeff.is_zero():
            continue
        if not coeff.is_holomorphic():
            raise ConnectionError("transport needs holomorphic connection data")
        pairs.append((path.velocity(l), path.evaluate(coeff)))
    w = -dot(ring, pairs)
    current = JetSuperFunction.one(ring)
    for _ in range(order + 1):
        current = JetSuperFunction.one(ring) + t_integrate(w * current)
    return current


def t_truncate(f: JetSuperFunction, order: int) -> JetSuperFunction:
    """The terms of ``f`` of degree at most ``order`` in the path parameter."""
    layout = f.sig._layout
    offset, mask = layout.offsets[0], layout.field_mask
    terms = {key: value for key, value in f.terms.items() if key >> offset & mask <= order}
    return _finish(f.sig, terms, f.den, f.prec)


def check_sdet_transport(gamma: Christoffel, path: FormalPath, order: int) -> dict:
    """Compare the Berezinian transport with sdet of the tangent transport.

    Asserts P_ber = sdet(P_tangent)^-1 as t-series up to the stated order.
    """
    tangent = transport_tangent(gamma, path, order)
    sdet_inv = tangent.sdet().invert()
    ber = transport_ber(ber_from_tangent(gamma), path, order)
    lhs = t_truncate(sdet_inv, order)
    rhs = t_truncate(ber, order)
    ok = lhs.agrees_with(rhs)
    return {
        "status": "pass" if ok else "fail",
        "counterexample": None if ok else (lhs - rhs).render(),
    }


def check_cy_consistency(h: JetSuperFunction, gamma: Christoffel) -> dict:
    """Local consistency of the two Berezinian connections.

    Given a holomorphic even unit h and tangent symbols whose supertrace
    one-form matches d_k(h) h^-1, the connection from the BV table of
    h . [dxi] and the one induced by the tangent connection must agree, with
    h . [dxi] parallel for both.
    """
    chart = gamma.chart
    from .charts import BerSection

    omega = BerSection(chart, h)
    if not omega.is_trivialising() or not h.is_holomorphic():
        return {"status": "error", "counterexample": "h must be an even holomorphic unit"}
    table = DeltaOperator.from_section(omega)
    str_table = delta_from_tangent(gamma)
    for k in range(chart.dim):
        if not table.values[k].agrees_with(str_table.values[k]):
            return {
                "status": "error",
                "counterexample": f"supertrace constraint violated in direction {k}",
            }
    nabla_delta = bv_connection(table)
    nabla_ber = ber_from_tangent(gamma)
    for k in range(chart.dim):
        gap = nabla_delta.coefficients[k] - nabla_ber.coefficients[k]
        if not gap.is_zero():
            return {"status": "fail", "counterexample": gap.render()}
        residual = chart.d(h, k) + h * nabla_ber.coefficients[k]
        if not residual.is_zero():
            return {"status": "fail", "counterexample": residual.render()}
    return {"status": "pass", "counterexample": None}
