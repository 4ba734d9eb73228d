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

from dataclasses import dataclass, field

from .bvcalc import DeltaOperator
from .charts import Chart, ChartError, Morphism
from .grading import koszul
from .jetring import GR_ONE, GaussianRational, JetSuperFunction, RingSignature
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
        if (parity * self.chart.parity(q)) % 2:
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
        acc = chart.zero()
        for q in range(chart.dim):
            entry = gamma.right(q, l, q)
            if (chart.parity(q) * (1 + pl)) % 2:
                acc = acc - entry
            else:
                acc = acc + entry
        coeffs.append(-acc)
    return BerConnection(chart, tuple(coeffs))


def delta_from_tangent(gamma: Christoffel) -> DeltaOperator:
    """Generator table str(RGamma_(k .)) read off a tangent connection."""
    conn = ber_from_tangent(gamma)
    return DeltaOperator(gamma.chart, tuple(-a for a in conn.coefficients))


def covariant_derivative(gamma: Christoffel, x_col, y_col):
    """nabla_X Y for coefficient columns, via the Leibniz rule.

    Columns use right components as everywhere else; internally both are
    rewritten with left coefficients, where the covariant derivative reads

        nabla_X (g . d_l) = X(g) . d_l + (-1)^(|X| |g|) g . nabla_X d_l
    """
    chart = gamma.chart
    from .charts import vector_apply

    out_left = [chart.zero() for _ in range(chart.dim)]
    for l in range(chart.dim):
        comp = y_col[l]
        if comp.is_zero():
            continue
        pl = chart.parity(l)
        for part in comp.homogeneous_parts():
            if part.is_zero():
                continue
            g = part if (pl * part.parity()) % 2 == 0 else -part
            # first Leibniz term
            out_left[l] = out_left[l] + vector_apply(chart, x_col, g)
            # second: g . nabla_X d_l with X expanded in left components
            for k in range(chart.dim):
                xk = x_col[k]
                if xk.is_zero():
                    continue
                pk = chart.parity(k)
                for xpart in xk.homogeneous_parts():
                    if xpart.is_zero():
                        continue
                    xg = xpart if (pk * xpart.parity()) % 2 == 0 else -xpart
                    x_parity = (pk + xpart.parity()) % 2
                    lead = g * xg
                    if (x_parity * part.parity()) % 2:
                        lead = -lead
                    for q in range(chart.dim):
                        sym = gamma.left(q, k, l)
                        if sym.is_zero():
                            continue
                        out_left[q] = out_left[q] + lead * sym
    # back to right components
    out = []
    for q in range(chart.dim):
        pq = chart.parity(q)
        acc = chart.zero()
        for part in out_left[q].homogeneous_parts():
            if part.is_zero():
                continue
            acc = acc + (part if koszul(pq * part.parity()) > 0 else -part)
        out.append(acc)
    return out


def transform_christoffel(phi: Morphism, gamma: Christoffel) -> Christoffel:
    """Transport Christoffel symbols from the source chart to the target chart.

    Implements the displayed transformation law with its parity signs; the
    independent oracle in the tests transports nabla_X Y componentwise
    through the pullbacks instead.  The law is evaluated as three
    contractions, each over one summed index:

        inner[m,q,l] = sum_n (-1)^(|q||n|) Gamma^q_(m n) dinv[n][l] + (-1)^|q| d_m dinv[q][l]
        right[m,p,l] = sum_q (-1)^(|q||l| + |p|(|p|+|q|)) inner[m,q,l] d[p][q]
        acc[p,k,l]   = sum_m (-1)^(|m|(|m|+|k|)) dinv[m][k] right[m,p,l]

    A summand whose factor ``inner`` or ``dinv[m][k]`` has no terms is left
    out, so its precision never lowers the sum; a contraction with no
    summands at all is left out of the next one in the same way.
    """
    if gamma.chart != phi.source:
        raise ConnectionError("symbols live on the wrong chart for this morphism")
    source, target = phi.source, phi.target
    d = phi.differential()
    d_inv = phi.differential_inverse()
    dim = source.dim
    accs = {}
    for l_idx in range(dim):
        pl = target.parity(l_idx)
        inner = [[_christoffel_inner(source, gamma, d_inv, m_idx, q_idx, l_idx)
                  for q_idx in range(dim)] for m_idx in range(dim)]
        for p_idx in range(dim):
            pp = target.parity(p_idx)
            right = []
            for m_idx in range(dim):
                total = None
                for q_idx in range(dim):
                    value = inner[m_idx][q_idx]
                    if value is None:
                        continue
                    pq = source.parity(q_idx)
                    term = value * d.rows[p_idx][q_idx]
                    if (pq * pl + pp * (pp + pq)) % 2:
                        term = -term
                    total = term if total is None else total + term
                right.append(total)
            for k_idx in range(dim):
                pk = target.parity(k_idx)
                acc = source.zero()
                for m_idx in range(dim):
                    left = d_inv.rows[m_idx][k_idx]
                    if right[m_idx] is None or left.is_zero():
                        continue
                    pm = source.parity(m_idx)
                    term = left * right[m_idx]
                    if (pm * (pm + pk)) % 2:
                        term = -term
                    acc = acc + term
                if not acc.is_zero():
                    accs[(p_idx, k_idx, l_idx)] = acc
    keys = sorted(accs)
    pulled = phi.invert().apply_many(accs[key] for key in keys)
    return Christoffel(target, dict(zip(keys, pulled)))


def _christoffel_inner(source, gamma, d_inv, m_idx, q_idx, l_idx):
    """First contraction of the Christoffel law; None when it has no terms."""
    pq = source.parity(q_idx)
    inner = source.zero()
    for n_idx in range(source.dim):
        sym = gamma.left(q_idx, m_idx, n_idx)
        if sym.is_zero():
            continue
        term = sym * d_inv.rows[n_idx][l_idx]
        if (pq * source.parity(n_idx)) % 2:
            term = -term
        inner = inner + term
    hessian = source.d(d_inv.rows[q_idx][l_idx], m_idx)
    if pq % 2:
        hessian = -hessian
    inner = inner + hessian
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
            value = chart.d(a_m, l)
            second = chart.d(a_l, m)
            quad_one = a_m * a_l
            quad_two = a_l * a_m
            if (pl * pm) % 2:
                second = -second
                quad_one = -quad_one
            value = value - second + quad_one - quad_two
            out[(l, m)] = value
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
    is then built degree by degree in the holomorphic subring and verified.
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
            if (chart.parity(l) * chart.parity(k)) % 2:
                rhs = -rhs
            if not lhs.agrees_with(rhs):
                raise IntegrabilityError("cross-derivative consistency fails; no local solution")

    n, m, cap = sig.n, sig.m, sig.cap
    coeffs = {((0,) * sig.even_count, ()): GR_ONE}

    def monomials_of_degree(total):
        """Holomorphic monomials with even degree + odd count = total."""
        out = []

        def even_vectors(degree, length):
            if length == 0:
                if degree == 0:
                    yield ()
                return
            for head in range(degree + 1):
                for tail in even_vectors(degree - head, length - 1):
                    yield (head,) + tail

        import itertools

        for even_degree in range(0, min(total, cap) + 1):
            odd_count = total - even_degree
            if odd_count > m:
                continue
            for zexp in even_vectors(even_degree, n):
                exps = zexp + (0,) * n
                for subset in itertools.combinations(range(m), odd_count):
                    out.append((exps, subset))
        return out

    def product_coeff(target_key, u: JetSuperFunction):
        """Coefficient of target_key in h * u, with h known so far."""
        texp, todd = target_key
        acc = GaussianRational.of(0)
        for (hexp, hodd), hc in coeffs.items():
            uexp = tuple(t - h for t, h in zip(texp, hexp))
            if any(e < 0 for e in uexp):
                continue
            hset = set(hodd)
            if not hset.issubset(todd):
                continue
            uodd = tuple(sorted(set(todd) - hset))
            uc = u.coefficient(uexp, uodd)
            if not uc:
                continue
            # Koszul sign of merging h's odd part with u's odd part
            inv = sum(1 for a in hodd for b in uodd if a > b)
            value = hc * uc
            if inv % 2:
                value = -value
            acc = acc + value
        return acc

    for total in range(1, cap + m + 1):
        for key in monomials_of_degree(total):
            exps, odd = key
            if sum(exps) > cap:
                continue
            first_even = next((i for i in range(n) if exps[i] > 0), None)
            if first_even is not None:
                u = delta.values[first_even]
                lower = (exps[:first_even] + (exps[first_even] - 1,) + exps[first_even + 1:], odd)
                value = product_coeff(lower, u) / GaussianRational.of(exps[first_even])
            else:
                j = odd[0]
                u = delta.values[n + j]
                lower = (exps, odd[1:])
                value = product_coeff(lower, u)
            if value:
                coeffs[key] = value

    h = JetSuperFunction(sig, coeffs)
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
            if comp.body():
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
    """Integrate in the path parameter with zero constant term."""
    terms = {}
    for exps, odd, coeff in f.items():
        new_exp = exps[0] + 1
        terms[((new_exp,) + exps[1:], odd)] = coeff / GaussianRational.of(new_exp)
    return JetSuperFunction(f.sig, terms, min(f.sig.cap, f.prec + 1))


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
            acc = JetSuperFunction.zero(ring)
            for l_idx in range(dim):
                sym = gamma.left(m_idx, l_idx, k_idx)
                if sym.is_zero():
                    continue
                term = path.velocity(l_idx) * path.evaluate(sym)
                if (pm * (pk + 1)) % 2:
                    term = -term
                acc = acc - term
            w_rows[m_idx][k_idx] = acc
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
    w = JetSuperFunction.zero(ring)
    for l in range(chart.dim):
        coeff = conn.coefficients[l]
        if coeff.is_zero():
            continue
        if not coeff.is_holomorphic():
            raise ConnectionError("transport needs holomorphic connection data")
        w = w - path.velocity(l) * path.evaluate(coeff)
    current = JetSuperFunction.one(ring)
    for _ in range(order + 1):
        current = JetSuperFunction.one(ring) + t_integrate(w * current)
    return current


def t_truncate(f: JetSuperFunction, order: int) -> JetSuperFunction:
    terms = {(exps, odd): c for exps, odd, c in f.items() if exps[0] <= order}
    return JetSuperFunction(f.sig, terms, f.prec)


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
