"""Golden outputs of the jet ring, the supermatrix layer and the CLI.

The jet values below were recorded from the straightforward tuple-keyed jet
kernel with one ``Fraction`` pair per term, the supermatrix values from
the ``Fraction`` Gauss-Jordan body inverse with products folded as
``acc + a*b``, and the section values from three separate section classes
that each spelled out their own sums.  A change to any layer must
reproduce all of them byte for byte: the scenario determinism hashes
(which cover only check verdicts), the rendered text of the CLI, digests
of ``prec`` and ``render()`` of every jet operation on sampled jets over a
range of signatures and degree caps, digests of ``prec``, ``den`` and
``render()`` of supermatrix products, inverses and superdeterminants, and
digests of ``prec`` and ``render()`` of the section operations of
``mvforms`` and ``bvcalc``.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from superbv import cli
from superbv.bvcalc import (
    dbar_int,
    eta,
    eta_inverse,
    manin_delta,
    manin_gamma,
    manin_gamma_inverse,
    partial_int,
    pull_intform,
)
from superbv.charts import Chart
from superbv.jetring import GaussianRational, JetError, JetSuperFunction, RingSignature
from superbv.mvforms import dbar, schouten, wedge
from superbv.samples import SampleGen
from superbv.supermatrix import SuperMatrix, _invert_scalar_matrix, det_even

ROOT = Path(__file__).resolve().parent.parent

SCENARIO_HASHES = {
    "default": "399b01be921f725c06afbcb1d32ab12f106abf899a31c5df8a7f6ad5471c4e8f",
    "two_one": "9c14ba17d9c1cc8ad3fc3e64243dd714a4d289ea002e34784fd9187301649c34",
    "two_two": "cb088cb1482a07337dcdf65fd1d441b47318a4ef948ad7c860769e416077a3f6",
}

TRANSFORM_A = (
    "dzb1 * dv(z1) * (1 + th1*thb1 - 2*zb1 - 3*zb1*th1*thb1 + 2*z1 + z1*th1*thb1"
    " + 6*zb1^2 + 10*zb1^2*th1*thb1 - 4*z1*zb1 - 3*z1*zb1*th1*thb1 - 2*z1^2"
    " - 2*z1^2*th1*thb1 - 20*zb1^3 - 35*zb1^3*th1*thb1 + 12*z1*zb1^2"
    " + 10*z1*zb1^2*th1*thb1 + 4*z1^2*zb1 + 6*z1^2*zb1*th1*thb1 + 4*z1^3"
    " + 5*z1^3*th1*thb1) + dzb1 * dv(th1) * (-th1 + 2*zb1*th1 + z1*th1"
    " - 6*zb1^2*th1 - 2*z1*zb1*th1 - 2*z1^2*th1 + 20*zb1^3*th1 + 6*z1*zb1^2*th1"
    " + 4*z1^2*zb1*th1 + 5*z1^3*th1)\n"
)
TRANSFORM_B = "dv(th1) * (th1)\n"
EVAL_H = "-1 + z1^2\n"

# (n, m, cap) -> first 16 hex digits of the sha256 of _jet_lines(n, m, cap)
JET_DIGESTS = {
    (0, 1, 0): "0614527764e6df55", (0, 1, 1): "edad4d091b006c35",
    (0, 1, 4): "fd98da2e17efd1fa", (0, 1, 6): "e012e2ee3ccb447c",
    (1, 0, 0): "a7adbde5f60a9db9", (1, 0, 1): "1de8da5f50f0cbf8",
    (1, 0, 4): "8930d87f9c296cef", (1, 0, 6): "839e4c84f79cd8f0",
    (1, 1, 0): "e3e23c58451eb158", (1, 1, 1): "b1eed4b2cc7de445",
    (1, 1, 4): "088556da821c6ecb", (1, 1, 6): "a89b3c83756691c9",
    (2, 1, 0): "62de4b98f42e8892", (2, 1, 1): "eaf64b855f1864b1",
    (2, 1, 4): "632429fe3998dad4", (2, 1, 6): "a1a111d245cdd7be",
    (2, 2, 0): "3c8ae6d75ff69496", (2, 2, 1): "5eddb0e12cb98cee",
    (2, 2, 4): "eeb558059eba2558", (2, 2, 6): "6466197672e3923d",
    (3, 3, 0): "f7e2594e795ec0fc", (3, 3, 1): "eab110c1e8fc02aa",
    (3, 3, 4): "1cbd4c5535a4c0cd", (3, 3, 6): "c631983872ccf92d",
}

MIXED_DIGEST = "5435080f1e508f03"


@pytest.mark.parametrize("name", sorted(SCENARIO_HASHES))
def test_scenario_hash(name, tmp_path, monkeypatch, capsys):
    # the scenario path enters the hash, so run from the repository root
    monkeypatch.chdir(ROOT)
    report = tmp_path / "report.json"
    code = cli.main(["verify", f"scenarios/{name}.sbv", "--json", str(report)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(report.read_text())["determinism_hash"] == SCENARIO_HASHES[name]


@pytest.mark.parametrize("argv,expected", [
    (["transform", "scenarios/default.sbv", "--map", "phi", "--section", "a"], TRANSFORM_A),
    (["transform", "scenarios/default.sbv", "--map", "phi", "--section", "b"], TRANSFORM_B),
    (["eval", "scenarios/default.sbv", "--expr", "h^2 - 2*h"], EVAL_H),
])
def test_cli_text(argv, expected, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def _line(label, x):
    return f"{label} {x.prec} {x.render()}"


def _images(gen, sig):
    """Images of every generator with matching parity."""
    images = []
    for gid in range(sig.gen_count()):
        parity = sig.gen_parity(gid)
        image = gen.jet(sig, max_terms=2, max_even_degree=min(2, sig.n), parity=parity,
                        allow_constant=False)
        if image.is_zero():
            image = JetSuperFunction.gen(sig, gid)
        images.append(image)
    return images


def _jet_lines(n, m, cap):
    sig = RingSignature(n, m, cap)
    gen = SampleGen(1000 * n + 100 * m + cap)
    degree = min(2, n)  # SampleGen draws even monomials only when n > 0
    f, g, h = (gen.jet(sig, max_terms=4, max_even_degree=degree) for _ in range(3))
    lines = [_line("f", f), _line("g", g), _line("h", h)]
    lines.append(_line("f*g", f * g))
    lines.append(_line("g*f", g * f))
    lines.append(_line("(f*g)*h", (f * g) * h))
    lines.append(_line("f+g", f + g))
    lines.append(_line("f-g", f - g))
    lines.append(_line("f-f", f - f))
    lines.append(_line("-h", -h))
    lines.append(_line("scale", f.scale(GaussianRational.of(Fraction(2, 3), Fraction(-1, 2)))))
    lines.append(_line("scale0", f.scale(GaussianRational.of(0))))
    for gid in range(sig.gen_count()):
        lines.append(_line(f"d{gid}", (f * g).partial(gid)))
    lines.append(_line("conj", (f * h).conjugate()))
    even, odd = (f * g + h).homogeneous_parts()
    lines += [_line("even", even), _line("odd", odd)]
    unit = even + JetSuperFunction.scalar(sig, GaussianRational.of(2, 1) - even.body())
    lines.append(_line("inv", unit.invert()))
    lines.append(_line("inv_t", unit.truncate(max(0, cap - 1)).invert()))
    lines.append(_line("subst", (f * g + h).substitute(_images(gen, sig), sig)))
    lines.append(_line("trunc", (f * g).truncate(1)))
    one = JetSuperFunction.one(sig)
    dense = (one + f + g) * (one + g + h) * (one + h + f)
    lines += [_line("dense", dense), _line("dense^2", dense * dense),
              _line("dense_conj", dense.conjugate()), _line("dense_d", dense.partial(0))]
    agree = [
        (f * g).agrees_with(f * g + (h * h).truncate(0) - (h * h).truncate(0)),
        f.agrees_with(f.truncate(1)),
        (f * g).truncate(1).agrees_with(f.truncate(1) * g),
        even.agrees_with(odd),
    ]
    lines.append("agrees " + " ".join(str(a) for a in agree))
    return "\n".join(lines)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("n,m,cap", sorted(JET_DIGESTS))
def test_jet_operations(n, m, cap):
    assert _digest(_jet_lines(n, m, cap)) == JET_DIGESTS[(n, m, cap)]


def _mixed_lines():
    """Jets whose coefficients have different denominators."""
    sig = RingSignature(2, 1, 4)
    gid = {sig.gen_name(k): k for k in range(sig.gen_count())}
    x = {name: JetSuperFunction.gen(sig, k) for name, k in gid.items()}
    q = GaussianRational.of
    a = JetSuperFunction.scalar(sig, q(Fraction(1, 3), Fraction(1, 6)))
    b = JetSuperFunction.scalar(sig, q(Fraction(2, 5)))
    f = a + x["z1"].scale(q(Fraction(2, 5))) + (x["th1"] * x["thb1"]).scale(q(0, Fraction(-3, 4)))
    g = b + x["zb2"].scale(q(Fraction(1, 7), 2)) - x["z1"] * x["z2"]
    items = [a, b, a + b, a * b, f, g, f * g, f - f.scale(q(Fraction(1, 2))), f.invert(),
             g.invert(), (f * g).invert(), f.conjugate(), (f * g).partial(gid["z1"]),
             (f * g).partial(gid["thb1"]), f.scale(q(6)), f.scale(q(Fraction(1, 6), 0)),
             f.truncate(0), (f * g).truncate(1)]
    return "\n".join(_line(str(k), x) for k, x in enumerate(items))


def test_mixed_denominators():
    assert _digest(_mixed_lines()) == MIXED_DIGEST


# (p, q, cap) -> first 16 hex digits of the sha256 of _matrix_lines(p, q, cap)
SUPERMATRIX_DIGESTS = {
    (1, 1, 2): "b60b0b99162700cd", (1, 1, 4): "39eefa1b4bbfddd1",
    (1, 1, 6): "c7c9a60b4dd2b9cd", (2, 1, 2): "d98bfed3fda9c99f",
    (2, 1, 4): "35440d8f8d6c90a4", (2, 1, 6): "86a78717a70b5ea2",
    (2, 2, 2): "afc35b370be2ecf8", (2, 2, 4): "1b37618ceaa50427",
    (2, 2, 6): "fd9c94c2227b858e", (0, 2, 2): "20264b7ee8bd7e61",
    (0, 2, 4): "dff92666d651843a", (0, 2, 6): "58e579d07e52e235",
    (2, 0, 2): "00b6b5db74b7f5c8", (2, 0, 4): "f4140c0bef8b935f",
    (2, 0, 6): "223718422777bc2a", (3, 3, 2): "201d4a66367b4eb1",
    (3, 3, 4): "349eab5a3765036c", (3, 3, 6): "1f86f2ae91450433",
}

BODY_INVERSE_DIGEST = "cb2c448deaa2f04b"


def _matrix_line(label, mat):
    precs = " ".join(str(e.prec) for row in mat.rows for e in row)
    dens = " ".join(str(e.den) for row in mat.rows for e in row)
    return f"{label} [{precs}] [{dens}] {mat.render()}"


def _jet_line(label, x):
    return f"{label} {x.prec} {x.den} {x.render()}"


def _sampled_matrix(gen, sig, p, q):
    """An even (p|q) matrix with sampled bodies, nilpotent parts, entries
    truncated below the cap and zero entries of differing precisions."""
    size = p + q
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            parity = (i >= p) ^ (j >= p)
            draw = gen.rng.random()
            if draw < 0.2 and i != j:
                row.append(JetSuperFunction.zero(sig, gen.rng.randint(0, sig.cap)))
                continue
            entry = gen.jet(sig, max_terms=2, max_even_degree=min(2, sig.cap), parity=parity,
                            allow_constant=False)
            if not parity:
                body = gen.scalar()
                if i == j:
                    body = body + GaussianRational.of(3)
                entry = entry + JetSuperFunction.scalar(sig, body)
            if draw > 0.8:
                entry = entry.truncate(gen.rng.randint(0, sig.cap))
            row.append(entry)
        rows.append(row)
    return SuperMatrix(sig, p, q, rows)


def _guarded(label, thunk, line):
    try:
        return line(label, thunk())
    except JetError as error:
        return f"{label} error {type(error).__name__}"


def _matrix_lines(p, q, cap):
    sig = RingSignature(1, 2, cap)
    gen = SampleGen(10000 * p + 1000 * q + cap)
    m, n = _sampled_matrix(gen, sig, p, q), _sampled_matrix(gen, sig, p, q)
    lines = [_matrix_line("m", m), _matrix_line("n", n),
             _matrix_line("m*n", m * n), _matrix_line("n*m", n * m),
             _matrix_line("(m*n)*m", (m * n) * m)]
    body = m.body_matrix()
    lines.append("body_inv " + _scalar_grid_text(body))
    for label, mat in (("m", m), ("n", n), ("m*n", m * n)):
        lines.append(_guarded(f"inv {label}", mat.inverse, _matrix_line))
        lines.append(_guarded(f"sdet {label}", mat.sdet, _jet_line))
        lines.append(_guarded(f"sdet_a {label}", mat.sdet_via_a_block, _jet_line))
    lines.append(_guarded("inv(m)*n", lambda: m.inverse() * n, _matrix_line))
    lines.append(_guarded("sdet inv(m)", lambda: m.inverse().sdet(), _jet_line))
    lines.append(_jet_line("det_a", det_even(sig, m.blocks()[0])))
    lines.append(_jet_line("det_d", det_even(sig, m.blocks()[3])))
    return "\n".join(lines)


def _scalar_grid_text(grid):
    try:
        inverse = _invert_scalar_matrix(grid)
    except ZeroDivisionError:
        return "singular"
    return "[" + "; ".join(", ".join(f"{x.re}|{x.im}" for x in row) for row in inverse) + "]"


def _body_inverse_lines():
    """Scalar grids: 0x0, singular, zero leading pivots, non-integer entries."""
    q = GaussianRational.of
    half, third = Fraction(1, 2), Fraction(1, 3)
    grids = [
        [],
        [[q(0)]],
        [[q(half, -third)]],
        [[q(1), q(2)], [q(2), q(4)]],
        [[q(0), q(1)], [q(1), q(0)]],
        [[q(0), q(0, 1), q(1)], [q(2), q(1), q(0)], [q(1), q(0), q(half)]],
        [[q(third, 1), q(half)], [q(-half, third), q(Fraction(2, 7))]],
        [[q(1), q(1), q(1)], [q(1), q(1), q(1)], [q(0), q(0), q(1)]],
    ]
    gen = SampleGen(4242)
    for size in range(1, 6):
        for _ in range(6):
            grids.append([[q(gen.rng.randint(-4, 4), gen.rng.randint(-2, 2))
                           / q(gen.rng.randint(1, 6)) if gen.rng.random() < 0.7 else q(0)
                           for _ in range(size)] for _ in range(size)])
    return "\n".join(_scalar_grid_text(grid) for grid in grids)


@pytest.mark.parametrize("p,q,cap", sorted(SUPERMATRIX_DIGESTS))
def test_supermatrix_operations(p, q, cap):
    assert _digest(_matrix_lines(p, q, cap)) == SUPERMATRIX_DIGESTS[(p, q, cap)]


def test_body_inverse():
    assert _digest(_body_inverse_lines()) == BODY_INVERSE_DIGEST


# (n, m) -> first 16 hex digits of the sha256 of _section_lines(n, m)
SECTION_DIGESTS = {
    (1, 1): "0354151c288723f2",
    (2, 1): "54ef61075b6521d5",
    (2, 2): "caec19b8e04d79f1",
}

SECTION_REPRS = {
    "mvform": "<mvform dthb1 * (2*th1*thb1)>",
    "intform": "<intform dthb1 * (2*th1*thb1 + 6*z1^2*th1*thb1) * [dxi]>",
    # recorded with the shared section base; before it this class had only
    # the default object repr, which shows a memory address
    "symform": "<symform dthb1 * [dxi] * (2*th1*thb1 + 6*z1^2*th1*thb1)>",
}


def _section_forms(n, m):
    """A morphism, a trivialising section on its target and sampled sections
    there, some with repeated keys drawn so that coefficients cancel."""
    chart = Chart(RingSignature(n, m, 4))
    gen = SampleGen(7000 + 100 * n + m)
    phi = gen.invertible_morphism(chart)
    target = phi.target
    omega = gen.trivialising_section(target)
    forms = [gen.homogeneous_mvform(target, allow_repeats=True)[0] for _ in range(3)]
    forms += [gen.mvform(target, p, q, max_terms=5) for p, q in ((1, 0), (2, 1), (1, 1))]
    return gen, chart, phi, omega, forms


def _section_lines(n, m):
    gen, chart, phi, omega, forms = _section_forms(n, m)
    lines = [_line(f"form{k}", a) for k, a in enumerate(forms)]
    for k, (a, b) in enumerate(zip(forms, forms[1:] + forms[:1])):
        lines += [_line(f"{k} a+b", a + b), _line(f"{k} a-b", a - b), _line(f"{k} a-a", a - a),
                  _line(f"{k} -a", -a), _line(f"{k} scale", a.scale(GaussianRational.of(2, -1))),
                  _line(f"{k} wedge", wedge(a, b)), _line(f"{k} dbar", dbar(a)),
                  _line(f"{k} schouten", schouten(a, b))]
        sigma, other = eta(omega, a), eta(omega, b)
        tau = manin_gamma(sigma)
        lines += [_line(f"{k} eta", sigma), _line(f"{k} eta_inverse", eta_inverse(omega, sigma)),
                  _line(f"{k} partial_int", partial_int(sigma)),
                  _line(f"{k} partial_int_drop", partial_int(sigma, drop_form_sign=True)),
                  _line(f"{k} dbar_int", dbar_int(sigma)),
                  _line(f"{k} pull_intform", pull_intform(phi, sigma)),
                  _line(f"{k} s+o", sigma + other), _line(f"{k} s-o", sigma - other),
                  _line(f"{k} -s", -sigma),
                  _line(f"{k} manin_gamma", tau),
                  _line(f"{k} manin_gamma_inverse", manin_gamma_inverse(tau)),
                  _line(f"{k} manin_delta", manin_delta(tau)),
                  _line(f"{k} manin_delta_drop", manin_delta(tau, drop_form_sign=True)),
                  _line(f"{k} t+t", tau + manin_gamma(other)), _line(f"{k} -t", -tau)]
        agree = [a.agrees_with(b), a.agrees_with(a + (b - b)), sigma.agrees_with(other),
                 manin_gamma_inverse(tau).agrees_with(sigma), tau.agrees_with(tau + (-tau))]
        lines.append(f"{k} agrees " + " ".join(str(x) for x in agree))
    for label, nilpotent in (("christoffel", False), ("christoffel_nil", True)):
        symbols = gen.christoffel(chart, max_terms=3, nilpotent=nilpotent).symbols
        lines += [_line(f"{label} {key}", symbols[key]) for key in sorted(symbols)]
    return "\n".join(lines)


@pytest.mark.parametrize("n,m", sorted(SECTION_DIGESTS))
def test_section_operations(n, m):
    assert _digest(_section_lines(n, m)) == SECTION_DIGESTS[(n, m)]


def test_section_repr():
    _, _, _, omega, forms = _section_forms(1, 1)
    alpha = forms[0]
    assert repr(alpha) == SECTION_REPRS["mvform"]
    assert repr(eta(omega, alpha)) == SECTION_REPRS["intform"]
    assert repr(manin_gamma(eta(omega, alpha))) == SECTION_REPRS["symform"]
