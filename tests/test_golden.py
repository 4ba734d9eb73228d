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
``mvforms`` and ``bvcalc``.  The cap-6 transform and product digests were
recorded from the flat term-product loop that visited every pair of terms
and from a ``pull_mvform`` that built both differentials for every section.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from superbv import cli
from superbv.bvcalc import (
    DeltaOperator,
    check_bv_axioms,
    dbar_int,
    eta,
    eta_inverse,
    extend_delta,
    extend_delta_right,
    manin_delta,
    manin_gamma,
    manin_gamma_inverse,
    partial_int,
    pull_intform,
)
from superbv.charts import BerSection, Chart, Morphism
from superbv.connect import (
    IntegrabilityError,
    check_sdet_transport,
    path_ring,
    solve_delta_formula,
    t_integrate,
    t_truncate,
)
from superbv.dsl import parse
from superbv.jetring import (
    GaussianRational,
    JetError,
    JetSuperFunction,
    RingSignature,
    dot,
    numerators,
)
from superbv.mvforms import MultiVectorForm, dbar, pull_mvform, schouten, wedge
from superbv.samples import SampleGen
from superbv.supermatrix import SuperMatrix, _invert_scalar_matrix, det_even
from oracles import (
    DBAR, FUN, ROOT, SCENARIO_HASHES, VEC, jet_body, normalise_word, odd_pair_unit, render_matrix,
)

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
    (3, 3, 0): "f7e2594e795ec0fc", (3, 3, 1): "04e58d7073c60c35",
    (3, 3, 4): "b19ddd22f4c81ce5", (3, 3, 6): "c631983872ccf92d",
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


# section -> sha256 of the standard output of
# ``superbv transform scenarios/transform_3x3.sbv --map phi --section <section>``,
# recorded from the fixpoint inverse that substituted its whole guess once
# per order; the 3|3 map reaches weights up to cap + 6
TRANSFORM_3X3_DIGESTS = {
    "a": "a296375f8410ac8dd28a8c140c012c5f037d28101aea65ae1e1695e5d1f3e3cf",
    "b": "7fafa151d3337f56d3c3945c1733b35603d86e8b0bbee3cab9205ad367295ca3",
    "c": "687a49ddf0d8b12292d55d4b3e0fc559b3bc2390525f9e3113f7ba408fc78c28",
    "f": "c53c8bb25323471661fa1b76ceae9a2dde4ef32dee372a2902af1a9ce49f5497",
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_3X3_DIGESTS))
def test_transform_3x3(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = ["transform", "scenarios/transform_3x3.sbv", "--map", "phi", "--section", name]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSFORM_3X3_DIGESTS[name]


# section -> sha256 of the standard output of
# ``superbv transform scenarios/odd_pair_map.sbv --map phi --section <section>``,
# recorded when the inverse first charged the odd-pair deficit to every
# image (before, the inverse's precisions collapsed and the command exited 2)
ODD_PAIR_DIGESTS = {
    "f": "6769f1df7f536da87bf8f101adeb292f99e8e7cf65d2daa132d5f1642a4a23b5",
    "v": "250530c6bf660df446c57cd41f302ab881ddbedf3af77bb77af04c15bafcdd88",
    "w": "b75c6b95a2e1a620f207409f522aa61a676eeb6f9b59e1f80747593866281799",
}


@pytest.mark.parametrize("name", sorted(ODD_PAIR_DIGESTS))
def test_odd_pair_transform(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = ["transform", "scenarios/odd_pair_map.sbv", "--map", "phi", "--section", name]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ODD_PAIR_DIGESTS[name]
    scenario = parse((ROOT / "scenarios" / "odd_pair_map.sbv").read_text(encoding="utf-8"))
    section = scenario.sections.get(name)
    if section is None:
        section = MultiVectorForm.from_function(scenario.chart, scenario.functions[name])
    phi = scenario.morphisms["phi"]
    transported = pull_mvform(phi.invert(), section)
    assert out == transported.render() + "\n"
    back = pull_mvform(phi, transported)
    assert back.prec >= 1 and back.agrees_with(section)


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
    unit = even + JetSuperFunction.scalar(sig, GaussianRational.of(2, 1) + -jet_body(even))
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
    return f"{label} [{precs}] [{dens}] {render_matrix(mat)}"


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
                body = GaussianRational.of(*gen._numerators())
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
    body = [[jet_body(e) for e in row] for row in m.rows]
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
    """The inverse of a grid of ``GaussianRational``s, each entry printed as
    its two ``Fraction``s."""
    try:
        inverse = _invert_scalar_matrix([[numerators(x) for x in row] for row in grid])
    except ZeroDivisionError:
        return "singular"
    return "[" + "; ".join(", ".join(f"{Fraction(re, den)}|{Fraction(im, den)}" for re, im, den in row)
                           for row in inverse) + "]"


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


# A generated ring 2|2 cap 6 scenario: dense transforms and dense jet products.
CAP6_SECTIONS = (
    ("section", "bar", "dzb1 * ({}*z1*z2 + {}*th2*thb1 + {}*zb2)"),
    ("section", "vec", "dv(z2) * ({}*z1 + {}*z2^2 + {}*zb1*th1*th2)"),
    ("section", "vec2", "dv(z1) * dv(th2) * ({}*th2 + {}*z2*th1)"),
    ("let", "f", "{}*z1*z2 + {}*th1*th2 + {}*z1^3"),
)
CAP6_MAP = (
    "{}*z1 + {}*z2 + {}*z1^2 + {}*z2*th1*th2 + {}*z1*z2^2",
    "{}*z2 + {}*z1*z2 + {}*z1^3",
    "{}*th1 + {}*z1*th1 + {}*z2*th2",
    "{}*th2 + {}*th1 + {}*z1^2*th2",
)

# section -> first 16 hex digits of the sha256 of _cap6_transform_text(section)
CAP6_TRANSFORM_DIGESTS = {
    "bar": "c92ba324aaf77a13", "vec": "be270092709092e6",
    "vec2": "bf8a85bb54e3e490", "f": "5483868077959363",
}
# first 16 hex digits of the sha256 of _cap6_product_lines()
CAP6_PRODUCT_DIGEST = "dc92ec609f824f5d"


def _cap6_scenario():
    rng = random.Random(6)

    def fill(shape):
        values = []
        for _ in range(shape.count("{}")):
            re, im = rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((-1, 1)) * rng.randint(1, 5)
            values.append(f"({re} + {im}*i)" if im > 0 else f"({re} - {-im}*i)")
        return shape.format(*values)

    lines = ["ring 2|2 cap 6;"]
    lines += [f"{keyword} {name} = {fill(shape)};" for keyword, name, shape in CAP6_SECTIONS]
    images = " ".join(f"zeta{k + 1} = {fill(shape)};" for k, shape in enumerate(CAP6_MAP))
    lines.append(f"map phi {{ {images} }}")
    return "\n".join(lines) + "\n"


def _form_line(label, form):
    coefficients = " ".join(f"{form.terms[key].prec}/{form.terms[key].den}"
                            for key in sorted(form.terms))
    return f"{label} {form.prec} [{coefficients}] {form.render()}"


@pytest.mark.parametrize("name", sorted(CAP6_TRANSFORM_DIGESTS))
def test_cap6_transform(name, tmp_path, capsys):
    text = _cap6_scenario()
    path = tmp_path / "cap6.sbv"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["transform", str(path), "--map", "phi", "--section", name]) == 0
    out = capsys.readouterr().out
    scenario = parse(text)
    section = scenario.sections.get(name)
    if section is None:
        section = MultiVectorForm.from_function(scenario.chart, scenario.functions[name])
    transported = pull_mvform(scenario.morphisms["phi"].invert(), section)
    assert out == transported.render() + "\n"
    assert _digest(out + _form_line(name, transported)) == CAP6_TRANSFORM_DIGESTS[name]


def _cap6_product_lines():
    """``*``, ``dot`` and ``SuperMatrix.inverse`` on the dense entries of the
    inverse map and its Jacobian; the scaled copies mix the denominators."""
    inverse = parse(_cap6_scenario()).morphisms["phi"].invert()
    sig = inverse.source.sig
    jacobian = inverse.differential()
    third = GaussianRational.of(Fraction(1, 3), Fraction(-2, 7))
    entries = list(inverse.pullbacks) + [e for row in jacobian.rows for e in row]
    entries += [e.scale(third) for e in inverse.pullbacks]
    lines = [_jet_line(f"mul {k}", a * b) for k, (a, b) in enumerate(zip(entries, entries[3:]))]
    lines.append(_jet_line("square", entries[0] * entries[0]))
    for k in range(len(entries) - 7):
        lines.append(_jet_line(f"dot {k}", dot(sig, zip(entries[k:k + 4], entries[k + 4:k + 8]))))
    lines.append(_matrix_line("jacobian", jacobian))
    lines.append(_matrix_line("inverse", jacobian.inverse()))
    lines.append(_matrix_line("product", jacobian * jacobian.inverse()))
    return "\n".join(lines)


def test_cap6_products():
    assert _digest(_cap6_product_lines()) == CAP6_PRODUCT_DIGEST


# -- sampled morphisms and normalised words ------------------------------------------
# Recorded from ``SampleGen.invertible_morphism`` with ``GaussianRational``
# linear blocks, a ``Fraction`` Leibniz determinant and linear images folded
# as ``acc + z_k.scale(c)``, and from the insertion-sort ``normalise_word``
# that multiplied its sign by ``commute_sign`` once per adjacent swap and
# started every coefficient product at ``chart.one()``.

MORPHISM_SIGS = ((1, 1), (2, 1), (2, 2), (3, 3))
MORPHISM_SEEDS = range(8)

# (n, m) -> first 16 hex digits of the sha256 of _morphism_lines(n, m)
MORPHISM_DIGESTS = {
    (1, 1): "82964db2cdebc815", (2, 1): "3c51abc6c3a3c0ce",
    (2, 2): "d6510419ee65f3ee", (3, 3): "859bd11e89ac2955",
}
WORD_DIGEST = "43c9fe453638c117"


def _first_draw_singular(seed, n, m):
    """Whether the first linear blocks that ``SampleGen(seed)`` draws for an
    n|m morphism are singular, replayed on a copy of its random stream."""
    rng = random.Random(seed)
    blocks = [[[rng.randint(-1, 1) + (i == k) for k in range(size)] for i in range(size)]
              for size in (n, m)]
    return any(round(_float_det(block), 6) == 0 for block in blocks)


def _float_det(grid):
    size = len(grid)
    if size == 0:
        return 1.0
    return sum((-1) ** k * grid[0][k] * _float_det([row[:k] + row[k + 1:] for row in grid[1:]])
               for k in range(size))


def _morphism_lines(n, m):
    chart = Chart(RingSignature(n, m, 4))
    lines = []
    for seed in MORPHISM_SEEDS:
        gen = SampleGen(seed)
        for label, nonlinear in (("phi", True), ("psi", True), ("lin", False)):
            phi = gen.invertible_morphism(chart, nonlinear=nonlinear)
            lines += [_jet_line(f"{seed} {label} {k}", x) for k, x in enumerate(phi.pullbacks)]
        lines.append(f"{seed} next {gen.rng.random()!r}")
    return "\n".join(lines)


def test_morphism_seeds_hit_the_retry():
    for n, m in MORPHISM_SIGS:
        assert any(_first_draw_singular(seed, n, m) for seed in MORPHISM_SEEDS)
        assert not all(_first_draw_singular(seed, n, m) for seed in MORPHISM_SEEDS)


@pytest.mark.parametrize("n,m", MORPHISM_SIGS)
def test_sampled_morphisms(n, m):
    assert _digest(_morphism_lines(n, m)) == MORPHISM_DIGESTS[(n, m)]


def _crafted_words():
    """(chart, prefactor, items) cases for ``normalise_word``."""
    sig = RingSignature(2, 2, 4)
    chart, tight = Chart(sig), Chart(sig, odd_wedge_cap=2)
    gen = SampleGen(99)
    x = {sig.gen_name(k): JetSuperFunction.gen(sig, k) for k in range(sig.gen_count())}
    q = GaussianRational.of
    even = x["z1"] * x["zb2"] + x["th1"] * x["th2"].scale(q(Fraction(2, 3), 1))
    odd = x["th1"].scale(q(Fraction(-1, 2))) + x["z2"] * x["thb1"]
    mixed = (even + odd).truncate(3)
    unit_low = JetSuperFunction.one(sig, 2)
    one = JetSuperFunction.one(sig)
    zero_low = JetSuperFunction.zero(sig, 1)
    cases = [
        (chart, 1, [(FUN, even)]),
        (chart, 1, [(VEC, 3), (FUN, odd), (DBAR, 2), (VEC, 0), (DBAR, 1)]),
        (chart, -1, [(VEC, 3), (FUN, odd), (DBAR, 2), (VEC, 0), (DBAR, 1)]),
        (chart, 1, [(FUN, mixed), (VEC, 2), (FUN, mixed), (DBAR, 3), (VEC, 1)]),
        (chart, -1, [(VEC, 2), (FUN, odd), (FUN, mixed), (DBAR, 0), (FUN, even)]),
        (chart, 1, [(FUN, zero_low), (VEC, 2)]),
        (chart, 1, [(VEC, 2), (FUN, mixed), (FUN, JetSuperFunction.zero(sig))]),
        (chart, 1, [(DBAR, 0), (VEC, 1), (DBAR, 0), (FUN, even)]),
        (chart, 1, [(VEC, 1), (FUN, odd), (VEC, 1)]),
        (chart, 1, [(VEC, 3), (VEC, 2), (VEC, 3), (FUN, odd), (VEC, 3), (DBAR, 3)]),
        (chart, -1, [(VEC, 3), (VEC, 3), (VEC, 3), (VEC, 3), (FUN, even)]),
        (tight, 1, [(VEC, 3), (VEC, 3), (VEC, 3), (FUN, even)]),
        (tight, -1, [(DBAR, 2), (VEC, 3), (DBAR, 2), (FUN, odd), (VEC, 3)]),
        (chart, 1, [(FUN, unit_low), (VEC, 1), (FUN, even), (DBAR, 2)]),
        (chart, -1, [(FUN, even), (FUN, unit_low), (VEC, 3), (FUN, mixed)]),
        (chart, 1, [(FUN, one), (VEC, 0), (FUN, odd), (FUN, one)]),
        (chart, 1, [(FUN, one), (DBAR, 3)]),
        (chart, -1, [(DBAR, 3), (VEC, 2)]),
        (chart, 1, []),
    ]
    for _ in range(24):
        items = []
        for _ in range(gen.rng.randint(1, 6)):
            kind = gen.rng.choice((DBAR, VEC, FUN))
            if kind == FUN:
                items.append((FUN, gen.jet(sig, max_terms=3).truncate(gen.rng.randint(1, 4))))
            else:
                items.append((kind, gen.rng.randrange(chart.dim)))
        cases.append((gen.rng.choice((chart, tight)), gen.rng.choice((1, -1)), items))
    return cases


def _word_lines():
    lines = []
    for k, (chart, prefactor, items) in enumerate(_crafted_words()):
        out = normalise_word(chart, items, prefactor)
        lines.append(f"word {k} {len(out)}")
        lines += [_jet_line(f"  {key}", out[key]) for key in sorted(out)]
    return "\n".join(lines)


def test_normalised_words():
    assert _digest(_word_lines()) == WORD_DIGEST


# -- the BV-operator path and sample draws -------------------------------------------
# Recorded from the word-based bracket recursion, which built every head and
# rest form through ``from_words`` and summed the terms of a section with
# ``Section.__add__``, from a ``check_bv_axioms`` that evaluated the operator
# on alpha up to six times per sample, and from a ``SampleGen.jet`` that
# summed ``GaussianRational`` coefficients under tuple keys.

BV_SIGS = ((1, 1), (2, 1), (2, 2), (1, 3))

# (n, m) -> first 16 hex digits of the sha256 of _extension_lines(n, m)
EXTENSION_DIGESTS = {
    (1, 1): "3b531693e4eb9a80", (2, 1): "b417855d1c8effa4",
    (2, 2): "af551ead0847da98", (1, 3): "0279be939d773581",
}
# (n, m) -> first 16 hex digits of the sha256 of _axiom_report_lines(n, m)
AXIOM_REPORT_DIGESTS = {
    (1, 1): "429430d0c1e43687", (2, 1): "4a5fcf03ef074ef5",
    (2, 2): "264b98ae4ee52ea5", (1, 3): "052b1172528f3230",
}
# cap -> first 16 hex digits of the sha256 of _draw_lines(cap)
DRAW_DIGESTS = {
    0: "78b5670a323d1d75", 1: "181802c0c3cf648e",
    2: "10b20def9eaa16d7", 6: "2a4b4cde60d0b4eb",
}


def _delta_tables(chart, gen):
    """(label, table) for the unit section, a sampled trivialising section,
    the same section truncated below the cap and a sampled table that no
    section has."""
    sig = chart.sig
    h = gen.unit(sig)
    values = tuple(gen.jet(sig, max_terms=2, max_even_degree=1, parity=chart.parity(k))
                   for k in range(chart.dim))
    return [
        ("unit", DeltaOperator.from_section(BerSection(chart, chart.one()))),
        ("sampled", DeltaOperator.from_section(BerSection(chart, h))),
        ("truncated", DeltaOperator.from_section(BerSection(chart, h.truncate(sig.cap - 1)))),
        ("free", DeltaOperator(chart, values)),
    ]


def _extension_forms(chart, gen):
    """Homogeneous forms, forms with mixed-parity coefficients, a form below
    the cap, a function and a barred differential; draws that come out zero
    are drawn again."""

    def nonzero(draw):
        for _ in range(50):
            form = draw()
            if not form.is_zero():
                return form
        raise AssertionError("no nonzero form drawn")

    forms = [nonzero(lambda: gen.homogeneous_mvform(chart, allow_repeats=True)[0])
             for _ in range(4)]
    forms += [nonzero(lambda: gen.mvform(chart, p, q, max_terms=3, allow_repeats=True))
              for p, q in ((1, 0), (2, 0), (2, 1), (3, 0), (1, 2))]
    low = nonzero(lambda: gen.mvform(chart, 2, 1, parity=1, allow_repeats=True))
    forms.append(MultiVectorForm(chart, {k: c.truncate(2) for k, c in low.terms.items()}))
    forms.append(MultiVectorForm.from_function(chart, gen.jet(chart.sig)))
    forms.append(MultiVectorForm.dbar_basis(chart, chart.dim - 1))
    return forms


def _extension_lines(n, m):
    chart = Chart(RingSignature(n, m, 4))
    gen = SampleGen(8000 + 100 * n + m)
    tables = _delta_tables(chart, gen)
    forms = _extension_forms(chart, gen)
    lines = [_line(f"form{k}", a) for k, a in enumerate(forms)]
    for label, table in tables:
        for k, a in enumerate(forms):
            lines += [_line(f"{label} {k} left", extend_delta(table, a)),
                      _line(f"{label} {k} right", extend_delta_right(table, a))]
    return "\n".join(lines)


@pytest.mark.parametrize("n,m", BV_SIGS)
def test_extended_delta(n, m):
    assert _digest(_extension_lines(n, m)) == EXTENSION_DIGESTS[(n, m)]


def _axiom_samples(gen, chart, count):
    samples = []
    for index in range(count):
        alpha, p, q, pa = gen.homogeneous_mvform(chart, max_p=2, max_q=1)
        beta, r, s, pb = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
        gamma, *_ = gen.homogeneous_mvform(chart, max_p=1, max_q=1)
        samples.append({"alpha": alpha, "beta": beta, "gamma": gamma,
                        "alpha_deg": p + q, "alpha_parity": pa,
                        "beta_deg": r + s, "beta_parity": pb, "seed": 10 * index})
    return samples


def _axiom_report_lines(n, m):
    """Reports, without their timings, for the BV operator of a sampled
    section and four sabotaged operators: scaled by 2, built on a table
    that is not holomorphic, shifted by the bracket with a vector field and
    cut off above total degree 2."""
    chart = Chart(RingSignature(n, m, 4))
    gen = SampleGen(9000 + 100 * n + m)
    delta = DeltaOperator.from_section(gen.trivialising_section(chart))
    zb = JetSuperFunction.gen(chart.sig, chart.sig.zb(0))
    broken = DeltaOperator(chart, (zb,) + tuple(chart.zero() for _ in range(chart.dim - 1)))
    two = GaussianRational.of(2)
    euler = MultiVectorForm.vector(chart, 0, chart.coordinate(0))

    def cut(x):
        # forgets the terms of total degree 3 and up, so it is not of order 2
        kept = {key: c for key, c in x.terms.items() if len(key[0]) + len(key[1]) < 3}
        return extend_delta(delta, MultiVectorForm(chart, kept, x.prec))

    operators = [
        ("real", lambda x: extend_delta(delta, x)),
        ("scaled", lambda x: extend_delta(delta, x).scale(two)),
        ("broken", lambda x: extend_delta(broken, x)),
        ("shifted", lambda x: extend_delta(delta, x) + schouten(euler, x)),
        ("cut", cut),
    ]
    lines = []
    for label, operator in operators:
        report = check_bv_axioms(chart, operator, _axiom_samples(gen, chart, 5))
        for item in report:
            fields = {key: value for key, value in item.items() if key != "elapsed_ms"}
            lines.append(f"{label} {json.dumps(fields, sort_keys=True)}")
    return "\n".join(lines)


@pytest.mark.parametrize("n,m", BV_SIGS)
def test_axiom_reports(n, m):
    assert _digest(_axiom_report_lines(n, m)) == AXIOM_REPORT_DIGESTS[(n, m)]


def _draw_lines(cap):
    """Every kind of ``SampleGen`` draw at ``cap``, then the next number of
    the random stream."""
    lines = []
    for n, m in ((0, 2), (1, 1), (2, 0), (2, 2), (1, 3)):
        sig = RingSignature(n, m, cap)
        chart = Chart(sig)
        gen = SampleGen(500 * cap + 10 * n + m)
        degree = min(2, n)  # even monomials need an even generator
        draws = [gen.jet(sig, max_even_degree=degree),
                 gen.jet(sig, max_terms=6, max_even_degree=degree),
                 gen.jet(sig, max_terms=6, max_even_degree=degree, holomorphic=True),
                 gen.jet(sig, max_terms=4, max_even_degree=degree, parity=0),
                 gen.jet(sig, max_terms=4, max_even_degree=degree, parity=int(m > 0)),
                 gen.jet(sig, max_terms=4, max_even_degree=degree, allow_constant=False)]
        if n:
            draws += [gen.unit(sig), gen.unit(sig, holomorphic=False)]
        lines += [_jet_line(f"{n}|{m} jet{k}", x) for k, x in enumerate(draws)]
        if n and m:
            lines += [_line(f"{n}|{m} mvform", gen.mvform(chart, 1, 1)),
                      _line(f"{n}|{m} mvform_odd", gen.mvform(chart, 2, 0, parity=1, max_terms=3)),
                      _line(f"{n}|{m} mvform_hol", gen.mvform(chart, 0, 2, holomorphic_coeff=True,
                                                               allow_repeats=True))]
            form, p, q, parity = gen.homogeneous_mvform(chart)
            lines.append(_line(f"{n}|{m} homogeneous {p} {q} {parity}", form))
        lines.append(f"{n}|{m} next {gen.rng.random()!r}")
    return "\n".join(lines)


@pytest.mark.parametrize("cap", (0, 1, 2, 6))
def test_sample_draws(cap):
    assert _digest(_draw_lines(cap)) == DRAW_DIGESTS[cap]


# -- the local BV formula, path integration and the inverse's body --------------------
# Recorded from the monomial walk of ``solve_delta_formula`` that read every
# coefficient of h * Delta(d/dxi^k) through ``coefficient()``, from
# ``t_integrate`` and ``t_truncate`` on ``items()`` and ``GaussianRational``s,
# and from a ``SuperMatrix.inverse`` that inverted the body as a grid of
# ``GaussianRational``s.  The charts sit at the degree cap's edge, where a
# solve that cut its sums at a table entry's precision loses terms.

# (n, m, cap) -> first 16 hex digits of the sha256 of _delta_formula_lines(n, m, cap)
DELTA_FORMULA_DIGESTS = {
    (0, 2, 2): "3ede3395aab2570b", (0, 3, 3): "cd0687d4602c9834",
    (1, 1, 1): "b3897ee1b6f33977", (1, 2, 2): "56533a2a8773d959",
    (2, 0, 3): "7ad1119cfcabd873", (2, 2, 4): "95fa357e76da926d",
}
# first 16 hex digits of the sha256 of _path_integral_lines()
PATH_INTEGRAL_DIGEST = "bb7df6b4b5d5c449"
# first 16 hex digits of the sha256 of _inverse_body_lines()
INVERSE_BODY_DIGEST = "636090cf5cc3a82c"


def _formula_tables(chart, gen):
    """(label, table): the unit section, sampled sections, one below the cap
    and one with a non-integer body, then tables with one entry perturbed:
    by a coordinate term, doubled, by a barred generator and, where there
    is an even direction, by a constant (which stays integrable)."""
    sig = chart.sig
    sections = [BerSection(chart, chart.one())]
    for _ in range(3):
        sections.append(gen.trivialising_section(chart) if sig.n
                        else BerSection(chart, odd_pair_unit(chart, gen)))
    h = sections[-1].coefficient
    sections.append(BerSection(chart, h.truncate(max(0, sig.cap - 1))))
    sections.append(BerSection(chart, h.scale(GaussianRational.of(Fraction(2, 3), 1))))
    tables = [(f"section{k}", DeltaOperator.from_section(s)) for k, s in enumerate(sections)]
    base = tables[1][1].values
    last = chart.dim - 1
    x0 = chart.coordinate(0)
    perturbed = [
        ("coordinate", last, x0 * chart.coordinate(last) if sig.n else x0),
        ("double", last, base[last]),
        ("barred", 0, JetSuperFunction.gen(sig, chart.bar_gen_id(0))),
    ]
    if sig.n:
        perturbed.append(("constant", 0, JetSuperFunction.scalar(sig, GaussianRational.of(1, 2))))
    for label, k, extra in perturbed:
        values = list(base)
        values[k] = values[k] + extra
        tables.append((label, DeltaOperator(chart, tuple(values))))
    return tables


def _delta_formula_lines(n, m, cap):
    chart = Chart(RingSignature(n, m, cap))
    gen = SampleGen(7000 + 100 * n + 10 * m + cap)
    lines = []
    for label, table in _formula_tables(chart, gen):
        lines += [_jet_line(f"{label} table {k}", v) for k, v in enumerate(table.values)]
        try:
            lines.append(_jet_line(f"{label} h", solve_delta_formula(table)))
        except IntegrabilityError as error:
            lines.append(f"{label} error {type(error).__name__} {error}")
    return "\n".join(lines)


@pytest.mark.parametrize("n,m,cap", sorted(DELTA_FORMULA_DIGESTS))
def test_delta_formula(n, m, cap):
    assert _digest(_delta_formula_lines(n, m, cap)) == DELTA_FORMULA_DIGESTS[(n, m, cap)]


def _path_integral_lines():
    """``t_integrate`` and ``t_truncate`` on sampled path-ring jets, full and
    below the cap, with scaled copies that mix the denominators, then the
    transport check that runs both."""
    gen = SampleGen(7700)
    third = GaussianRational.of(Fraction(1, 3), Fraction(-2, 5))
    lines = []
    for odd_params, order in ((0, 2), (1, 3), (2, 4), (3, 1)):
        ring = path_ring(odd_params, order)
        for k in range(4):
            f = gen.jet(ring, max_terms=5, max_even_degree=min(3, ring.cap))
            for label, x in ((f"{k}", f), (f"{k}t", f.truncate(ring.cap - 1 - k % 2)),
                             (f"{k}s", f.scale(third))):
                lines.append(_jet_line(f"{odd_params}|{order} {label} f", x))
                lines.append(_jet_line(f"{odd_params}|{order} {label} int", t_integrate(x)))
                lines.append(_jet_line(f"{odd_params}|{order} {label} int2",
                                       t_integrate(t_integrate(x))))
                lines += [_jet_line(f"{odd_params}|{order} {label} cut{o}", t_truncate(x, o))
                          for o in range(ring.cap + 1)]
    for n, m in ((1, 1), (2, 1), (1, 2)):
        chart = Chart(RingSignature(n, m, 3))
        for nilpotent in (True, False):
            path = gen.formal_path(chart, odd_params=2, order=3)
            gamma = gen.christoffel(chart, nilpotent=nilpotent)
            lines.append(f"{n}|{m} {nilpotent} {check_sdet_transport(gamma, path, 3)}")
    return "\n".join(lines)


def test_path_integrals():
    assert _digest(_path_integral_lines()) == PATH_INTEGRAL_DIGEST


def _inverse_body_lines():
    """``SuperMatrix.inverse`` of matrices whose bodies are the scalar grids
    of ``_body_inverse_lines`` (zero pivots, non-integer and complex entries,
    singular blocks) plus sampled nilpotent parts, over block shapes (p|q)."""
    q = GaussianRational.of
    half, third = Fraction(1, 2), Fraction(1, 3)
    blocks = {
        1: [[[q(half, -third)]], [[q(0)]], [[q(3)]]],
        2: [[[q(0), q(1)], [q(1), q(0)]], [[q(1), q(2)], [q(2), q(4)]],
            [[q(third, 1), q(half)], [q(-half, third), q(Fraction(2, 7))]]],
        3: [[[q(0), q(0, 1), q(1)], [q(2), q(1), q(0)], [q(1), q(0), q(half)]]],
    }
    gen = SampleGen(7800)
    lines = []
    for p, qq in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (0, 3), (2, 0)):
        sig = RingSignature(max(p, 1), 2, 3)
        for a_body in blocks.get(p, [[]]):
            for d_body in blocks.get(qq, [[]]):
                size = p + qq
                rows = []
                for i in range(size):
                    row = []
                    for j in range(size):
                        parity = (i >= p) ^ (j >= p)
                        entry = gen.jet(sig, max_terms=2, max_even_degree=1, parity=parity,
                                        allow_constant=False)
                        if not parity:
                            body = a_body[i][j] if i < p else d_body[i - p][j - p]
                            entry = entry + JetSuperFunction.scalar(sig, body)
                        row.append(entry)
                    rows.append(row)
                mat = SuperMatrix(sig, p, qq, rows)
                label = f"{p}|{qq}"
                lines.append(_matrix_line(f"{label} m", mat))
                lines.append(_guarded(f"{label} inv", mat.inverse, _matrix_line))
    return "\n".join(lines)


def test_inverse_bodies():
    assert _digest(_inverse_body_lines()) == INVERSE_BODY_DIGEST


# -- pullback, dbar and the BV peel on stored keys ------------------------------------
# Recorded from a ``pull_mvform`` and a ``dbar`` that built one formal word per
# choice of matrix entries (or per barred derivative) and normalised it through
# ``normalise_word``, and from an ``extend_delta`` that sorted each key outside
# normal form through ``normalise_word`` on a chart with a wider odd cap.  The
# lines list every stored key in insertion order.

STORED_SIGS = ((1, 1), (2, 1), (2, 2), (1, 3))

# (n, m) -> first 16 hex digits of the sha256 of _pullback_lines(n, m)
PULLBACK_DIGESTS = {
    (1, 1): "d189dbc9e4dfdae9", (2, 1): "b66a086eb9a01c44",
    (2, 2): "768e410ccde7a16c", (1, 3): "4157e0e211b9790d",
}
# (n, m) -> first 16 hex digits of the sha256 of _dbar_lines(n, m)
DBAR_DIGESTS = {
    (1, 1): "04bfd9288b941bff", (2, 1): "52ddc69c7074c200",
    (2, 2): "b506863597d0f3cf", (1, 3): "c9b7900229790077",
}
# (n, m) -> first 16 hex digits of the sha256 of _off_normal_lines(n, m)
OFF_NORMAL_DIGESTS = {
    (1, 1): "507270334a81679c", (2, 1): "5f208d1f64a17a4c",
    (2, 2): "34d5bbf653664664", (1, 3): "e082d9d4aed6a5c2",
}


def _stored_line(label, form):
    """The section's ``prec``, then each key in insertion order with its
    coefficient's ``prec``, ``den`` and rendering."""
    terms = " ".join(f"{key}:{c.prec}/{c.den}/{c.render()}" for key, c in form.terms.items())
    return f"{label} {form.prec} {terms}"


def _stored_keys(chart):
    """Two- and three-symbol keys with barred and vector indices: sorted,
    unsorted, with an even index repeated and with the last (odd) index
    repeated up to one past a cap of 2."""
    n, last = chart.sig.n, chart.dim - 1
    return [((), ()), ((0,), (last,)), ((last,), (0,)), ((), (0, last)), ((0, last), ()),
            ((last, last), ()), ((), (last, last)), ((0,), (0,)), ((0, last), (last,)),
            ((), (0, last, last)), ((last,), (last, last)), ((last, last), (0,)),
            ((), (last, last, last)), ((last, 0), (last,)), ((), (last, 0)), ((), (0, 0)),
            ((n - 1, 0), (last, n))]


def _stored_coefficients(gen, sig):
    """Mixed-parity, odd, holomorphic, truncated and unit coefficients; draws
    that come out zero are drawn again."""

    def nonzero(**shape):
        for _ in range(50):
            jet = gen.jet(sig, **shape)
            if jet.terms:
                return jet
        raise AssertionError("no nonzero jet drawn")

    return [nonzero(max_terms=4), nonzero(max_terms=3, parity=1),
            nonzero(max_terms=3, holomorphic=True), nonzero(max_terms=4).truncate(2),
            nonzero(max_terms=3).truncate(1), JetSuperFunction.one(sig),
            JetSuperFunction.one(sig, 2)]


def _stored_sections(chart, gen):
    """One section per key and coefficient, then sections of several keys
    below the cap."""
    coefficients = _stored_coefficients(gen, chart.sig)
    keys = _stored_keys(chart)
    forms = [MultiVectorForm(chart, {key: coefficients[k % len(coefficients)]})
             for k, key in enumerate(keys)]
    for prec in (chart.sig.cap, 2):
        terms = dict(zip(keys[1::3], _stored_coefficients(gen, chart.sig)))
        forms.append(MultiVectorForm(chart, terms, prec))
    return forms


def _pullback_lines(n, m):
    """``pull_mvform`` through a sampled map, the same map truncated and the
    truncated map with its last image zero, whose barred column is then zero."""
    sig = RingSignature(n, m, 4)
    gen = SampleGen(9100 + 10 * n + m)
    chart = Chart(sig, odd_wedge_cap=2)
    phi = gen.invertible_morphism(chart)
    cut = Morphism(phi.source, phi.target, [x.truncate(3 - k % 2) for k, x in enumerate(phi.pullbacks)])
    flat = Morphism(phi.source, phi.target, cut.pullbacks[:-1] + (JetSuperFunction.zero(sig),))
    lines = []
    for label, psi in (("phi", phi), ("cut", cut)):
        for k, a in enumerate(_stored_sections(psi.target, gen)):
            lines.append(_stored_line(f"{label} {k}", pull_mvform(psi, a)))
    for k, a in enumerate(_stored_sections(flat.target, gen)):
        if not any(vecs for _, vecs in a.terms):
            lines.append(_stored_line(f"flat {k}", pull_mvform(flat, a)))
    return "\n".join(lines)


def _dbar_lines(n, m):
    sig = RingSignature(n, m, 4)
    gen = SampleGen(9200 + 10 * n + m)
    lines = []
    for cap in (1, 2, 3):
        chart = Chart(sig, odd_wedge_cap=cap)
        lines += [_stored_line(f"{cap} {k}", dbar(a))
                  for k, a in enumerate(_stored_sections(chart, gen))]
    return "\n".join(lines)


def _off_normal_lines(n, m):
    """``extend_delta`` and ``extend_delta_right`` on sections whose keys
    fall outside normal form, for each kind of table."""
    sig = RingSignature(n, m, 4)
    gen = SampleGen(9300 + 10 * n + m)
    chart = Chart(sig, odd_wedge_cap=2)
    forms = _stored_sections(chart, gen)
    lines = []
    for label, table in _delta_tables(chart, gen):
        for k, a in enumerate(forms):
            lines += [_stored_line(f"{label} {k} left", extend_delta(table, a)),
                      _stored_line(f"{label} {k} right", extend_delta_right(table, a))]
    return "\n".join(lines)


@pytest.mark.parametrize("n,m", STORED_SIGS)
def test_pullbacks_on_stored_keys(n, m):
    assert _digest(_pullback_lines(n, m)) == PULLBACK_DIGESTS[(n, m)]


@pytest.mark.parametrize("n,m", STORED_SIGS)
def test_dbar_on_stored_keys(n, m):
    assert _digest(_dbar_lines(n, m)) == DBAR_DIGESTS[(n, m)]


@pytest.mark.parametrize("n,m", STORED_SIGS)
def test_extension_off_normal_form(n, m):
    assert _digest(_off_normal_lines(n, m)) == OFF_NORMAL_DIGESTS[(n, m)]
