"""Scenario language: a small expression DSL for superfunctions, sections,
Berezinian sections and coordinate changes, plus the deterministic renderer.

Grammar sketch::

    ring 2|1 cap 4;
    seed 7; trials 25;
    let h = 1 + z1 + 2*z1*z2;
    section a = dzb1 * dv(z1) * (1 + th1*thb1);
    let w = (1 + z1) [dxi];
    map phi { zeta1 = z1 + z1^2; zeta2 = z2; zeta3 = (1 + z1)*th1; }
    suite tian_todorov;

A ``ring`` without ``cap`` truncates at ``jetring.DEFAULT_CAP``.

Expressions use +, -, *, / (scalars only), ^ (integer power, or wedge
between sections), the imaginary unit i, ring generators z1, zb1, th1,
thb1, form generators dzb1/dthb1, vector generators dv(z1), and the
Berezinian basis token [dxi].  parse(render(x)) reproduces x for every
value the language can denote.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .charts import BerSection, Chart, Morphism
from .jetring import DEFAULT_CAP, GR_I, GaussianRational, JetSuperFunction, RingSignature
from .mvforms import MultiVectorForm, wedge


# ^ with an integer exponent: the largest exponent accepted, and the largest
# bit size a scalar power's coefficients may reach, so that a literal power
# evaluates in bounded time
MAX_EXPONENT = 1024
MAX_POWER_BITS = 1 << 16


class ScenarioError(Exception):
    """Parse or validation failure, with source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<gen>(?:dzb|dthb|zb|thb|z|th)\^?\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<int>\d+)
  | (?P<punct>\(|\)|\{|\}|\[|\]|;|\||\^|\+|-|\*|/|=)
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(source: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        match = TOKEN_RE.match(source, pos)
        if match is None:
            raise ScenarioError(f"unexpected character {source[pos]!r}", line, col)
        text = match.group(0)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = match.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass
class Scenario:
    signature: RingSignature
    chart: Chart
    functions: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)
    ber_sections: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    suites: list = field(default_factory=list)
    seed: int = 0
    trials: int = 25

    def lookup(self, name: str):
        for table in (self.functions, self.sections, self.ber_sections, self.morphisms):
            if name in table:
                return table[name]
        return None


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.scenario: Scenario | None = None

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token.text != text:
            raise ScenarioError(f"expected {text!r}, found {token.text!r}", token.line, token.column)
        return self.advance()

    def expect_int(self) -> int:
        token = self.peek()
        if token.kind != "int":
            raise ScenarioError(f"expected an integer, found {token.text!r}", token.line, token.column)
        self.advance()
        return int(token.text)

    def expect_name(self) -> str:
        token = self.peek()
        if token.kind != "name":
            raise ScenarioError(f"expected a name, found {token.text!r}", token.line, token.column)
        self.advance()
        return token.text

    # -- statements ---------------------------------------------------------

    def parse(self) -> Scenario:
        token = self.peek()
        if token.text != "ring":
            raise ScenarioError("a scenario must start with a ring statement",
                                token.line, token.column)
        self.advance()
        n = self.expect_int()
        self.expect("|")
        m = self.expect_int()
        cap = DEFAULT_CAP
        if self.peek().text == "cap":
            self.advance()
            cap = self.expect_int()
        self.expect(";")
        sig = RingSignature(n=n, m=m, cap=cap)
        self.scenario = Scenario(signature=sig, chart=Chart(sig))
        while self.peek().kind != "eof":
            self.statement()
        return self.scenario

    def statement(self) -> None:
        token = self.peek()
        handlers = {
            "let": self.let_stmt,
            "section": self.section_stmt,
            "map": self.map_stmt,
            "suite": self.suite_stmt,
            "seed": self.seed_stmt,
            "trials": self.trials_stmt,
        }
        handler = handlers.get(token.text)
        if handler is None:
            raise ScenarioError(f"unknown statement {token.text!r}", token.line, token.column)
        self.advance()
        handler()

    def _fresh_name(self, name: str, token: Token) -> None:
        # an expression reads i as the imaginary unit and dv as dv(...)
        if name in ("i", "dv"):
            raise ScenarioError(f"name {name!r} is reserved", token.line, token.column)
        if self.scenario.lookup(name) is not None:
            raise ScenarioError(f"name {name!r} is already defined", token.line, token.column)

    def _optional_equals(self) -> None:
        if self.peek().text == "=":
            self.advance()

    def let_stmt(self) -> None:
        token = self.peek()
        name = self.expect_name()
        self._fresh_name(name, token)
        self.expect("=")
        value = self.eval_expr(self.expr())
        self.expect(";")
        if isinstance(value, GaussianRational):
            value = JetSuperFunction.scalar(self.scenario.signature, value)
        if isinstance(value, JetSuperFunction):
            self.scenario.functions[name] = value
        elif isinstance(value, BerSection):
            self.scenario.ber_sections[name] = value
        elif isinstance(value, MultiVectorForm):
            self.scenario.sections[name] = value
        else:
            raise ScenarioError(f"cannot bind a value of type {type(value).__name__}",
                                token.line, token.column)

    def section_stmt(self) -> None:
        token = self.peek()
        name = self.expect_name()
        self._fresh_name(name, token)
        self.expect("=")
        value = self.eval_expr(self.expr())
        self.expect(";")
        value = _as_section(self.scenario.chart, value, token)
        self.scenario.sections[name] = value

    def map_stmt(self) -> None:
        token = self.peek()
        name = self.expect_name()
        self._fresh_name(name, token)
        self.expect("{")
        chart = self.scenario.chart
        images = [None] * chart.dim
        while self.peek().text != "}":
            coord_token = self.peek()
            coord = self.expect_name()
            match = re.fullmatch(r"zeta(\d+)", coord)
            if not match:
                raise ScenarioError("map components are named zeta1, zeta2, ...",
                                    coord_token.line, coord_token.column)
            index = int(match.group(1)) - 1
            if not 0 <= index < chart.dim:
                raise ScenarioError(f"no coordinate zeta{index + 1} in this ring",
                                    coord_token.line, coord_token.column)
            if images[index] is not None:
                raise ScenarioError(f"zeta{index + 1} given twice",
                                    coord_token.line, coord_token.column)
            self.expect("=")
            value = self.eval_expr(self.expr())
            self.expect(";")
            value = _as_function(self.scenario.signature, value, coord_token)
            want = chart.parity(index)
            if not value.is_zero() and value.parity() != want:
                raise ScenarioError(
                    f"zeta{index + 1} needs parity {want}, expression has parity {value.parity()}",
                    coord_token.line, coord_token.column)
            images[index] = value
        self.expect("}")
        missing = [k for k, image in enumerate(images) if image is None]
        if missing:
            raise ScenarioError(f"map {name!r} missing components {[k + 1 for k in missing]}",
                                token.line, token.column)
        target = Chart(self.scenario.signature, name="zeta", odd_wedge_cap=chart.odd_wedge_cap)
        self.scenario.morphisms[name] = Morphism(chart, target, images)

    def suite_stmt(self) -> None:
        token = self.peek()
        name = self.expect_name()
        from .suites import SUITES

        if name not in SUITES:
            raise ScenarioError(f"unknown suite {name!r}", token.line, token.column)
        self.expect(";")
        if name not in self.scenario.suites:
            self.scenario.suites.append(name)

    def seed_stmt(self) -> None:
        self._optional_equals()
        self.scenario.seed = self.expect_int()
        self.expect(";")

    def trials_stmt(self) -> None:
        self._optional_equals()
        token = self.peek()
        trials = self.expect_int()
        if trials < 1:
            raise ScenarioError("trials must be at least 1", token.line, token.column)
        self.scenario.trials = trials
        self.expect(";")

    # -- expressions -----------------------------------------------------------

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek().text == "-":
            token = self.advance()
            return ("neg", self.unary(), token)
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek().text == "^":
            self.advance()
            node = ("^", node, self.atom())
        return node

    def atom(self):
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return ("int", int(token.text), token)
        if token.kind == "gen":
            self.advance()
            return ("gen", token.text, token)
        if token.text == "i":
            self.advance()
            return ("imag", token)
        if token.text == "dv":
            self.advance()
            self.expect("(")
            gen_token = self.peek()
            if gen_token.kind != "gen":
                raise ScenarioError("dv(...) takes a coordinate generator",
                                    gen_token.line, gen_token.column)
            self.advance()
            self.expect(")")
            return ("dv", gen_token.text, gen_token)
        if token.kind == "name":
            self.advance()
            return ("ref", token.text, token)
        if token.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return self.maybe_ber(node)
        if token.text == "[":
            return self.maybe_ber(None)
        raise ScenarioError(f"unexpected token {token.text!r}", token.line, token.column)

    def maybe_ber(self, node):
        """A primary may be followed by the [dxi] literal by juxtaposition."""
        token = self.peek()
        if token.text == "[":
            look = self.tokens[self.pos + 1]
            if look.text == "dxi":
                self.advance()
                self.advance()
                self.expect("]")
                basis = ("ber", token)
                if node is None:
                    return basis
                return ("*", node, basis)
        if node is None:
            raise ScenarioError(f"unexpected token {token.text!r}", token.line, token.column)
        return node

    # -- evaluation ---------------------------------------------------------------

    def eval_expr(self, node):
        sig = self.scenario.signature
        chart = self.scenario.chart
        kind = node[0]
        if kind == "int":
            return GaussianRational.of(node[1])
        if kind == "imag":
            return GR_I
        if kind == "ber":
            return BerSection(chart, chart.one())
        if kind == "gen":
            return self._generator_value(node[1], node[2])
        if kind == "dv":
            token = node[2]
            gen_kind, index = _split_gen(node[1])
            if gen_kind == "z" and 0 <= index < sig.n:
                return MultiVectorForm.vector(chart, index)
            if gen_kind == "th" and 0 <= index < sig.m:
                return MultiVectorForm.vector(chart, sig.n + index)
            raise ScenarioError(f"dv takes a holomorphic coordinate, not {node[1]!r}",
                                token.line, token.column)
        if kind == "ref":
            name, token = node[1], node[2]
            value = self.scenario.lookup(name)
            if value is None:
                raise ScenarioError(f"unknown name {name!r}", token.line, token.column)
            if isinstance(value, Morphism):
                raise ScenarioError(f"{name!r} cannot appear inside an expression",
                                    token.line, token.column)
            return value
        if kind == "neg":
            return _apply_neg(self.eval_expr(node[1]), node[2])
        op, left_node, right_node = node
        left = self.eval_expr(left_node)
        right = self.eval_expr(right_node)
        token = _leftmost_token(right_node)
        if op == "+":
            return _apply_add(self.scenario, left, right, token)
        if op == "-":
            return _apply_add(self.scenario, left, _apply_neg(right, token), token)
        if op == "*":
            return _apply_mul(self.scenario, left, right, token)
        if op == "/":
            if isinstance(left, GaussianRational) and isinstance(right, GaussianRational):
                if not right:
                    raise ScenarioError("division by zero", token.line, token.column)
                return left / right
            raise ScenarioError("division is only defined for scalars", token.line, token.column)
        if op == "^":
            if isinstance(right, GaussianRational):
                if right.im != 0 or right.re.denominator != 1 or right.re < 0:
                    raise ScenarioError("exponents must be non-negative integers",
                                        token.line, token.column)
                return _apply_power(self.scenario, left, int(right.re), token)
            if isinstance(left, MultiVectorForm) and isinstance(right, MultiVectorForm):
                return wedge(left, right)
            raise ScenarioError("^ needs an integer exponent or two sections",
                                token.line, token.column)
        raise ScenarioError(f"unknown operator {op!r}", token.line, token.column)

    def _generator_value(self, text: str, token: Token):
        sig = self.scenario.signature
        chart = self.scenario.chart
        kind, index = _split_gen(text)
        table = {
            "z": (sig.n, sig.z),
            "zb": (sig.n, sig.zb),
            "th": (sig.m, sig.th),
            "thb": (sig.m, sig.thb),
        }
        if kind in table:
            count, getter = table[kind]
            if not 0 <= index < count:
                raise ScenarioError(f"generator {text!r} not in ring {sig.n}|{sig.m}",
                                    token.line, token.column)
            return JetSuperFunction.gen(sig, getter(index))
        if kind == "dzb" and 0 <= index < sig.n:
            return MultiVectorForm.dbar_basis(chart, index)
        if kind == "dthb" and 0 <= index < sig.m:
            return MultiVectorForm.dbar_basis(chart, sig.n + index)
        raise ScenarioError(f"form generator {text!r} not in ring {sig.n}|{sig.m}",
                            token.line, token.column)


def _split_gen(text: str):
    match = re.fullmatch(r"(dzb|dthb|zb|thb|z|th)\^?(\d+)", text)
    return match.group(1), int(match.group(2)) - 1


def _leftmost_token(node) -> Token:
    while isinstance(node, tuple):
        candidates = [part for part in node if isinstance(part, Token)]
        if candidates:
            return candidates[0]
        node = node[1]
    return Token("eof", "", 0, 0)


def _apply_neg(value, token):
    if isinstance(value, GaussianRational):
        return -value
    if isinstance(value, (JetSuperFunction, MultiVectorForm)):
        return -value
    if isinstance(value, BerSection):
        return BerSection(value.chart, -value.coefficient)
    raise ScenarioError("cannot negate this value", token.line, token.column)


def _lift(scenario, value):
    """Promote scalars to ring elements when mixing with symbolic values."""
    if isinstance(value, GaussianRational):
        return JetSuperFunction.scalar(scenario.signature, value)
    return value


def _apply_add(scenario, left, right, token):
    if isinstance(left, GaussianRational) and isinstance(right, GaussianRational):
        return left + right
    left, right = _lift(scenario, left), _lift(scenario, right)
    if isinstance(left, JetSuperFunction) and isinstance(right, JetSuperFunction):
        return left + right
    if isinstance(left, MultiVectorForm) or isinstance(right, MultiVectorForm):
        chart = scenario.chart
        left = _as_section(chart, left, token)
        right = _as_section(chart, right, token)
        return left + right
    if isinstance(left, BerSection) and isinstance(right, BerSection):
        return BerSection(left.chart, left.coefficient + right.coefficient)
    raise ScenarioError("cannot add these values", token.line, token.column)


def _apply_mul(scenario, left, right, token):
    if isinstance(left, GaussianRational) and isinstance(right, GaussianRational):
        return left * right
    if isinstance(left, GaussianRational):
        return _scale(right, left, token)
    if isinstance(right, GaussianRational):
        return _scale(left, right, token)
    if isinstance(left, BerSection) or isinstance(right, BerSection):
        if isinstance(left, BerSection) and isinstance(right, BerSection):
            raise ScenarioError("cannot multiply two Berezinian sections",
                                token.line, token.column)
        section, other = (left, right) if isinstance(left, BerSection) else (right, left)
        if not isinstance(other, JetSuperFunction):
            raise ScenarioError("Berezinian sections only multiply by functions",
                                token.line, token.column)
        return BerSection(section.chart, other * section.coefficient)
    if isinstance(left, JetSuperFunction) and isinstance(right, JetSuperFunction):
        cap = left.sig.cap
        if left.even_degree() + right.even_degree() > cap:
            raise ScenarioError(
                f"literal product exceeds the ring degree cap {cap}", token.line, token.column)
        return left * right
    chart = scenario.chart
    return wedge(_as_section(chart, left, token), _as_section(chart, right, token))


def _apply_power(scenario, base, exponent, token):
    if exponent > MAX_EXPONENT:
        raise ScenarioError(f"exponents above {MAX_EXPONENT} are not supported",
                            token.line, token.column)
    if isinstance(base, GaussianRational):
        if _scalar_bits(base) * exponent > MAX_POWER_BITS:
            raise ScenarioError("the power is too large to compute exactly",
                                token.line, token.column)
        return _power(GaussianRational.of(1), base, exponent)
    if isinstance(base, JetSuperFunction):
        if base.even_degree() * exponent > base.sig.cap:
            raise ScenarioError(
                f"literal power exceeds the ring degree cap {base.sig.cap}",
                token.line, token.column)
        coefficients = [c for *_, c in base.items()]
        bits = max(map(_scalar_bits, coefficients), default=0)
        if (bits + len(coefficients).bit_length()) * exponent > MAX_POWER_BITS:
            raise ScenarioError("the power is too large to compute exactly",
                                token.line, token.column)
        return _power(JetSuperFunction.one(base.sig), base, exponent)
    if isinstance(base, MultiVectorForm):
        out = MultiVectorForm.from_function(scenario.chart, scenario.chart.one())
        for _ in range(exponent):
            out = wedge(out, base)
        return out
    raise ScenarioError("cannot raise this value to a power", token.line, token.column)


def _power(one, base, exponent):
    """base^exponent by square-and-multiply; exact, so equal to repeated products."""
    out = one
    while exponent:
        if exponent & 1:
            out = out * base
        exponent >>= 1
        if exponent:
            base = base * base
    return out


def _scalar_bits(value: GaussianRational) -> int:
    """Bit size of the largest numerator or denominator of a scalar."""
    return max(max(abs(part.numerator).bit_length(), part.denominator.bit_length())
               for part in (value.re, value.im))


def _scale(value, scalar, token):
    if isinstance(value, (JetSuperFunction, MultiVectorForm)):
        return value.scale(scalar)
    if isinstance(value, BerSection):
        return BerSection(value.chart, value.coefficient.scale(scalar))
    raise ScenarioError("cannot scale this value", token.line, token.column)


def _as_section(chart, value, token) -> MultiVectorForm:
    if isinstance(value, MultiVectorForm):
        return value
    if isinstance(value, GaussianRational):
        return MultiVectorForm.from_function(chart, JetSuperFunction.scalar(chart.sig, value))
    if isinstance(value, JetSuperFunction):
        return MultiVectorForm.from_function(chart, value)
    raise ScenarioError("expected a section-valued expression", token.line, token.column)


def _as_function(sig, value, token) -> JetSuperFunction:
    if isinstance(value, GaussianRational):
        return JetSuperFunction.scalar(sig, value)
    if isinstance(value, JetSuperFunction):
        return value
    if isinstance(value, MultiVectorForm):
        if set(value.terms) <= {((), ())}:
            return value.terms.get(((), ()), JetSuperFunction.zero(sig))
        raise ScenarioError("expected a function, found a section", token.line, token.column)
    raise ScenarioError("expected a function-valued expression", token.line, token.column)


def parse(source: str) -> Scenario:
    return Parser(source).parse()


def parse_expression(scenario: Scenario, source: str):
    """Parse and evaluate one expression in the scenario's environment."""
    parser = Parser("ring 0|0;")
    parser.tokens = tokenize(source)
    parser.pos = 0
    parser.scenario = scenario
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "eof":
        raise ScenarioError(f"trailing input {tail.text!r}", tail.line, tail.column)
    return parser.eval_expr(node)


# -- rendering ---------------------------------------------------------------------


def render_value(value) -> str:
    if isinstance(value, GaussianRational):
        return JetSuperFunction.scalar(RingSignature(0, 0, 0), value).render()
    if isinstance(value, JetSuperFunction):
        return value.render()
    if isinstance(value, MultiVectorForm):
        return value.render()
    if isinstance(value, BerSection):
        return f"({value.coefficient.render()}) [dxi]"
    if isinstance(value, Morphism):
        return value.render()
    raise TypeError(f"no rendering for {type(value).__name__}")
