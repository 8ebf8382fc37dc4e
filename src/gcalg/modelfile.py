"""Line-oriented model-file format: parser, evaluator, canonical printing.

Forms are sums of terms ``coeff * e_i^e_j`` with Gaussian-rational
polynomial coefficients over declared parameters; ``i`` is the imaginary
unit, ``pi`` is reserved and never numeric, ``^`` is the wedge (and integer
power on scalars).  Every error carries a source location.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ._record import Record, _set
from .cartan import Connection, EqForm, TorusAction, wedge_eq
from .forms import Form, exp_two_form, wedge
from .gcmaps import GCMap, complex_structure, symplectic_map
from .models import Model
from .scalars import ONE, Q, QZERO, Scalar, _q

Value = Union[Scalar, Form, EqForm]

EQFORM_TRUNC = 12
MAX_NESTING = 100  # levels of parentheses, call arguments and unary signs
MAX_EXPONENT = 32  # largest |k| of an integer exponent literal
MAX_DEGREE = 32  # largest parameter degree a product, power or exp may build
MAX_MONOMIALS = 1000  # most monomials one coefficient of a product, power or exp may hold
MAX_FILE_PRODUCTS = 20000  # most term products (that bound x the power) one file may spend
MAX_GENERATORS = 8  # most generators a model may declare: every space has dimension 2^n
MAX_DIGITS = 1000  # most digits of a number literal
MAX_VALUE_DIGITS = 4000  # most digits of a numerator part or denominator a computed value holds
_VALUE_LIMIT = 10 ** MAX_VALUE_DIGITS  # each |a|, |b| and d of a coefficient's Q stays below it
_VALUE_FLOOR = -_VALUE_LIMIT
_VALUE_BITS = _VALUE_LIMIT.bit_length()  # the bits of a number of MAX_VALUE_DIGITS digits
_DH_FIELDS = ("base", "twist", "param", "n", "k", "orientation", "type")  # the first five required


class ParseError(Exception):
    """Lexical, syntactic or undeclared-symbol failure with a location."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.reason = message


class ModelFileError(Exception):
    """Validation failure while assembling the parsed objects."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class Token(NamedTuple):
    kind: str  # NUM, NAME, OP
    text: str
    line: int
    col: int


# one scan: NUM, NAME and OP tokens, and any other non-space character, which
# is refused at the column just past the previous token
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(),=])|(\S))")
_KINDS = (None, "NUM", "NAME", "OP", None)
_STRAY_RE = re.compile(r"[^\s\dA-Za-z_\-+*/^(),=]")  # a character the last group above takes
_tuple_new = tuple.__new__  # a Token or Node from all its fields, past the NamedTuple's __new__


def tokenize(text: str, line: int) -> List[Token]:
    out = [_tuple_new(Token, (_KINDS[g], m.group(g), line, m.start(g) + 1))
           for m in _TOKEN_RE.finditer(text) for g in (m.lastindex,)]
    if _STRAY_RE.search(text) or len(text) > MAX_DIGITS:  # refuse the first bad token
        for k, tok in enumerate(out):
            if tok.kind is None:
                col = out[k - 1].col + len(out[k - 1].text) if k else 1
                raise ParseError("unexpected character %r" % tok.text, line, col)
            if tok.kind == "NUM" and len(tok.text) > MAX_DIGITS:
                raise ParseError("number literal beyond %d digits" % MAX_DIGITS, line, tok.col)
    return out


# -- expression AST ----------------------------------------------------------------


class Node(NamedTuple):
    kind: str  # num, name, call, unary, binary
    token: Token
    value: str = ""
    children: tuple = ()


class ExprParser:
    def __init__(self, tokens: List[Token], line: int):
        self.tokens = tokens + [None]  # so reading one past the last token needs no bounds check
        self.pos = 0
        self.line = line
        self.depth = 0

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok is None:  # located just past the last token
            last = self.tokens[-2] if self.pos else None
            col = last.col + len(last.text) if last else 1
            raise ParseError("unexpected end of expression", self.line, col)
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.next()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError("expected %r, found %r" % (op, tok.text), tok.line, tok.col)
        return tok

    def nested(self, tok: Token, parse) -> Node:
        """Run parse() one nesting level deeper, within MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("nested deeper than %d levels" % MAX_NESTING, tok.line, tok.col)
        node = parse()
        self.depth -= 1
        return node

    def parse(self) -> Node:
        node = self.expr()
        tok = self.tokens[self.pos]
        if tok is not None:
            raise ParseError("trailing input %r" % tok.text, tok.line, tok.col)
        return node

    def _op(self, ops: str) -> Optional[Token]:
        """The next token, consumed, when it is one of the operator characters ops."""
        tok = self.tokens[self.pos]
        if tok is not None and tok.kind == "OP" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def expr(self) -> Node:
        node = self.term()
        while tok := self._op("+-"):
            node = _tuple_new(Node, ("binary", tok, tok.text, (node, self.term())))
        return node

    def term(self) -> Node:
        node = self.unary()
        while tok := self._op("*/"):
            node = _tuple_new(Node, ("binary", tok, tok.text, (node, self.unary())))
        return node

    def unary(self) -> Node:
        tok = self._op("+-")
        if tok:
            return _tuple_new(Node, ("unary", tok, tok.text, (self.nested(tok, self.unary),)))
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while tok := self._op("^"):
            neg = self._op("-")
            rhs = _tuple_new(Node, ("unary", neg, "-", (self.atom(),))) if neg else self.atom()
            literal = _int_literal(rhs)
            if literal is not None and abs(literal) > MAX_EXPONENT:
                at = rhs.token
                raise ParseError("exponent beyond +-%d" % MAX_EXPONENT, at.line, at.col)
            node = _tuple_new(Node, ("binary", tok, "^", (node, rhs)))
        return node

    def atom(self) -> Node:
        tok = self.next()
        if tok.kind == "NUM":
            return _tuple_new(Node, ("num", tok, tok.text, ()))
        if tok.kind == "NAME":
            if not self._op("("):
                return _tuple_new(Node, ("name", tok, tok.text, ()))
            args = []
            if not self._op(")"):
                args.append(self.nested(tok, self.expr))
                while self._op(","):
                    args.append(self.nested(tok, self.expr))
                self.expect_op(")")
            return _tuple_new(Node, ("call", tok, tok.text, tuple(args)))
        if tok.kind == "OP" and tok.text == "(":
            node = self.nested(tok, self.expr)
            self.expect_op(")")
            return _tuple_new(Node, ("paren", tok, "", (node,)))
        raise ParseError("unexpected token %r" % tok.text, tok.line, tok.col)


_XVAR_RE = re.compile(r"x(0|[1-9][0-9]*)")  # x0 is refused by name; x01 is no variable


def promote(value: Value, n: int, k: Optional[int] = None) -> Value:
    """A Scalar as a 0-form on n generators; with k given, a Form (or Scalar) as
    a constant EqForm of a rank-k torus at EQFORM_TRUNC.  Others pass unchanged."""
    if isinstance(value, Scalar):
        value = Form.unit(n, value)
    if k is not None and isinstance(value, Form):
        value = EqForm.of_form(value, k, EQFORM_TRUNC)
    return value


class Evaluator:
    """Evaluate expression trees to Scalar, Form or EqForm values."""

    def __init__(
        self,
        n_generators: int,
        generator_names: Sequence[str],
        params: Sequence[str],
        values: Dict[str, Value],
        k_context: Optional[int] = None,
        spent: Optional[List[int]] = None,
    ):
        self.spent = [0] if spent is None else spent  # shared by one file's statements
        self.n = n_generators
        self.gen_index = {nm: i + 1 for i, nm in enumerate(generator_names)}
        self.params = set(params)
        self.values = values
        self.k_context = k_context

    def eval(self, node: Node) -> Value:
        return self._EVAL[node.kind](self, node)

    def _eval_num(self, node: Node) -> Value:
        return Scalar.rational(int(node.value))

    def _eval_paren(self, node: Node) -> Value:
        return self.eval(node.children[0])

    def _eval_name(self, node: Node) -> Value:
        name = node.value
        if name == "i":
            return Scalar.imaginary(1)
        if name == "pi":
            return Scalar.pi()
        if name in self.gen_index:
            return Form.generator(self.n, self.gen_index[name])
        if name in self.params:
            return Scalar.parameter(name)
        if name in self.values:
            return self.values[name]
        m = _XVAR_RE.fullmatch(name)
        if m and self.k_context:
            digits = m.group(1)
            if digits == "0":
                raise ParseError(
                    "polynomial variable x0 is not one of x1..x%d" % self.k_context,
                    node.token.line, node.token.col,
                )
            # a run past MAX_DIGITS exceeds every rank, and int() would refuse it
            if len(digits) > MAX_DIGITS or int(digits) > self.k_context:
                raise ParseError(
                    "polynomial variable %s exceeds the torus rank %d"
                    % (name, self.k_context),
                    node.token.line, node.token.col,
                )
            j = int(digits)
            expo = tuple(1 if idx == j - 1 else 0 for idx in range(self.k_context))
            return EqForm(
                self.k_context, self.n, EQFORM_TRUNC, {expo: Form.unit(self.n)}
            )
        raise ParseError("undeclared symbol %r" % name, node.token.line, node.token.col)

    def _eval_unary(self, node: Node) -> Value:
        val = self.eval(node.children[0])
        if node.value == "-":
            return -val
        return val

    def _eval_call(self, node: Node) -> Value:
        name = node.value
        args = [self.eval(c) for c in node.children]
        tok = node.token
        if name == "exp":
            if len(args) != 1 or not isinstance(args[0], Form):
                raise ParseError(
                    "exp takes one 2-form argument", tok.line, tok.col
                )
            _check_size(tok, [args[0]], self.spent, self.n // 2)  # top power w^(n/2)
            try:
                return _checked(exp_two_form(args[0]))
            except ValueError as e:
                raise ParseError(str(e), tok.line, tok.col)
        if name == "conj":
            if len(args) != 1 or isinstance(args[0], EqForm):
                raise ParseError(
                    "conj takes one scalar or form argument", tok.line, tok.col
                )
            return args[0].conjugate()
        raise ParseError("unknown function %r" % name, tok.line, tok.col)

    def _eval_binary(self, node: Node) -> Value:
        spine = [node]  # operator chains parse left-deep: walk the spine without recursion
        while spine[-1].children[0].kind == "binary":
            spine.append(spine[-1].children[0])
        value = self.eval(spine[-1].children[0])
        for b in reversed(spine):
            value = self._apply_binary(b, value)
        return value

    def _apply_binary(self, node: Node, left: Value) -> Value:
        op = node.value
        tok = node.token
        if op == "^":
            literal = _int_literal(node.children[1])
            if literal is not None:
                _check_size(tok, [left], self.spent, abs(literal))
                try:
                    return _checked(self._power(left, literal))
                except (ValueError, ZeroDivisionError) as e:
                    raise ParseError(str(e), tok.line, tok.col)
        right = self.eval(node.children[1])
        try:
            if op in ("*", "^"):
                _check_size(tok, [left, right], self.spent)
                value = self._mul(left, right)
            elif op == "/":
                value = self._div(left, right)
            else:
                value = self._add(left, right if op == "+" else -right)
            return _checked(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(str(e), tok.line, tok.col)

    def _promote_pair(self, a: Value, b: Value):
        """a and b promoted to the larger of their two kinds."""
        if type(a) is type(b):
            return a, b
        k = None
        if isinstance(a, EqForm) or isinstance(b, EqForm):
            if not self.k_context:
                raise ValueError("polynomial variables are not allowed here")
            k = self.k_context
        return promote(a, self.n, k), promote(b, self.n, k)

    def _add(self, a: Value, b: Value) -> Value:
        a, b = self._promote_pair(a, b)
        return a + b

    def _mul(self, a: Value, b: Value) -> Value:
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            return a * b
        if isinstance(a, Scalar):
            return b.scale(a)
        if isinstance(b, Scalar):
            return a.scale(b)
        a, b = self._promote_pair(a, b)
        if isinstance(a, Form):
            return wedge(a, b)
        return wedge_eq(a, b)

    def _div(self, a: Value, b: Value) -> Value:
        if not isinstance(b, Scalar):
            raise ValueError("division by a non-scalar")
        if isinstance(a, Scalar):
            return a / b
        inv = ONE / b
        return a.scale(inv)

    def _power(self, base: Value, exponent: int) -> Value:
        """Integer-literal exponents: numeric power on scalars, iterated
        wedge on forms (so e.g. x1^2 round-trips)."""
        if isinstance(base, Scalar):
            if exponent >= 0:
                return base ** exponent
            return ONE / (base ** (-exponent))
        if exponent < 0:
            raise ValueError("negative power of a form")
        out: Value = Scalar.rational(1)
        for _ in range(exponent):
            out = self._mul(out, base)
        return out

    _EVAL = {"num": _eval_num, "paren": _eval_paren, "name": _eval_name, "unary": _eval_unary,
             "call": _eval_call, "binary": _eval_binary}  # eval's dispatch on the node kind


def _coefficients(v: Value):
    if isinstance(v, Scalar):
        return (v,)
    if isinstance(v, Form):
        return v.terms.values()
    return [c for f in v.terms.values() for c in f.terms.values()]


def _checked(v: Value) -> Value:
    """v, after one pass over its coefficients: each one's `pi_power` has checked
    that it holds one pi power, and no numerator part or denominator has more
    than MAX_VALUE_DIGITS digits, so that every value prints within Python's
    limit on int-to-str conversion (4300 digits).  A ValueError names the first
    failure; the evaluator locates it at the operator or call that built v."""
    for c in _coefficients(v):
        terms = c.terms
        if len(terms) > 1:  # one term has one pi power
            c.pi_power
        for q in terms.values():
            if not (_VALUE_FLOOR < q.a < _VALUE_LIMIT and _VALUE_FLOOR < q.b < _VALUE_LIMIT
                    and q.d < _VALUE_LIMIT):
                raise ValueError("a number of more than %d digits" % MAX_VALUE_DIGITS)
    return v


def _check_size(tok: Token, factors: Sequence[Value], spent: List[int], power: int = 1) -> None:
    """Reject a product, power or exp before computing it when it would be too large.

    Each coefficient of the result sums products of `power` coefficients of
    every factor, so its parameter degree is at most D = power * (sum of the
    factors' degrees), and it holds at most min(prod T^power, C(D + p, p))
    monomials, T the total monomial count of a factor and p the number of
    parameters the factors use.  That bound times `power` estimates the term
    products it costs; they add to `spent`, the file's running total, which
    may not pass MAX_FILE_PRODUCTS.  One pass over each factor's monomials
    reads its degree and its count.  A power (power > 1: `^` with a literal
    exponent, or `exp`) multiplies the bits of its numbers: power times the
    sum of the factors' largest bit lengths (of a numerator part or a
    denominator) estimates the bits of the result's, which may not pass those
    of a MAX_VALUE_DIGITS-digit number; `_checked` bounds every result exactly.
    """
    degree, count = 0, 1
    for f in factors:
        top = size = 0
        for c in _coefficients(f):
            size += len(c.terms)
            for _, m in c.terms:
                if m:
                    e = m[0][1] if len(m) == 1 else sum(e for _, e in m)
                    if e > top:
                        top = e
        degree += top
        count *= size ** power
    degree *= power
    if degree > MAX_DEGREE:
        raise ParseError(
            "polynomial degree %d beyond %d" % (degree, MAX_DEGREE), tok.line, tok.col
        )
    if count > MAX_MONOMIALS:
        params = {name for f in factors for c in _coefficients(f) for _, m in c.terms
                  for name, _ in m}
        count = min(count, math.comb(degree + len(params), len(params)))
    if count > MAX_MONOMIALS:
        raise ParseError(
            "up to %d monomials in a coefficient, beyond %d" % (count, MAX_MONOMIALS),
            tok.line, tok.col,
        )
    spent[0] += count * power
    if spent[0] > MAX_FILE_PRODUCTS:
        raise ParseError("term products in this file add up to %d, beyond %d"
                         % (spent[0], MAX_FILE_PRODUCTS), tok.line, tok.col)
    if power > 1:
        bits = 0
        for f in factors:
            top = 0  # the OR of the factor's numbers has the bit length of the largest
            for c in _coefficients(f):
                for q in c.terms.values():
                    top |= q.d | abs(q.a) | abs(q.b)
            bits += top.bit_length()
        bits *= power
        if bits > _VALUE_BITS:
            raise ParseError("up to %d digits in a number, beyond %d"
                             % (int(bits * math.log10(2)) + 1, MAX_VALUE_DIGITS),
                             tok.line, tok.col)


def _int_literal(node: Node) -> Optional[int]:
    if node.kind == "num":
        return int(node.value)
    if node.kind == "unary":
        inner = _int_literal(node.children[0])
        if inner is None:
            return None
        return -inner if node.value == "-" else inner
    if node.kind == "paren":
        return _int_literal(node.children[0])
    return None


# -- file structure -----------------------------------------------------------------


class DHSpec(Record):
    def __init__(self, name: str, base: Form, twist: Form, param: str, n: int, k: int,
                 orientation: int = 1, constant_type: Optional[int] = None):
        _set(self, "__dict__", {"name": name, "base": base, "twist": twist, "param": param,
                                "n": n, "k": k, "orientation": orientation,
                                "constant_type": constant_type})


class ModelFile(Record):
    def __init__(self, name: str, model: Model, params: Tuple[str, ...],
                 values: Dict[str, Value], structures: Dict[str, GCMap],
                 actions: Dict[str, TorusAction], connections: Dict[str, Connection],
                 dh_specs: Dict[str, DHSpec], samples: Dict[str, List[Fraction]]):
        _set(self, "__dict__", {"name": name, "model": model, "params": params,
                                "values": values, "structures": structures, "actions": actions,
                                "connections": connections, "dh_specs": dh_specs,
                                "samples": samples})


class _RawAction(Record):
    """An action block as read: its xi rows and mu and alpha ASTs by index,
    in dicts of its own that the block reader fills."""

    def __init__(self, name: str, line: int, xi: Optional[Dict[int, List[Q]]] = None,
                 mu: Optional[Dict[int, Node]] = None, alpha: Optional[Dict[int, Node]] = None):
        _set(self, "__dict__", {"name": name, "line": line, "xi": {} if xi is None else xi,
                                "mu": {} if mu is None else mu,
                                "alpha": {} if alpha is None else alpha})


def _logical_lines(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield idx, line


def parse_model(text: str) -> ModelFile:
    """Parse and validate a model file; raises ParseError / ModelFileError."""
    lines = _logical_lines(text)
    name = None
    gen_names: List[str] = []
    params: List[str] = []
    d_exprs: Dict[int, Node] = {}
    h_expr: Optional[Node] = None
    vol_expr: Optional[Node] = None
    orientation = 1
    lets: List[Tuple[str, Node, Optional[str]]] = []  # name, ast, action context
    structures_raw: List[tuple] = []
    actions_raw: Dict[str, _RawAction] = {}
    connections_raw: List[tuple] = []
    dh_raw: List[tuple] = []
    samples: Dict[str, List[Fraction]] = {}
    sample_lines: Dict[str, int] = {}
    defined = set()  # (block header line or 0, statement, name) of each one-time statement

    def fail(msg: str, line: int, col: int = 1):
        raise ParseError(msg, line, col)

    def once(what: str, line: int, col: int = 1, name=None, block: int = 0) -> None:
        if (block, what, name) in defined:
            fail("repeated %s" % what if name is None else "repeated %s %r" % (what, name),
                 line, col)
        defined.add((block, what, name))

    def block(what: str, lineno: int, handle, read=tokenize) -> None:
        """Pass read(text, line) of each line up to 'end' to handle(); a block
        that reaches the end of the file fails after its body lines."""
        for l2, body in lines:
            if body.strip() == "end":
                return
            handle(read(body, l2))
        fail("%s block missing 'end'" % what, lineno)

    for lineno, line in lines:
        toks = tokenize(line, lineno)
        head = toks[0]
        if head.kind != "NAME":
            fail("statement must start with a keyword", lineno, head.col)
        key = head.text

        if key == "model":
            if len(toks) != 2 or toks[1].kind != "NAME":
                fail("usage: model <name>", lineno)
            name = toks[1].text
        elif key == "generators":
            for t in toks[1:]:
                if t.kind != "NAME":
                    fail("generator names must be identifiers", lineno, t.col)
                once("generator", lineno, t.col, t.text)
                if len(gen_names) == MAX_GENERATORS:
                    fail("more than %d generators" % MAX_GENERATORS, lineno, t.col)
                gen_names.append(t.text)
        elif key == "params":
            for t in toks[1:]:
                if t.kind != "NAME":
                    fail("parameter names must be identifiers", lineno, t.col)
                if t.text in ("i", "pi") or t.text in gen_names:
                    fail("reserved or conflicting parameter %r" % t.text, lineno, t.col)
                once("parameter", lineno, t.col, t.text)
                params.append(t.text)
        elif key == "d":
            if len(toks) < 4 or toks[1].kind != "NAME" or toks[2].text != "=":
                fail("usage: d <generator> = <form>", lineno)
            gname = toks[1].text
            if gname not in gen_names:
                fail("undeclared generator %r" % gname, lineno, toks[1].col)
            once("d", lineno, toks[1].col, gname)
            d_exprs[gen_names.index(gname) + 1] = ExprParser(toks[3:], lineno).parse()
        elif key == "H":
            if len(toks) < 3 or toks[1].text != "=":
                fail("usage: H = <form>", lineno)
            once("H", lineno, head.col)
            h_expr = ExprParser(toks[2:], lineno).parse()
        elif key == "volume":
            if len(toks) < 3 or toks[1].text != "=":
                fail("usage: volume = <scalar>", lineno)
            once("volume", lineno, head.col)
            vol_expr = ExprParser(toks[2:], lineno).parse()
        elif key == "orientation":
            if len(toks) < 3 or toks[1].text != "=":
                fail("usage: orientation = +1 | -1", lineno)
            val = "".join(t.text for t in toks[2:])
            if val not in ("+1", "-1", "1"):
                fail("orientation must be +1 or -1", lineno, toks[2].col)
            once("orientation", lineno, head.col)
            orientation = -1 if val == "-1" else 1
        elif key == "let":
            if len(toks) < 4 or toks[1].kind != "NAME" or toks[2].text != "=":
                fail("usage: let <name> = <expr>", lineno)
            lets.append((toks[1].text, ExprParser(toks[3:], lineno).parse(), None))
        elif key == "eqform":
            # eqform NAME for ACTION = EXPR
            if (
                len(toks) < 6
                or toks[1].kind != "NAME"
                or toks[2].text != "for"
                or toks[3].kind != "NAME"
                or toks[4].text != "="
            ):
                fail("usage: eqform <name> for <action> = <expr>", lineno)
            lets.append((toks[1].text, ExprParser(toks[5:], lineno).parse(), toks[3].text))
        elif key == "structure":
            if len(toks) >= 3 and toks[2].kind == "NAME" and toks[2].text == "matrix":
                payload = []
                block("matrix", lineno, payload.append, _rational_row)
            elif len(toks) >= 4 and toks[2].text == "symplectic":
                payload = ExprParser(toks[3:], lineno).parse()
            elif len(toks) == 3 and toks[2].text == "complex":
                if len(gen_names) % 2:
                    fail("complex structure needs an even generator count", lineno)
                payload = None
            else:
                fail(
                    "usage: structure <name> symplectic <2-form> | "
                    "structure <name> complex | structure <name> matrix ... end",
                    lineno,
                )
            once("structure", lineno, toks[1].col, toks[1].text)
            structures_raw.append((toks[2].text, toks[1].text, payload, lineno))
        elif key == "action":
            if len(toks) != 2 or toks[1].kind != "NAME":
                fail("usage: action <name>", lineno)
            raw = _RawAction(name=toks[1].text, line=lineno)

            def action_field(btoks: List[Token]) -> None:
                l2 = btoks[0].line
                if len(btoks) < 3 or btoks[0].kind != "NAME":
                    fail("expected xi/mu/alpha assignment or 'end'", l2)
                what = btoks[0].text
                if what not in ("xi", "mu", "alpha"):
                    fail("unknown action field %r" % what, l2, btoks[0].col)
                if btoks[1].kind != "NUM" or btoks[2].text != "=":
                    fail("usage: %s <j> = <%s>"
                         % (what, "rationals" if what == "xi" else "form"), l2)
                j = int(btoks[1].text)
                once(what, l2, btoks[1].col, j, lineno)
                if what == "xi":
                    raw.xi[j] = _rational_list(btoks[3:])
                else:
                    ast = ExprParser(btoks[3:], l2).parse()
                    (raw.mu if what == "mu" else raw.alpha)[j] = ast

            block("action", lineno, action_field)
            once("action", lineno, name=raw.name)
            actions_raw[raw.name] = raw
        elif key == "connection":
            if (
                len(toks) != 4
                or toks[1].kind != "NAME"
                or toks[2].text != "for"
                or toks[3].kind != "NAME"
            ):
                fail("usage: connection <name> for <action>", lineno)
            thetas: Dict[int, Node] = {}

            def theta(btoks: List[Token]) -> None:
                if (
                    len(btoks) < 4
                    or btoks[0].text != "theta"
                    or btoks[1].kind != "NUM"
                    or btoks[2].text != "="
                ):
                    fail("usage: theta <j> = <1-form>", btoks[0].line)
                once("theta", btoks[0].line, btoks[1].col, int(btoks[1].text), lineno)
                thetas[int(btoks[1].text)] = ExprParser(btoks[3:], btoks[0].line).parse()

            block("connection", lineno, theta)
            once("connection", lineno, toks[1].col, toks[1].text)
            connections_raw.append((toks[1].text, toks[3].text, thetas, lineno))
        elif key == "dh":
            if len(toks) != 2 or toks[1].kind != "NAME":
                fail("usage: dh <name>", lineno)
            fields: Dict[str, Node] = {}

            def dh_field(btoks: List[Token]) -> None:
                if len(btoks) < 3 or btoks[0].kind != "NAME" or btoks[1].text != "=":
                    fail("usage: <field> = <value>", btoks[0].line)
                tok = btoks[0]
                if tok.text not in _DH_FIELDS:
                    fail("unknown dh field %r" % tok.text, tok.line, tok.col)
                once("dh field", tok.line, tok.col, tok.text, lineno)
                fields[tok.text] = ExprParser(btoks[2:], tok.line).parse()

            block("dh", lineno, dh_field)
            once("dh", lineno, toks[1].col, toks[1].text)
            dh_raw.append((toks[1].text, fields, lineno))
        elif key == "samples":
            if len(toks) < 4 or toks[1].kind != "NAME" or toks[2].text != "=":
                fail("usage: samples <param> = <rationals>", lineno)
            once("samples", lineno, toks[1].col, toks[1].text)
            samples[toks[1].text] = [x.re for x in _rational_list(toks[3:])]
            sample_lines[toks[1].text] = lineno
        else:
            fail("unknown statement %r" % key, lineno, head.col)

    if name is None:
        raise ParseError("missing 'model <name>' header", 1)

    n = len(gen_names)
    values: Dict[str, Value] = {}
    spent = [0]

    def evaluator(k_context: Optional[int] = None) -> Evaluator:
        return Evaluator(n, gen_names, params, values, k_context, spent)

    def eval_form(ast: Node, what: str) -> Form:
        val = promote(evaluator().eval(ast), n)
        if not isinstance(val, Form):
            raise ParseError("%s must be a form" % what, ast.token.line)
        return val

    # let/eqform definitions in order, so later lines may use earlier names
    for let_name, ast, action_ctx in lets:
        line = ast.token.line
        if let_name in values or let_name in gen_names or let_name in params:
            raise ParseError("name %r already in use" % let_name, line)
        if action_ctx is None:
            values[let_name] = evaluator().eval(ast)
        else:
            if action_ctx not in actions_raw:
                raise ParseError("undeclared action %r" % action_ctx, line)
            k = len(actions_raw[action_ctx].xi)
            values[let_name] = promote(evaluator(k_context=k).eval(ast), n, k)

    try:
        d_table = [Form.zero(n)] * n
        for gi, ast in d_exprs.items():
            d_table[gi - 1] = eval_form(ast, "generator differential")
        h_form = eval_form(h_expr, "twisting form") if h_expr is not None else None
        volume = ONE
        if vol_expr is not None:
            volume = evaluator().eval(vol_expr)
            if not isinstance(volume, Scalar):
                raise ParseError("volume must be a scalar", vol_expr.token.line)
        model = Model(n, d_table, h_form, volume, orientation, gen_names)
    except ValueError as e:
        raise ModelFileError(str(e))

    structures: Dict[str, GCMap] = {}
    for kind, sname, payload, line in structures_raw:
        try:
            if kind == "matrix":
                structures[sname] = GCMap(n, payload)
            elif kind == "symplectic":
                structures[sname] = symplectic_map(eval_form(payload, "symplectic form"))
            else:
                structures[sname] = complex_structure(n // 2)
        except ValueError as e:
            raise ModelFileError(str(e), line)

    actions: Dict[str, TorusAction] = {}
    for raw in actions_raw.values():
        k = len(raw.xi)
        if sorted(raw.xi) != list(range(1, k + 1)):
            raise ModelFileError(
                "action %r must define xi 1..k contiguously" % raw.name, raw.line
            )
        xi = []
        for j in range(1, k + 1):
            row = raw.xi[j]
            if len(row) != n:
                raise ModelFileError(
                    "xi %d needs %d coordinates" % (j, n), raw.line
                )
            xi.append([Scalar.from_q(x) for x in row])
        for what, table in (("mu", raw.mu), ("alpha", raw.alpha)):
            bad = next((j for j in table if not 1 <= j <= k), None)
            if bad is not None:
                raise ModelFileError("action %r defines %s %d outside 1..%d"
                                     % (raw.name, what, bad, k), table[bad].token.line)
        mu = alpha = None
        if raw.mu or raw.alpha:
            mu = [
                eval_form(raw.mu[j], "mu") if j in raw.mu else Form.zero(n)
                for j in range(1, k + 1)
            ]
            alpha = [
                eval_form(raw.alpha[j], "alpha") if j in raw.alpha else Form.zero(n)
                for j in range(1, k + 1)
            ]
        try:
            actions[raw.name] = TorusAction(model, xi, mu, alpha)
        except ValueError as e:
            raise ModelFileError(str(e), raw.line)

    connections: Dict[str, Connection] = {}
    for cname, aname, thetas, line in connections_raw:
        if aname not in actions:
            raise ModelFileError("undeclared action %r" % aname, line)
        act = actions[aname]
        if sorted(thetas) != list(range(1, act.k + 1)):
            raise ModelFileError("connection must define theta 1..k", line)
        forms = [eval_form(thetas[j], "theta") for j in range(1, act.k + 1)]
        try:
            connections[cname] = Connection(act, forms)
        except ValueError as e:
            raise ModelFileError(str(e), line)

    dh_specs: Dict[str, DHSpec] = {}
    for dname, fields, line in dh_raw:
        for key in _DH_FIELDS[:5]:
            if key not in fields:
                raise ModelFileError("dh block %r misses %r" % (dname, key), line)
        base = eval_form(fields["base"], "base")
        twist = eval_form(fields["twist"], "twist")
        param_ast = fields["param"]
        if param_ast.kind != "name":
            raise ModelFileError("dh param must be a parameter name", param_ast.token.line)
        param = param_ast.value
        if param not in params:
            raise ModelFileError("undeclared parameter %r" % param, param_ast.token.line)
        nval = _int_literal(fields["n"])
        kval = _int_literal(fields["k"])
        if nval is None or kval is None:
            raise ModelFileError("dh n and k must be integer literals", line)
        for key, value in (("n", nval), ("k", kval)):  # both enter the density as powers
            if abs(value) > MAX_EXPONENT:
                at = fields[key].token
                raise ParseError("dh %s beyond +-%d" % (key, MAX_EXPONENT), at.line, at.col)
        orient = 1
        o_ast = fields.get("orientation")
        if o_ast is not None:
            orient = _int_literal(o_ast)
            if orient not in (1, -1):
                raise ModelFileError("dh orientation must be +1 or -1", o_ast.token.line)
        ctype = None
        t_ast = fields.get("type")
        if t_ast is not None:
            ctype = _int_literal(t_ast)
            if ctype is None or ctype < 0:
                raise ModelFileError("dh type must be a nonnegative integer", t_ast.token.line)
        dh_specs[dname] = DHSpec(
            name=dname, base=base, twist=twist, param=param,
            n=nval, k=kval, orientation=orient, constant_type=ctype,
        )

    for pname in samples:
        if pname not in params:
            raise ModelFileError(
                "samples for undeclared parameter %r" % pname, sample_lines[pname]
            )

    return ModelFile(
        name=name,
        model=model,
        params=tuple(params),
        values=values,
        structures=structures,
        actions=actions,
        connections=connections,
        dh_specs=dh_specs,
        samples=samples,
    )


# a row of rationals that `_rational_list` reads without error: entries of an
# optional sign, digits and an optional nonzero denominator, with spaces and
# commas around them.  Each digit run ends at a non-digit and no separator
# can start an entry, so every row has one parse and a row that fails fails
# in linear time.
_ENTRY_RE = re.compile(r"(?:([+-])\s*)?(\d+(?!\d))(?:\s*/\s*(0*[1-9]\d*(?!\d)))?")
_ROW_RE = re.compile(r"(?:[\s,]*%s)*[\s,]*" % _ENTRY_RE.pattern)


def _rational_row(text: str, line: int) -> List[Q]:
    """The rationals of a matrix row, as `_rational_list(tokenize(text, line))`
    reads them.  A row that `_ROW_RE` matches, too short to hold a literal
    beyond MAX_DIGITS, is read in one pass; every other row takes the token
    path, which alone locates an error."""
    if len(text) > MAX_DIGITS or not _ROW_RE.fullmatch(text):
        return _rational_list(tokenize(text, line))
    out = []
    for sign, num, den in _ENTRY_RE.findall(text):
        a = int(num)
        out.append(_q(-a if sign == "-" else a, 0, int(den) if den else 1) if a else QZERO)
    return out


def _rational_list(toks: List[Token]) -> List[Q]:
    out: List[Q] = []
    pos = 0
    while pos < len(toks):
        tok = toks[pos]
        if tok.kind == "OP" and tok.text == ",":
            pos += 1
            continue
        sign = 1
        if tok.kind == "OP" and tok.text in "+-":
            sign = -1 if tok.text == "-" else 1
            pos += 1
            if pos >= len(toks):
                raise ParseError("dangling sign", tok.line, tok.col)
            tok = toks[pos]
        if tok.kind != "NUM":
            raise ParseError("expected a rational number", tok.line, tok.col)
        num = int(tok.text)
        pos += 1
        den = 1
        if pos < len(toks) and toks[pos].kind == "OP" and toks[pos].text == "/":
            pos += 1
            if pos >= len(toks) or toks[pos].kind != "NUM":
                at = toks[pos - 1]
                raise ParseError("expected a denominator", at.line, at.col)
            at = toks[pos]
            den = int(at.text)
            if den == 0:
                raise ParseError("zero denominator", at.line, at.col)
            pos += 1
        out.append(_q(sign * num, 0, den))
    return out


def _eval_text(text: str, n: int, names: Sequence[str], params: Sequence[str]) -> Value:
    """Tokenize, parse and evaluate one standalone expression on line 1."""
    return Evaluator(n, names, params, {}).eval(ExprParser(tokenize(text, 1), 1).parse())


def parse_form_text(text: str, model: Model, params: Sequence[str] = ()) -> Form:
    """Parse a standalone form expression against a model's frame."""
    val = promote(_eval_text(text, model.n, model.names, params), model.n)
    if not isinstance(val, Form):
        raise ParseError("expected a form", 1)
    return val


def parse_scalar_text(text: str, params: Sequence[str] = ()) -> Scalar:
    """Parse a standalone scalar expression (round-trips the printer)."""
    val = _eval_text(text, 0, [], params)
    if isinstance(val, Form) and set(val.terms) <= {0}:
        val = val.terms.get(0, Scalar())
    if not isinstance(val, Scalar):
        raise ParseError("expected a scalar", 1)
    return val
