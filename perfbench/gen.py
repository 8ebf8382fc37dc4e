"""Seeded model files and queries for the benchmark workloads.

A workload is a sequence of rounds.  Every round visits the same fixed list of
slots (subcommand x model family x size), so rounds cost about the same and a
run made of whole rounds has a steady query mix.  The seed, the workload name,
the slot and the round index fix every coefficient, so the same seed always
gives byte-identical files.  No query repeats within a run.

Forms are written here as dicts {sorted index tuple: Fraction}, independently
of the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

F = Fraction
Form = Dict[Tuple[int, ...], Fraction]

WORKLOADS = ("ddbar", "equivariant", "cli-mix")

NONINTEGRABLE = "structure is not integrable on this model"
# small integers: the heavy workloads fix every sparsity pattern per slot and
# draw only values, so a query's cost hardly depends on the seed
COEFFS = tuple(F(c) for c in range(-9, 10) if c)
# slots with a single free value, and the many short rounds of cli-mix, need
# more distinct values to keep every query of a run new
WIDE = tuple(sorted({F(p, q) for p in range(-30, 31) if p for q in range(1, 7)}))


@dataclass
class Query:
    slot: str
    sub: str
    text: str
    options: Tuple[str, ...] = ()
    n: int = 0
    k: int = 0
    trunc: int = 0
    # what the output checks need: allowed exit codes, oracle data, base slot
    facts: dict = field(default_factory=dict)

    def key(self):
        return (self.sub, self.options, self.text)


# -- forms and their text ---------------------------------------------------------------


def fmt_num(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def fmt_form(f: Form) -> str:
    terms = []
    for idx in sorted(f, key=lambda t: (len(t), t)):
        c = f[idx]
        mono = "^".join("e%d" % i for i in idx)
        if c == 1:
            terms.append(mono)
        else:
            terms.append("(%s)*%s" % (fmt_num(c), mono))
    return " + ".join(terms) if terms else "0"


def random_form(rng, monos, count=None, coeffs=COEFFS) -> Form:
    """Combination of `count` of the given monomials (all of them by default)
    with coefficients from a small fixed menu, so costs vary little by seed."""
    picked = sorted(monos) if count is None else rng.sample(sorted(monos), count)
    return {m: rng.choice(coeffs) for m in picked}


def pairs(idx):
    return list(combinations(idx, 2))


def triples(idx):
    return list(combinations(idx, 3))


# -- generalized complex structures as 2n x 2n matrices ---------------------------------


def _zeros(r, c):
    return [[F(0)] * c for _ in range(r)]


def _matmul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), F(0)) for j in range(len(b[0]))] for row in a]


def _invert(m):
    n = len(m)
    a = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [r[n:] for r in a]


def b_matrix(n, b: Form):
    """X -> i_X B as an n x n matrix (row: covector index, column: vector index)."""
    out = _zeros(n, n)
    for (i, j), c in b.items():
        out[j - 1][i - 1] += c
        out[i - 1][j - 1] -= c
    return out


def complex_matrix(n, sign):
    m = _zeros(2 * n, 2 * n)
    for jj in range(n // 2):
        a, b = 2 * jj, 2 * jj + 1
        m[b][a], m[a][b] = F(-sign), F(sign)
        m[n + b][n + a], m[n + a][n + b] = F(-sign), F(sign)
    return m


def symplectic_matrix(n, omega: Form):
    om = b_matrix(n, omega)
    inv = _invert(om)
    m = _zeros(2 * n, 2 * n)
    for r in range(n):
        for c in range(n):
            m[r][n + c] = -inv[r][c]
            m[n + r][c] = om[r][c]
    return m


def shear(n, j, b: Form):
    """e^B J e^-B for a real 2-form B."""
    bm = b_matrix(n, b)
    eb = [[F(int(r == c)) for c in range(2 * n)] for r in range(2 * n)]
    ebm = [list(r) for r in eb]
    for r in range(n):
        for c in range(n):
            eb[n + r][c] = bm[r][c]
            ebm[n + r][c] = -bm[r][c]
    return _matmul(eb, _matmul(j, ebm))


def matrix_block(name, m):
    rows = "\n".join(" ".join(fmt_num(x) for x in row) for row in m)
    return "structure %s matrix\n%s\nend\n" % (name, rows)


# -- model families ------------------------------------------------------------------------


def header(name, n, d: Dict[int, Form] = None, h: Form = None, params=()):
    lines = ["model %s" % name, "generators " + " ".join("e%d" % i for i in range(1, n + 1))]
    if params:
        lines.append("params " + " ".join(params))
    for g in sorted(d or {}):
        lines.append("d e%d = %s" % (g, fmt_form(d[g])))
    if h:
        lines.append("H = " + fmt_form(h))
    return "\n".join(lines) + "\n"


KT_D = {3: {(1, 2): F(1)}}
H5_D = {5: {(1, 2): F(1), (3, 4): F(1)}}


def _ddbar_family(rng, family, n):
    """(d table, H, B-field monomials, symplectic form) for a family.  The
    B-field monomials are closed on every family, and distinct values give
    distinct shears of J+ and J- (their (2,0)+(0,2) parts differ)."""
    shear_monos = [(1, 2)] if n == 2 else [(1, 3), (1, 4)]
    if family in ("kt", "ktH"):
        h = {(1, 2, 3): rng.choice(COEFFS), (1, 2, 4): rng.choice(COEFFS)} if family == "ktH" else {}
        return KT_D, h, shear_monos, {(1, 3): rng.choice(COEFFS), (2, 4): rng.choice(COEFFS)}
    omega = {(2 * j + 1, 2 * j + 2): rng.choice(COEFFS) for j in range(n // 2)}
    if family == "flatH":
        h = random_form(rng, triples(range(1, n + 1)))
    elif family == "h124":
        h = {(1, 2, 4): rng.choice(COEFFS)}
    else:
        h = {}
    return {}, h, shear_monos, omega


def _base_structure(n, kind, omega):
    if kind == "J+":
        return complex_matrix(n, 1)
    if kind == "J-":
        return complex_matrix(n, -1)
    return symplectic_matrix(n, omega)


def _ddbar_slots():
    """Twelve slots reach the split (ddbar on J+/J- and on untwisted
    symplectic forms), six end sooner (grading, n = 2, and the non-integrable
    twisted symplectic forms).  The median query then sits a quarter of the
    way into the slow cluster, not at its edge, where one fast stretch of the
    host would move it."""
    slots = []
    for family in ("flat0", "flatH", "kt", "h124"):
        for kind in ("J+", "J-", "w"):
            slots.append(("ddbar", family, kind, 4))
    for kind in ("J+", "J-"):
        slots.append(("ddbar", "ktH", kind, 4))
    for family, kind in (("flat0", "J+"), ("kt", "w")):
        slots.append(("grading", family, kind, 4))
    # on T^2 the only B-field is of type (1,1), which fixes complex structures
    for sub in ("ddbar", "grading"):
        slots.append((sub, "flat0", "w", 2))
    return slots


def _fresh(seen, slot, rng, make) -> Query:
    """Draw queries from make(rng) until one is new in this run."""
    for _ in range(100):
        q = make(rng)
        if q.key() not in seen:
            seen.add(q.key())
            return q
    raise RuntimeError("no fresh query for slot %s" % slot)


def _rng(workload, seed, slot, rnd=None):
    return random.Random("%s/%s/%s/%s" % (workload, seed, slot, rnd))


def ddbar_round(seed, rnd, seen) -> List[Query]:
    """Every slot's base structure sheared by a fresh closed rational B-field,
    which must leave every verdict unchanged; rnd None gives the unsheared
    bases themselves."""
    out = []
    for sub, family, kind, n in _ddbar_slots():
        slot = "%s/%s/%s/n%d" % (sub, family, kind, n)
        d, h, shear_monos, omega = _ddbar_family(_rng("ddbar", seed, slot), family, n)
        j = _base_structure(n, kind, omega)

        def make(rng):
            b = {} if rnd is None else random_form(rng, shear_monos, coeffs=WIDE if n == 2 else COEFFS)
            text = header("q", n, d, h) + "\n" + matrix_block("J", shear(n, j, b))
            exits = (0, 1) if sub == "ddbar" else (0,)
            return Query(slot, sub, text, n=n, facts={"exits": exits, "base": slot})

        out.append(_fresh(seen, slot, _rng("ddbar", seed, slot, rnd), make))
    return out


# -- equivariant ----------------------------------------------------------------------------


def action_block(name, n, xis, alphas=None, mus=None):
    lines = ["action %s" % name]
    for j, xi in enumerate(xis, start=1):
        lines.append("  xi %d = %s" % (j, " ".join(fmt_num(F(int(i == xi))) for i in range(1, n + 1))))
    for j, mu in enumerate(mus or (), start=1):
        lines.append("  mu %d = %s" % (j, fmt_form(mu)))
    for j, a in enumerate(alphas or (), start=1):
        lines.append("  alpha %d = %s" % (j, fmt_form(a)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def torus_action_data(rng, family, k):
    """(n, d table, H, fundamental fields, moment one-forms) for an invariant,
    equivariantly closed twist H + x^j alpha_j (d alpha_j = i_j H and
    i_l alpha_j + i_j alpha_l = 0).  Only the values are random."""
    if family in ("T3", "T4", "T5"):
        n = int(family[1])
        xis = list(range(1, k + 1))
        rest = list(range(k + 1, n + 1))
        h = random_form(rng, triples(rest)[:1])
        monos = [(rest[-1],), (rest[0],)] if k == 1 else [(rest[-1],)]
        alphas = [random_form(rng, monos) for _ in xis]
        if k == 2:
            c = rng.choice(COEFFS)
            alphas[0][(xis[1],)] = c
            alphas[1][(xis[0],)] = -c
        return n, {}, h, xis, alphas
    if family == "kt":
        h2 = rng.choice(COEFFS)
        if k == 1:
            alpha = random_form(rng, [(1,)])
            alpha[(3,)] = h2
            return 4, KT_D, {(1, 2, 3): rng.choice(COEFFS), (1, 2, 4): h2}, [4], [alpha]
        a1 = random_form(rng, [(1,)])
        a1[(4,)] = -h2
        a2 = random_form(rng, [(2,)])
        a2[(3,)] = h2
        return 4, KT_D, {(1, 2, 4): h2}, [3, 4], [a1, a2]
    # heisenberg5: only e5 is a symmetry of d(e5) = e1^e2 + e3^e4
    return 5, H5_D, random_form(rng, [(1, 2, 3)]), [5], [random_form(rng, [(4,), (1,)])]


# k = 1 up to trunc 6 and k = 2 up to trunc 3: k = 2 at trunc 4 takes ~7 s a
# query.  Five slots cost about as much as the median query (T5 t2, T4 t4,
# KT t4, Heisenberg-5, k = 2 t2), so the median sits inside that cluster.
EQ_LADDER = (
    [("T3", 1, t) for t in (2, 6)]
    + [("T4", 1, t) for t in (3, 4, 5)]
    + [("T5", 1, 2), ("kt", 1, 2), ("kt", 1, 4), ("h5", 1, 2)]
    + [("T4", 2, 2), ("T4", 2, 3), ("kt", 2, 2)]
)


def equivariant_round(seed, rnd, seen) -> List[Query]:
    out = []
    for family, k, trunc in EQ_LADDER:
        slot = "equivariant/%s/k%d/t%d" % (family, k, trunc)

        def make(rng):
            n, d, h, xis, alphas = torus_action_data(rng, family, k)
            text = header("q", n, d, h) + "\n" + action_block("rot", n, xis, alphas)
            return Query(slot, "equivariant", text, ("--trunc", str(trunc)), n=n, k=k,
                         trunc=trunc, facts={"oracle": (n, d, h)})

        out.append(_fresh(seen, slot, _rng("equivariant", seed, slot, rnd), make))
    return out


# -- cli-mix ----------------------------------------------------------------------------------


def _nil_model(rng, n):
    """Flat for even n; for odd n, d(e_n) = c*e1^e2 (c random for n = 3, else
    1) with a closed twist (for n >= 5 built from e1..e_{n-1})."""
    if n == 3:  # Heisenberg-3 with a random structure constant (0 gives T^3)
        return {3: {(1, 2): rng.choice(WIDE + (F(0),))}}, {(1, 2, 3): rng.choice(WIDE)}
    d = {n: {(1, 2): F(1)}} if n % 2 else {}
    monos = triples(range(1, n + (0 if n % 2 else 1)))
    return d, random_form(rng, monos, 2, WIDE)


def _validate_text(rng, n):
    d, h = _nil_model(rng, n)
    a, b = rng.choice(WIDE), rng.choice(WIDE)
    return (
        header("v%d" % n, n, d, h, params=("t", "s"))
        + "volume = %s\norientation = %s\n\n" % (fmt_num(rng.choice(COEFFS)), rng.choice(("+1", "-1")))
        + "let c = (%s)*e1^e2\n" % fmt_num(a)
        + "let w = t*e3 + (%s)*s*e1\n" % fmt_num(b)
        + "let f = exp(-i*(t+%s)*c) ^ (e2 + i*e3)\n" % fmt_num(abs(b))
        + "let p = (t^2 - s)*w ^ c\n\n"
        + action_block("rot", n, [3], mus=[{(1,): F(1)}])
        + "\nconnection th for rot\n  theta 1 = e3\nend\n\n"
        + "eqform g for rot = x1*c + x1^2*w\n\n"
        + "samples t = 0, 1, -1/2\n\n"
        + "dh f1\n  base = f\n  twist = c\n  param = t\n  n = %d\n  k = 1\n  orientation = +1\nend\n" % ((n + 1) // 2)
    )


def _structure(rng, n):
    """A complex (either sign) or symplectic structure sheared by a random B."""
    kind = rng.choice(("J+", "J-", "w"))
    omega = {(2 * j + 1, 2 * j + 2): rng.choice(WIDE) for j in range(n // 2)}
    j = _base_structure(n, kind, omega)
    b = random_form(rng, pairs(range(1, n + 1)), min(2, n // 2), WIDE)
    return kind, shear(n, j, b)


def _dh_text(rng):
    a = rng.choice(WIDE)
    if rng.random() < 0.5:
        b = rng.choice(WIDE)
        lets = "let dz2 = e3 + i*e4\nlet rho = exp(-i*(%s)*c) ^ dz2\n" % fmt_num(b)
        root = -b  # the pairing vanishes there, so no sample may sit on it
    else:
        lets = "let rho = (e1 + i*e2) ^ (e3 + i*e4)\n"
        root = None
    samples = [x for x in (F(0), F(1), F(-1, 2), F(2)) if x != root][:3]
    return (
        header("dh", 4, params=("t",))
        + "volume = 1\norientation = +1\n\n"
        + "let c = (%s)*e1^e2\n" % fmt_num(a) + lets
        + "\nsamples t = %s\n\n" % ", ".join(fmt_num(x) for x in samples)
        + "dh f\n  base = rho\n  twist = c\n  param = t\n  n = 3\n  k = 1\n  orientation = %s\nend\n"
        % rng.choice(("+1", "-1"))
    )


def _circle_text(rng, n):
    """Circle translation along e1 with a basic twist, a connection and eqforms."""
    rest = range(2, n + 1)
    h = random_form(rng, triples(rest), 1, WIDE) if n >= 4 else {}
    vol = fmt_form(random_form(rng, triples(rest) if n >= 4 else pairs(rest), 1, WIDE))
    return (
        header("circ", n, None, h)
        + "\nlet vol = %s\n\n" % vol
        + action_block("rot", n, [1])
        + "\nconnection theta for rot\n  theta 1 = e1\nend\n\n"
        + "eqform xvol for rot = (%s)*x1*vol + x1^2\n" % fmt_num(rng.choice(WIDE))
    )


def _extension_text(rng):
    a = rng.choice(WIDE)
    return (
        header("ext", 2)
        + "\nlet omega = (%s)*e1^e2\nlet rho = (%s)*exp(i*omega)\n\n" % (fmt_num(a), fmt_num(rng.choice(WIDE)))
        + "structure Jw symplectic omega\n\n"
        + action_block("rot", 2, [1], mus=[{(2,): a}])
    )


MALFORMED = {
    "token": ("let bad = e1 %s e2\n", "$@?!"),
    "unclosed": ("action rot\n  xi 1 = %s\n", None),
    "unknown": ("let bad = e1 ^ %s\n", ("zz", "e9", "omega2", "f_1")),
}


def _malformed_text(rng, kind):
    d, h = _nil_model(rng, 4)
    body = header("bad", 4, d, h) + "let ok = (%s)*e1^e2\n" % fmt_num(rng.choice(WIDE))
    template, choices = MALFORMED[kind]
    if kind == "unclosed":  # the block runs to the end of the file
        return body + template % " ".join(rng.choice("01") for _ in range(4))
    return body + template % rng.choice(choices) + "let after = (%s)*e3\n" % fmt_num(rng.choice(WIDE))


def _mix_slots():
    slots = [("validate", n) for n in (3, 5, 7)]
    slots += [("cohomology", n) for n in (3, 4, 5, 6, 7)]
    slots += [("gclinear", 2), ("gclinear", 4), ("grading", 2), ("grading", 4)]
    slots += [("equivariant", 2), ("equivariant", 3)]
    slots += [("cartanmap", 3), ("cartanmap", 4), ("kirwan", 4), ("dh", 4), ("dh", 4)]
    slots += [("ddbar", 2), ("extension", 2)]
    slots += [("malformed-" + kind, 4) for kind in sorted(MALFORMED)]
    # five validate slots of like cost, with as many cheaper slots before them
    # as dearer ones after, so the median query is a validate query
    slots += [("validate", 3), ("validate", 5), ("cohomology", 3), ("cohomology", 4),
              ("cartanmap", 3), ("kirwan", 4)]
    return slots


def _mix_query(rng, slot, sub, n) -> Query:
    if sub == "validate":
        return Query(slot, sub, _validate_text(rng, n), n=n)
    if sub == "cohomology":
        d, h = _nil_model(rng, n)
        return Query(slot, sub, header("c", n, d, h), n=n, facts={"oracle": (n, d, h)})
    if sub in ("gclinear", "grading", "ddbar"):
        kind, j = _structure(rng, n)
        expect = {"gclinear": {"valid": True, "eigenspace_dim": n, "type": 0 if kind == "w" else n // 2,
                               "flags": {"maximal_isotropic": True, "nondegenerate": True, "transverse": True}},
                  "ddbar": {"ok": True}}.get(sub, {})
        return Query(slot, sub, header("s", n) + "\n" + matrix_block("J", j), n=n, facts={"expect": expect})
    if sub == "equivariant":
        xi = rng.randint(1, n)
        alpha = random_form(rng, [(i,) for i in range(1, n + 1) if i != xi], 1, WIDE)
        text = header("e", n) + "\n" + action_block("rot", n, [xi], alphas=[alpha])
        trunc = rng.randint(1, 3)
        return Query(slot, sub, text, ("--trunc", str(trunc)), n=n, k=1, trunc=trunc, facts={"oracle": (n, {}, {})})
    if sub in ("cartanmap", "kirwan"):
        trunc = rng.randint(2, 5)
        name = "xvol" if sub == "cartanmap" else rng.choice(("xvol", "vol"))
        return Query(slot, sub, _circle_text(rng, n), ("--eqform", name, "--trunc", str(trunc)), n=n, k=1, trunc=trunc)
    if sub == "dh":
        return Query(slot, sub, _dh_text(rng), n=4, facts={"param": "t"})
    if sub == "extension":
        return Query(slot, sub, _extension_text(rng), ("--form", "rho"), n=2, facts={"expect": {"residual_zero": True}})
    kind = sub.split("-", 1)[1]
    target = rng.choice(("validate", "cohomology", "equivariant"))
    return Query(slot, target, _malformed_text(rng, kind), n=n, facts={"exits": (2,)})


def cli_mix_round(seed, rnd, seen) -> List[Query]:
    out = []
    for i, (sub, n) in enumerate(_mix_slots()):
        slot = "%s/n%d/%d" % (sub, n, i)
        out.append(_fresh(seen, slot, _rng("cli-mix", seed, slot, rnd),
                          lambda rng: _mix_query(rng, slot, sub, n)))
    return out


ROUNDS = {"ddbar": ddbar_round, "equivariant": equivariant_round, "cli-mix": cli_mix_round}


def references(workload, seed, seen) -> List[Query]:
    """The first round of a run: the unsheared bases that the ddbar
    workload's verdicts are compared with.  They cost what a sheared round
    costs, so every round is alike."""
    return ddbar_round(seed, None, seen) if workload == "ddbar" else []


def hostile_queries() -> List[Query]:
    """The two known hostile inputs: both must end quickly with a located
    parse error (exit 2); today the first runs for seconds and the second
    escapes as a RecursionError."""
    big = header("big", 2, params=("t",)) + "let a = t^2000000\n"
    deep = header("deep", 2) + "let a = " + "(" * 5000 + "e1" + ")" * 5000 + "\n"
    return [Query("hostile/power", "validate", big, n=2, facts={"exits": (2,)}),
            Query("hostile/nesting", "validate", deep, n=2, facts={"exits": (2,)})]
