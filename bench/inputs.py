"""Seeded inputs of the three workloads.

``build(workload, seed)`` returns the problem documents and the ops to run
on them.  An op is one folgerm subcommand on one document; its ``expect``
entry carries what the checks need, computed here with the benchmark's own
arithmetic.  Random candidates are admitted (square-free, coprime) with
sympy, never with folgerm, so that admission cannot hang on a folgerm fault
and does not depend on folgerm's answers.  This module runs in the parent
process only: sympy's import never reaches the measured worker.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import polys
from polys import LOCAL_VARS, PROJECTIVE_VARS

WORKLOADS = ("operator-ladder", "germ-corpus", "projective-ladder")

# Per-op time budgets.  Each leaves room above the slowest op that completes
# today (fk(6), about 1.4 s; a corpus op, under 0.5 s; d = 7, about 1 s).
BUDGET_S = {"operator-ladder": 30.0, "germ-corpus": 1.5, "projective-ladder": 10.0}

# The ladders stop at mu = 66 (fk) and mu = 56 (df), so that a run times
# every op in about eight passes: with fk(8) (7-9 s alone) one pass filled a
# run, and single timings of the top rungs varied by up to 40 % between runs.
FK_RANGE = range(3, 7)
HAMILTONIAN_LADDER_RANGE = range(5, 9)

LOCAL_COMMANDS = (
    "invariants",
    "check-bs",
    "check-liu",
    "check-cota",
    "check-second-type",
    "reduce",
)

# Corpus shape.  Hamiltonian germs df take f of degree <= 4 with zero 2-jet;
# random (P, Q) take degree <= 4 and order >= 1.  Degree-5 draws, and f with
# a nonzero 2-jet, make ops run past any useful budget on some seeds only
# (poly_gcd in the polar intersections, Mora's normal form in check-bs), so
# the failures would depend on the seed; that fault is kept instead as the
# fixed germ below, which fails in every run.  The number of terms drawn is
# stratified (germ i of a kind takes the i-th entry of its cycle): op times
# grow about fourfold from 2 to 5 terms, and a random mix of term counts
# made the corpus totals swing between seeds.
HAMILTONIAN_COUNT = 40
RANDOM_PQ_COUNT = 50
HAMILTONIAN_TERMS = (2, 3, 4, 5)
RANDOM_PQ_TERMS = tuple(itertools.product(range(1, 6), repeat=2))
HAMILTONIAN_SHAPE = dict(max_degree=4, min_order=3)
RANDOM_PQ_SHAPE = dict(max_degree=4, min_order=1)

# Draw 57 of Random(1117) with max_degree=5, max_terms=5, min_order=2: the
# polar gcds of check-cota and invariants blow up in poly_gcd.
GCD_FAULT_F = {
    (4, 1): Fraction(-5, 3),
    (1, 4): Fraction(3),
    (0, 3): Fraction(-9, 2),
    (0, 2): Fraction(5, 2),
}
GCD_FAULT_COMMANDS = ("invariants", "check-cota")

# Line arrangements: n = 3, 4 are seeded; n = 5 and n = 6 are fixed, because
# the point search loses intersections on about one seeded 5-line
# arrangement in 200 (none in 1000 of 4 lines), which would make failures
# depend on the seed.  The six lines below lose 6 of their 15 pairwise
# intersections every time: rational_roots runs out of budget on the
# eliminant.
SEEDED_LINE_COUNTS = (3, 4)
FIVE_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3))
FIVE_LAMBDAS = (1, 2, 3, 4, -10)
POINTS_FAULT_LINES = FIVE_LINES + ((1, 3, 7),)
POINTS_FAULT_LAMBDAS = (1, 2, 3, 4, 5, -15)


def _sympy_poly(p, names):
    import sympy

    gens = sympy.symbols(names)
    terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.items()}
    return sympy.Poly.from_dict(terms, gens, domain="QQ")


def is_squarefree(p, names=LOCAL_VARS):
    _, factors = _sympy_poly(p, names).sqf_list()
    return all(mult == 1 for _, mult in factors)


def coprime(*ps, names=LOCAL_VARS):
    common = _sympy_poly(ps[0], names)
    for p in ps[1:]:
        common = common.gcd(_sympy_poly(p, names))
    return common.total_degree() == 0


def has_rational_root(text):
    """Whether a univariate polynomial, in folgerm's syntax, has a rational root."""
    import sympy

    expr = sympy.sympify(text.replace("^", "**"))
    symbols = sorted(expr.free_symbols, key=str)
    if not symbols:
        return False
    poly = sympy.Poly(expr, *symbols)
    if len(symbols) > 1:
        raise ValueError(f"residual in more than one variable: {text}")
    return any(f.degree() == 1 for f, _ in poly.factor_list()[1])


def random_poly(rng, max_degree, picks, min_order):
    """``picks`` random terms, drawn like the random polynomials of folgerm's tests."""
    terms = {}
    for _ in range(picks):
        while True:
            e = (rng.randint(0, max_degree), rng.randint(0, max_degree))
            if min_order <= sum(e) <= max_degree:
                break
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return polys.clean(terms)


def _local_doc(P, Q, zero=None, comment=""):
    lines = [f"# {comment}"] if comment else []
    lines += [
        "[foliation]",
        f"P = {polys.render(P, LOCAL_VARS)}",
        f"Q = {polys.render(Q, LOCAL_VARS)}",
    ]
    if zero is not None:
        lines += ["", "[divisor]", f"zero = {polys.render(zero, LOCAL_VARS)}"]
    return "\n".join(lines) + "\n"


def _projective_doc(A, B, C, curve=None, comment=""):
    lines = [f"# {comment}"] if comment else []
    lines += [
        "[projective]",
        f"A = {polys.render(A, PROJECTIVE_VARS)}",
        f"B = {polys.render(B, PROJECTIVE_VARS)}",
        f"C = {polys.render(C, PROJECTIVE_VARS)}",
    ]
    if curve is not None:
        lines.append(f"curve = {polys.render(curve, PROJECTIVE_VARS)}")
    return "\n".join(lines) + "\n"


class _Builder:
    def __init__(self):
        self.documents = {}
        self.ops = []

    def add(self, name, text, commands, expect, faults=()):
        self.documents[name] = text
        for cmd in commands:
            op = {"id": f"{name}:{cmd}", "cmd": cmd, "doc": name, "expect": expect}
            if cmd in faults:
                op["fault"] = faults[cmd]
            self.ops.append(op)


def fk(k):
    """FK family: P, Q of the fixture fk5.fol at lambda = 1, zero divisor x*y."""
    P = {(2 * k - 2, 1): Fraction(2), (2, k - 1): Fraction(4), (0, k): Fraction(-1)}
    Q = {(1, k - 1): Fraction(1), (3, k - 2): Fraction(-2), (2 * k - 1, 0): Fraction(-1)}
    return P, Q, {(1, 1): Fraction(1)}


def hamiltonian_ladder_f(n):
    """y^n - x^(n+1) + x^(n-1)*y^(n-2): mu = n(n-1), tau = mu - 1, sigma != 0."""
    return {(0, n): Fraction(1), (n + 1, 0): Fraction(-1), (n - 1, n - 2): Fraction(1)}


def _hamiltonian_expect(f, **extra):
    return {"kind": "hamiltonian", "f": polys.to_json(f), **extra}


def operator_ladder(seed):
    b = _Builder()
    for k in FK_RANGE:
        P, Q, zero = fk(k)
        expect = {
            "kind": "fk",
            "k": k,
            "P": polys.to_json(P),
            "Q": polys.to_json(Q),
            "zero": polys.to_json(zero),
        }
        b.add(f"fk{k}", _local_doc(P, Q, zero, f"fk({k}), lambda = 1"), ["check-bs"], expect)
    for n in HAMILTONIAN_LADDER_RANGE:
        f = hamiltonian_ladder_f(n)
        mu = n * (n - 1)
        expect = _hamiltonian_expect(f, mu=mu, tau=mu - 1)
        text = _local_doc(polys.diff(f, 0), polys.diff(f, 1), f, f"df, mu = {mu}")
        b.add(f"ham{n}", text, ["check-liu", "check-bs"], expect)
    return b


def germ_corpus(seed):
    rng = random.Random(seed)
    b = _Builder()
    # The fault germ runs first, so that every pass runs after it alike.
    f = GCD_FAULT_F
    faults = {cmd: "polynomials.poly_gcd" for cmd in GCD_FAULT_COMMANDS}
    text = _local_doc(polys.diff(f, 0), polys.diff(f, 1), f, "poly_gcd fault, fixed")
    b.add("gcdfault", text, LOCAL_COMMANDS, _hamiltonian_expect(f), faults)
    for i in range(HAMILTONIAN_COUNT):
        picks = HAMILTONIAN_TERMS[i % len(HAMILTONIAN_TERMS)]
        while True:
            f = random_poly(rng, picks=picks, **HAMILTONIAN_SHAPE)
            fx, fy = polys.diff(f, 0), polys.diff(f, 1)
            if f and fx and fy and is_squarefree(f) and coprime(fx, fy):
                break
        b.add(f"h{i:02d}", _local_doc(fx, fy, f), LOCAL_COMMANDS, _hamiltonian_expect(f))
    for i in range(RANDOM_PQ_COUNT):
        p_picks, q_picks = RANDOM_PQ_TERMS[i % len(RANDOM_PQ_TERMS)]
        while True:
            P = random_poly(rng, picks=p_picks, **RANDOM_PQ_SHAPE)
            Q = random_poly(rng, picks=q_picks, **RANDOM_PQ_SHAPE)
            if P and Q and coprime(P, Q):
                break
        expect = {"kind": "pq", "P": polys.to_json(P), "Q": polys.to_json(Q)}
        b.add(f"pq{i:02d}", _local_doc(P, Q), ("invariants", "reduce"), expect)
    return b


def omega_of(F):
    """(y F_z - z F_y) dx + (z F_x - x F_z) dy + (x F_y - y F_x) dz."""
    x, y, z = ({(1, 0, 0): Fraction(1)}, {(0, 1, 0): Fraction(1)}, {(0, 0, 1): Fraction(1)})
    Fx, Fy, Fz = (polys.diff(F, i) for i in range(3))
    A = polys.add(polys.mul(y, Fz), polys.scale(polys.mul(z, Fy), -1))
    B = polys.add(polys.mul(z, Fx), polys.scale(polys.mul(x, Fz), -1))
    C = polys.add(polys.mul(x, Fy), polys.scale(polys.mul(y, Fx), -1))
    return A, B, C


def logarithmic_form(lines, lambdas):
    """prod(L) * sum(lambda_i dL_i / L_i) for lines given by coefficient triples."""
    forms = [
        {m: Fraction(c) for m, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line) if c}
        for line in lines
    ]
    coeffs = []
    for var in range(3):
        total = {}
        for i, (line, lam) in enumerate(zip(lines, lambdas)):
            if line[var]:
                others = polys.product(forms[:i] + forms[i + 1:], 3)
                total = polys.add(total, polys.scale(others, lam * line[var]))
        coeffs.append(total)
    return tuple(coeffs), polys.product(forms, 3)


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def random_arrangement(rng, n):
    """x, y, z and n - 3 seeded lines, no three through a point.

    The residues lambda_i are nonzero, sum to 0, and leave the coefficients
    of the logarithmic form coprime.
    """
    while True:
        lines = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        while len(lines) < n:
            lines.append(tuple(rng.randint(-5, 5) for _ in range(3)))
        if all(_det3(t) for t in itertools.combinations(lines, 3)):
            break
    while True:
        lambdas = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(n - 1)]
        lambdas.append(-sum(lambdas))
        if lambdas[-1] and coprime(*logarithmic_form(lines, lambdas)[0], names=PROJECTIVE_VARS):
            return lines, lambdas


def _projective_expect(A, B, C, degree, lines=None, curve=None):
    return {
        "kind": "projective",
        "A": polys.to_json(A),
        "B": polys.to_json(B),
        "C": polys.to_json(C),
        "degree": degree,
        "lines": [list(line) for line in lines] if lines else None,
        "curve": polys.to_json(curve) if curve else None,
    }


def projective_ladder(seed):
    rng = random.Random(seed)
    b = _Builder()
    for d in range(2, 9):
        F = {
            (d + 1, 0, 0): Fraction(1),
            (0, d + 1, 0): Fraction(2),
            (0, 0, d + 1): Fraction(-3),
            (1, d, 0): Fraction(1),
        }
        A, B, C = omega_of(F)
        text = _projective_doc(A, B, C, comment=f"omega_F, d = {d}")
        b.add(f"omega{d}", text, ["projective-validate"], _projective_expect(A, B, C, d))
    arrangements = [(f"lines{n}", *random_arrangement(rng, n), {}) for n in SEEDED_LINE_COUNTS]
    arrangements.append(("lines5", FIVE_LINES, FIVE_LAMBDAS, {}))
    faults = {cmd: "projective.singular_points" for cmd in ("projective-validate", "projective-global")}
    arrangements.append(("linesfault", POINTS_FAULT_LINES, POINTS_FAULT_LAMBDAS, faults))
    for name, lines, lambdas, op_faults in arrangements:
        (A, B, C), curve = logarithmic_form(lines, lambdas)
        degree = len(lines) - 2
        text = _projective_doc(A, B, C, curve, f"{len(lines)} lines, lambda = {lambdas}")
        expect = _projective_expect(A, B, C, degree, lines, curve)
        b.add(name, text, ["projective-validate", "projective-global"], expect, op_faults)
    return b


def build(workload, seed):
    builder = {
        "operator-ladder": operator_ladder,
        "germ-corpus": germ_corpus,
        "projective-ladder": projective_ladder,
    }[workload](seed)
    return {
        "documents": builder.documents,
        "ops": builder.ops,
        "budget_s": BUDGET_S[workload],
    }
