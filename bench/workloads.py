"""The four benchmark workloads: seeded input generators, jobs and checks.

Every workload is a catalogue of passes.  Pass ``p`` is a fixed list of jobs
whose inputs come only from ``random.Random("<workload>:<p>")``, so a pass
always holds the same inputs and its exact answers can be recorded once in
``references/<workload>.json``.  A run walks the passes in an order drawn
from its ``--seed`` and never repeats a pass while the catalogue lasts, so
every job in a run gets fresh inputs and no memo cache can serve it.

A job is one user-level request made through the public API: one identity
check, one classification, one script run through the command line, one pin
or one ledger.  ``Job.run`` is the timed request.  ``Job.verify`` runs
outside the timed interval: it prints the exact result, measures its size
and performs the independent checks.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import densalg as D
import densalg.classify as classify_mod
import densalg.cli as cli_mod
from densalg import EVEN, ODD, Chart, DensityElement, poly_from_dict, poly_to_text

# A large prime for the rank certificate in the classify check.
RANK_PRIME = (1 << 61) - 1


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    # raw result -> (printed result, size counts, failed checks)
    verify: Callable[[object], tuple]


def run_cli(argv, stdin_text=""):
    """densalg's command line in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_mod.main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Seeded polynomial generator (through the public serialized form)
# ---------------------------------------------------------------------------

T_EXPONENTS = (0, 0, 1, 2, -1, Fraction(1, 2))
COEFFS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2))


def random_terms(rng, chart, parity, n_terms, fiber_degree=None):
    """Distinct monomials {variable name: exponent} with rational coefficients.

    Each monomial is parity-homogeneous (and of the given fiber degree when
    one is asked for); odd variables appear at most once.
    """
    terms = {}
    while len(terms) < n_terms:
        exps = {}
        for v in chart.variables:
            if v.kind == "t":
                e = Fraction(rng.choice(T_EXPONENTS))
            elif v.kind == "tstar":
                e = 1 if rng.random() < 0.3 else 0
            elif v.parity == ODD:
                e = 1 if rng.random() < 0.35 else 0
            else:
                e = rng.choice((0, 0, 1, 1, 2))
            if e:
                exps[v.name] = e
        odd = sum(1 for n in exps if chart.var(n).parity == ODD) % 2
        fib = sum(1 for n in exps if chart.var(n).kind in ("fiber", "tstar"))
        if odd != parity or (fiber_degree is not None and fib != fiber_degree):
            continue
        key = tuple(sorted(exps.items()))
        if key not in terms:
            terms[key] = Fraction(rng.choice(COEFFS))
    return terms


def poly(chart, terms):
    return poly_from_dict(
        {
            "terms": [
                {"coeff": str(c), "exponents": {n: str(e) for n, e in key}}
                for key, c in terms.items()
            ]
        },
        chart,
    )


def dsl_text(terms):
    """The same polynomial as DSL source text."""
    pieces = []
    for key, c in terms.items():
        factors = [str(c)]
        for name, e in key:
            if e == 1:
                factors.append(name)
            elif isinstance(e, Fraction) and (e.denominator != 1 or e < 0):
                factors.append("%s^(%s)" % (name, e))
            else:
                factors.append("%s^%s" % (name, e))
        pieces.append("*".join(factors))
    return " + ".join(pieces) if pieces else "0"


def sign(e):
    return -1 if e % 2 else 1


def texts(*polys):
    return "\n".join(poly_to_text(f) for f in polys)


# ---------------------------------------------------------------------------
# algebra: products, brackets, divergence and delta on fresh 10-term inputs
# ---------------------------------------------------------------------------

ALGEBRA_CHARTS = (
    (("x", EVEN), ("y", EVEN), ("xi", ODD), ("eta", ODD)),
    (("x", EVEN), ("y", EVEN), ("z", EVEN), ("xi", ODD)),
)
ALGEBRA_TERMS = 10
ALGEBRA_TRIPLES = 4


def algebra_jobs(tag, f, fp, g, gp, h, hp):
    """Five requests on one triple: the operations and four identities.

    Identity jobs return (left side, residual); the residual must be zero.
    """
    s0, s1 = D.PINNED.generator_sign

    def ops():
        return (f * g, D.antibracket(f, g), D.divergence(f), D.delta_op(f))

    def symmetry():
        lhs = D.antibracket(f, g)
        return lhs, lhs - sign(fp * gp) * D.antibracket(g, f)

    def jacobi():
        lhs = D.antibracket(f, D.antibracket(g, h))
        rhs = sign(fp + 1) * D.antibracket(D.antibracket(f, g), h) + sign(
            (fp + 1) * (gp + 1)
        ) * D.antibracket(g, D.antibracket(f, h))
        return lhs, lhs - rhs

    def leibniz():
        lhs = D.antibracket(f * g, h)
        rhs = sign(fp) * (f * D.antibracket(g, h)) + sign(gp * hp) * (
            D.antibracket(f, h) * g
        )
        return lhs, lhs - rhs

    def generator():
        lhs = D.delta_op(f * g) - D.delta_op(f) * g - sign(fp) * (f * D.delta_op(g))
        return lhs, lhs - sign(s0 + s1 * fp) * D.antibracket(f, g)

    def verify_ops(out):
        return texts(*out), {"terms": [len(x.terms) for x in out]}, []

    def verify_identity(name):
        def verify(out):
            lhs, residual = out
            problems = [] if residual.is_zero() else ["%s identity fails" % name]
            return texts(lhs, residual), {"terms": [len(lhs.terms)]}, problems

        return verify

    return [
        Job(tag + ".ops", ops, verify_ops),
        Job(tag + ".symmetry", symmetry, verify_identity("graded symmetry")),
        Job(tag + ".jacobi", jacobi, verify_identity("odd Jacobi")),
        Job(tag + ".leibniz", leibniz, verify_identity("Leibniz")),
        Job(tag + ".generator", generator, verify_identity("generator")),
    ]


def algebra_pass(p):
    rng = random.Random("algebra:%d" % p)
    jobs = []
    for k in range(ALGEBRA_TRIPLES):
        chart = Chart(ALGEBRA_CHARTS[k % len(ALGEBRA_CHARTS)], hatted=True)
        args = []
        for _ in range(3):
            parity = rng.choice((EVEN, ODD))
            args += [poly(chart, random_terms(rng, chart, parity, ALGEBRA_TERMS)), parity]
        jobs += algebra_jobs("p%d.t%d" % (p, k), *args)
    return jobs


# ---------------------------------------------------------------------------
# classify: Poisson-lift classification on sparse and denser matrices
# ---------------------------------------------------------------------------

# (kind, size, bounds): Darboux charts of dimension n, PiTR^n through
# q_manifold_lifts, and the two shipped Lie algebras in the given basis and
# after a seeded change of basis.  Darboux n=4 at bound 3 comes twice more,
# scaled differently: with so3 at bound 4 it makes a group of four jobs of
# about equal cost around the 90th percentile, so job_p90_ms falls inside
# that group rather than between two shapes.
CLASSIFY_SHAPES = (
    ("darboux", 2, (1, 2, 3, 4)),
    ("darboux", 4, (1, 2, 3, 4)),
    ("darboux", 4, (3,)),
    ("darboux", 4, (3,)),
    ("darboux", 6, (1, 2)),
    ("pitr", 1, (1, 2, 3, 4)),
    ("pitr", 2, (1, 2, 3, 4)),
    ("pitr", 3, (1, 2)),
    ("pitr", 4, (1, 2)),
    ("so3", 0, (1, 2, 3, 4)),
    ("so3-changed", 0, (1, 2, 3, 4)),
    ("solvable", 0, (1, 2, 3, 4)),
    ("solvable-changed", 0, (1, 2, 3, 4)),
)
LIE_FILES = {"so3": "demos/so3.json", "solvable": "demos/solvable.json"}
PITR_NAMES = (("x", "dx"), ("u", "du"), ("q", "dq"), ("y", "dy"))
SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3))


def unimodular(rng, n):
    """A seeded integer matrix of determinant 1 (lower times upper unitriangular)."""
    lower = [[int(i == j) or (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def rank_mod_prime(columns):
    """Rank over GF(RANK_PRIME) of the matrix whose columns are {row key: Fraction}.

    It never exceeds the rank over the rationals, so rank_p + kernel dim =
    columns certifies the exact rank together with the kernel checks.
    """
    p = RANK_PRIME
    pivots = {}  # pivot key -> reduced column with 1 at the pivot
    rank = 0
    for col in columns:
        v = {k: c.numerator * pow(c.denominator, -1, p) % p for k, c in col.items()}
        v = {k: c for k, c in v.items() if c}
        while v:
            k = min(v)
            if k not in pivots:
                inv = pow(v[k], -1, p)
                pivots[k] = {kk: c * inv % p for kk, c in v.items()}
                rank += 1
                break
            c = v[k]
            for kk, pc in pivots[k].items():
                nv = (v.get(kk, 0) - c * pc) % p
                if nv:
                    v[kk] = nv
                else:
                    v.pop(kk, None)
    return rank


def classify_verify(s_body):
    def verify(kb):
        problems = []
        elements = kb.elements()
        for i, Q in enumerate(elements):
            if not D.antibracket(s_body, Q).is_zero():
                problems.append("basis element %d does not solve (s, Q) = 0" % i)
        images = [D.antibracket(s_body, q).terms for q in kb.ansatz]
        cols = len(kb.ansatz)
        rows = len({k for img in images for k in img})
        nnz = sum(len(img) for img in images)
        rank = rank_mod_prime(images)
        if rank + kb.dimension != cols:
            problems.append(
                "rank %d + kernel dimension %d != %d columns" % (rank, kb.dimension, cols)
            )
        text = "\n".join(
            ["dimension %d" % kb.dimension]
            + [" ".join(str(x) for x in vec) for vec in kb.basis]
            + [poly_to_text(e) for e in elements]
        )
        size = {"cols": cols, "rows": rows, "nnz": nnz, "rank": rank, "kernel_dim": kb.dimension}
        return text, size, problems

    return verify


def classify_pass(p):
    rng = random.Random("classify:%d" % p)
    lie = {name: D.LieAlgebraData.from_json(path) for name, path in LIE_FILES.items()}
    jobs = []
    for kind, n, bounds in CLASSIFY_SHAPES:
        if kind == "pitr":
            xn, dxn = rng.choice(PITR_NAMES)
            chart = Chart(
                [("%s%d" % (xn, a), EVEN) for a in range(n)]
                + [("%s%d" % (dxn, a), ODD) for a in range(n)]
            )
            s_body = chart.zero()
            for a in range(n):
                s_body = s_body + chart["%s%d" % (dxn, a)] * chart["#%s%d" % (xn, a)]
            for b in bounds:
                run = (lambda chart=chart, b=b: D.q_manifold_lifts(chart, b))
                jobs.append(Job("p%d.j%d.pitr%d.b%d" % (p, len(jobs), n, b), run, classify_verify(s_body)))
            continue
        if kind == "darboux":
            half = n // 2
            chart = Chart([("p%d" % i, EVEN) for i in range(half)] + [("x%d" % i, EVEN) for i in range(half)])
            s_body = chart.zero()
            for i in range(half):
                s_body = s_body + chart["#p%d" % i] * chart["#x%d" % i]
            label = "darboux%d" % n
        else:
            name = kind.split("-")[0]
            g = lie[name]
            if kind.endswith("-changed"):
                g = classify_mod.change_basis(g, unimodular(rng, g.dimension))
            s_body = D.lie_poisson(g).body
            label = kind
        s = DensityElement(rng.choice(SCALES) * s_body, 0)
        for b in bounds:
            run = (lambda s=s, b=b: D.classify_lifts(s, b))
            jobs.append(Job("p%d.j%d.%s.b%d" % (p, len(jobs), label, b), run, classify_verify(s.body)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# scripts: DSL scripts through densalg.cli.main([..., "--json"])
# ---------------------------------------------------------------------------

# Most scripts are light structure scripts; one in four is a heavy transport
# script, so the median job and the 90th percentile each fall inside one kind.
SCRIPT_SHAPES = ("structure", "structure", "structure", "transport")
SCRIPTS_PER_PASS = 16
LIFT_WEIGHTS = ("0", "2", "1/2", "-1", "3/2", "-1/3")


def transport_script(rng):
    """Charts, a unipotent change, lifts at weights other than 1, transforms."""
    a, b, c = (rng.choice(("1", "2", "-1", "1/2", "-3")) for _ in range(3))
    A = Chart([("x", EVEN), ("y", EVEN), ("r", EVEN), ("m", EVEN)])
    AH = A.hatted_version()
    fa = random_terms(rng, A, ODD, 6, fiber_degree=1)
    ga = random_terms(rng, A, rng.choice((EVEN, ODD)), 4)
    Sa = random_terms(rng, AH, rng.choice((EVEN, ODD)), 6)
    zr = "(r - %s*m^2)" % c
    vy = "(y - %s*%s^2)" % (b, zr)
    return "\n".join([
        "chart B { even u, v, z, k }",
        "chart A { even x, y, r, m }",
        "change R : A -> B {",
        "  forward { x = u + %s*v^2; y = v + %s*z^2; r = z + %s*k^2; m = k }" % (a, b, c),
        "  inverse { u = x - %s*%s^2; v = %s; z = %s; k = m }" % (a, vy, vy, zr),
        "}",
        "let fa = " + dsl_text(fa),
        "let ga = " + dsl_text(ga),
        "lift(fa, %s)" % rng.choice(LIFT_WEIGHTS),
        "transform(fa, R)",
        "div(fa)",
        "bracket(fa, ga)",
        "chart AH hatted { even x, y, r, m }",
        "let Sa = " + dsl_text(Sa),
        "transform(Sa, R)",
        "project(Sa)",
        "delta(Sa)",
        "",
    ])


def structure_script(rng):
    """Poisson structures: master, r-ary brackets, a small classify, liealg."""
    c = rng.choice(("1", "2", "-1/2", "3"))
    so3 = "%s*(x3*#x2*#x1 + x1*#x3*#x2 + x2*#x1*#x3)" % c
    C = Chart([("x1", EVEN), ("x2", EVEN), ("x3", EVEN)])
    f1 = random_terms(rng, C, EVEN, 2, fiber_degree=0)
    f2 = random_terms(rng, C, EVEN, 2, fiber_degree=0)
    P = Chart([("p", EVEN), ("q", EVEN)])
    vf = random_terms(rng, P, ODD, 3, fiber_degree=1)
    return "\n".join([
        "chart C { even x1, x2, x3 }",
        "master(%s)" % so3,
        "rary(%s; %s, %s)" % (so3, dsl_text(f1), dsl_text(f2)),
        "chart P { even p, q }",
        "classify(%s*#p*#q, 0, %d)" % (rng.choice(("1", "-2", "1/3")), rng.choice((1, 2))),
        "lift(%s, %s)" % (dsl_text(vf), rng.choice(LIFT_WEIGHTS)),
        'liealg("%s")' % rng.choice(sorted(LIE_FILES.values())),
        "",
    ])


def script_verify(out):
    code, stdout, stderr = out
    problems = [] if code == 0 else ["exit code %d: %s" % (code, stderr.strip())]
    lines = stdout.splitlines()
    terms = 0
    for line in lines:
        terms += stdout_terms(line)
    return "exit %d\n%s" % (code, stdout), {"lines": len(lines), "terms": terms}, problems


def stdout_terms(line):
    """Number of polynomial terms in one JSON output line."""

    def count(node):
        if isinstance(node, dict):
            if "terms" in node and "chart" in node:
                return len(node["terms"])
            return sum(count(v) for v in node.values())
        if isinstance(node, list):
            return sum(count(v) for v in node)
        return 0

    return count(json.loads(line))


def scripts_pass(p):
    rng = random.Random("scripts:%d" % p)
    jobs = []
    for k in range(SCRIPTS_PER_PASS):
        shape = SCRIPT_SHAPES[k % len(SCRIPT_SHAPES)]
        text = (structure_script if shape == "structure" else transport_script)(rng)
        run = (lambda text=text: run_cli(["--json"], text))
        jobs.append(Job("p%d.%s%d" % (p, shape, k), run, script_verify))
    return jobs


# ---------------------------------------------------------------------------
# pinning: pin_convention and the densalg --ledger path
# ---------------------------------------------------------------------------

SHIPPED_SEED = 2024
LEDGER_DOC = "docs/convention_ledger.txt"
LEDGER_TRAILER = "\n(Regenerate with: densalg --ledger)\n"
LEDGERS_PER_PASS = 2


def pin_job(tag, seed):
    def verify(conv):
        problems = [] if conv == D.PINNED else ["seed %d pins %r" % (seed, conv)]
        return repr(conv), {"seed": seed}, problems

    return Job(tag, lambda: D.pin_convention(seed), verify)


def ledger_job(tag, seed):
    def verify(out):
        code, stdout, stderr = out
        problems = [] if code == 0 else ["exit code %d: %s" % (code, stderr.strip())]
        if seed == SHIPPED_SEED:
            with open(LEDGER_DOC, encoding="utf-8") as fh:
                if stdout + LEDGER_TRAILER != fh.read():
                    problems.append("seed-%d ledger differs from %s" % (seed, LEDGER_DOC))
        return stdout, {"lines": len(stdout.splitlines())}, problems

    return Job(tag, lambda: run_cli(["--ledger", "--seed", str(seed)]), verify)


def pinning_pass(p):
    """Pass 0 pins and renders the ledger at the shipped seed 2024; every
    other pass uses seeds of its own."""
    rng = random.Random("pinning:%d" % p)
    seeds = [rng.randrange(1, 10**6) for _ in range(1 + LEDGERS_PER_PASS)]
    if p == 0:
        seeds[:2] = [SHIPPED_SEED, SHIPPED_SEED]
    jobs = [pin_job("p%d.pin%d" % (p, seeds[0]), seeds[0])]
    for s in seeds[1:]:
        jobs.append(ledger_job("p%d.ledger%d" % (p, s), s))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[int], list]
    passes: int  # catalogue size
    fixed_first: bool = False  # every run starts with pass 0

    def pass_order(self, seed):
        rest = list(range(1 if self.fixed_first else 0, self.passes))
        random.Random(seed).shuffle(rest)
        return ([0] if self.fixed_first else []) + rest


WORKLOADS = {
    w.name: w
    for w in (
        Workload("algebra", algebra_pass, 48),
        Workload("classify", classify_pass, 32),
        Workload("scripts", scripts_pass, 128),
        Workload("pinning", pinning_pass, 12, fixed_first=True),
    )
}
