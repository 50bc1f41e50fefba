"""Shared fixtures and independent reference implementations for the suite.

The oracles here are deliberately naive re-implementations (dense
Gauss-Jordan over Fraction, explicit sign counting for derivatives, swap
counting for products, the bracket and divergence formulas summed term by
term) so the kernel's optimized paths are checked against something
independently coded.
"""
import itertools
import random
from fractions import Fraction

import pytest

from densalg import Chart, DensityElement, EVEN, ODD, PINNED, LieAlgebraData, SPoly, antibracket
from densalg import poly_from_dict
from densalg.brackets import _random_homogeneous
from densalg.classify import attach_correction, darboux_form
from densalg.spoly import _T_UNIT


SEED = 20240824


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def chart():
    """The standard laptop-scale test chart: two even, two odd coordinates."""
    return Chart([("x", EVEN), ("y", EVEN), ("xi", ODD), ("eta", ODD)])


@pytest.fixture
def small_chart():
    return Chart([("x", EVEN), ("y", EVEN), ("xi", ODD)])


def sparse(key):
    """The sparse view of a monomial key: its (variable index, exponent) pairs
    with a nonzero exponent, in index order."""
    return tuple((idx, e) for idx, e in enumerate(key) if e)


def dense(chart, pairs):
    """The monomial key of a sparse view: one exponent slot per chart variable."""
    key = [0] * len(chart.variables)
    for idx, e in pairs:
        key[idx] = e
    return tuple(key)


def unit(v):
    """The key slot value of v^1: t's slot holds its exponent times spoly's
    `_T_UNIT`, every other slot the exponent itself."""
    return _T_UNIT if v.kind == "t" else 1


def random_poly(rng, chart, parity=None, n_terms=3):
    """Parity-homogeneous random polynomial (random parity when None)."""
    if parity is None:
        parity = rng.choice([EVEN, ODD])
    return _random_homogeneous(rng, chart, parity, n_terms=n_terms)


def reference_product(chart, f, g):
    """Product oracle: for each pair of monomials, write the odd factors of
    the first and then of the second out in order, bubble-sort them into
    chart order and count the swaps; a repeated odd factor kills the pair."""
    out = {}
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            odd = [idx for idx, _ in sparse(k1) + sparse(k2)
                   if chart.variables[idx].parity == ODD]
            if len(set(odd)) < len(odd):
                continue
            swaps = 0
            for end in range(len(odd) - 1, 0, -1):
                for i in range(end):
                    if odd[i] > odd[i + 1]:
                        odd[i], odd[i + 1] = odd[i + 1], odd[i]
                        swaps += 1
            exps = {}
            for idx, e in sparse(k1) + sparse(k2):
                exps[idx] = exps.get(idx, 0) + Fraction(e)
            key = dense(chart, sorted((idx, e) for idx, e in exps.items() if e))
            c = Fraction(c1) * Fraction(c2) * (-1) ** swaps
            out[key] = out.get(key, 0) + c
    return SPoly(chart, {k: c for k, c in out.items() if c})


def reference_substitute(f, images, target):
    """Substitution oracle: each term of f is rebuilt on `target` as its
    coefficient times one image factor per unit of exponent, in slot order, by
    `reference_product`; a variable without an image keeps its factor, and t
    with the image c*t gives c^e t^e, the root of c found by a float guess
    checked exactly."""
    chart = f.chart
    total = {}
    for key, coeff in f.terms.items():
        acc = SPoly(target, {target.zero_key: Fraction(coeff)})
        for idx, e in sparse(key):
            v = chart.variables[idx]
            image, times = images.get(v), e
            if image is None:
                image, times = SPoly(target, {dense(target, ((idx, e),)): 1}), 1
            elif v.kind == "t":
                (_, c), = image.terms.items()
                t_e = dense(target, ((target.t_var.index, e),))  # t^e keeps its slot
                e = Fraction(e, unit(v))
                root = Fraction(float(c) ** (1 / e.denominator)).limit_denominator(10 ** 6)
                assert root ** e.denominator == c
                image, times = SPoly(target, {t_e: root ** e.numerator}), 1
            for _ in range(times):
                acc = reference_product(target, acc, image)
        for k, c in acc.terms.items():
            total[k] = total.get(k, 0) + c
    return SPoly(target, {k: c for k, c in total.items() if c})


HATTED_T_EXPONENTS = (0, 1, 2, -1, Fraction(1, 2), Fraction(-3, 2))
# every denominator a t-derivative must clear: 1/17 takes a Fraction t slot
MIXED_T_EXPONENTS = (0, 1, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 17))


def hatted_poly(rng, chart, n_terms=4, t_exps=HATTED_T_EXPONENTS):
    """A random polynomial on a hatted chart with the values random_poly does
    not draw: t^(1/2), t^(-1) and fractional coefficients, #t included; t's
    exponent is drawn from `t_exps`."""
    coeffs = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3))
    terms = []
    for _ in range(n_terms):
        exps = {}
        for v in chart.variables:
            if v.kind == "t":
                e = rng.choice(t_exps)
            elif v.parity == ODD:
                e = rng.choice((0, 1))
            else:
                e = rng.choice((0, 0, 1, 2))
            if e:
                exps[v.name] = str(e)
        term = {"coeff": str(rng.choice(coeffs)), "exponents": exps}
        terms.append(poly_from_dict({"terms": [term]}, chart))
    return chart.sum(terms)


def reference_derivative(chart, key, coeff, v, left):
    """Sign-counting oracle for the directional derivative of one monomial."""
    kd = dict(sparse(key))
    if v.index not in kd:
        return {}
    exp = kd[v.index]
    if v.parity == EVEN:
        kd[v.index] = exp - unit(v)
        if not kd[v.index]:
            del kd[v.index]
        return {dense(chart, sorted(kd.items())): coeff * Fraction(exp, unit(v))}
    # odd: count odd factors strictly before (left) / after (right) v in the
    # canonical factor order
    odd_positions = [idx for idx, _ in sorted(kd.items()) if chart.variables[idx].parity == ODD]
    pos = odd_positions.index(v.index)
    flips = pos if left else len(odd_positions) - 1 - pos
    del kd[v.index]
    sign = -1 if flips % 2 else 1
    return {dense(chart, sorted(kd.items())): coeff * sign}


def reference_bracket(chart, f, g, conv):
    """Bracket oracle: the SignConvention formula written out term by term.

    f is split by counting the odd factors of each term; every derivative is
    summed from `reference_derivative` and every product is `reference_product`.
    """
    def derive(p, v, left):
        out = {}
        for key, coeff in p.terms.items():
            for k, c in reference_derivative(chart, key, coeff, v, left).items():
                out[k] = out.get(k, 0) + c
        return SPoly(chart, {k: c for k, c in out.items() if c})

    parts = ({}, {})
    for key, coeff in f.terms.items():
        odd = sum(e for idx, e in sparse(key) if chart.variables[idx].parity == ODD)
        parts[int(odd) % 2][key] = coeff
    names = [name for name, _ in chart.base_coords] + (["t"] if chart.hatted else [])
    total = {}
    for fp, part in enumerate(parts):
        part = SPoly(chart, part)
        for name in names:
            q, qs = chart.var(name), chart.var("#" + name)
            a = q.parity
            for e, x, y in ((conv.term_q_qstar, q, qs), (conv.term_qstar_q, qs, q)):
                sign = (-1) ** (e[0] + e[1] * a + e[2] * fp + e[3] * a * fp)
                df = derive(part, x, left=False)
                dg = derive(g, y, left=True)
                for k, c in reference_product(chart, df, dg).terms.items():
                    total[k] = total.get(k, 0) + sign * c
    return SPoly(chart, {k: c for k, c in total.items() if c})


def reference_divergence(chart, f, conv, full=False):
    """Divergence oracle: sum over the base pairs, and (t, #t) when `full`, of
    (-1)^(div_parity * parity(q)) d_q d_q* f, both derivatives summed term by
    term from `reference_derivative` on the convention's side."""
    left = conv.div_side == "left"
    names = [name for name, _ in chart.base_coords] + (["t"] if full else [])
    total = {}
    for name in names:
        q, qs = chart.var(name), chart.var("#" + name)
        sign = (-1) ** (conv.div_parity * q.parity)
        for key, coeff in f.terms.items():
            for k1, c1 in reference_derivative(chart, key, coeff, qs, left).items():
                for k2, c2 in reference_derivative(chart, k1, c1, q, left).items():
                    total[k2] = total.get(k2, 0) + sign * c2
    return SPoly(chart, {k: c for k, c in total.items() if c})


def product_divergence_wrt(f, rho):
    """divergence_wrt oracle, the product route: rho^-1 times the divergence
    of f rho against |D(x,t)| (`reference_divergence` over every pair) for the
    density coefficient rho = c t^mu, with rho^-1 = (1/c) t^-mu."""
    (key, c), = rho.terms.items()
    t = rho.chart.t_var
    mu = Fraction(key[t.index], unit(t))
    full = reference_divergence(rho.chart, f * rho, PINNED, full=True)
    return (Fraction(1) / c) * rho.chart.t_power(-mu) * full


def direct_density_evolution(H, f, psi, lam):
    """Evolution oracle: the direct route ((Omega, H), Psi) through the lifted
    structure, Omega = lift(omega) + X_f w on the hatted chart and Psi = psi t^lam.
    The iterated bracket carries the same accumulator-parity signs as
    r_ary_bracket, and the Hamiltonian field is oriented to match under the
    pinned sign convention."""
    chart = H.chart
    hchart = chart.hatted_version()
    omega = darboux_form(chart)
    omega_x = attach_correction(DensityElement(omega, Fraction(0)), -antibracket(omega, f))
    flow = antibracket(omega_x, H.transport(hchart)).parity_twist()
    return antibracket(flow, psi.transport(hchart, Fraction(lam)))


def dense_nullspace(rows, n_cols):
    """Reference kernel basis: plain Gauss-Jordan over Fraction.

    Independent of the sparse row reduction in the package: dense rows, row
    swaps, and every row eliminated at each pivot.
    """
    M = [[Fraction(x) for x in row] for row in rows]
    m = len(M)
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, m):
            if M[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for k, pc in enumerate(pivots):
            vec[pc] = -M[k][fc]
        basis.append(tuple(vec))
    return basis


def densify(vectors, n_cols):
    """Sparse {column: value} kernel vectors as dense tuples over n_cols
    columns; the stored values are kept as they are."""
    return [tuple(vec.get(c, Fraction(0)) for c in range(n_cols)) for vec in vectors]


def row_space_rref(vectors, n_cols):
    """Canonical form of span(vectors): RREF rows as a tuple (span equality
    test for basis comparison)."""
    M = [[Fraction(x) for x in v] for v in vectors]
    m = len(M)
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, m):
            if M[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
    return tuple(tuple(row) for row in M[:r])


def dense_kernel_matrix(s, ansatz):
    """The linear map Q -> (s, Q) over `ansatz` as a dense rational matrix:
    one row per monomial of the images, in sorted order, one column per
    ansatz entry."""
    images = [antibracket(s.body, q) for q in ansatz]
    keys = sorted({k for img in images for k in img.terms})
    return [[img.terms.get(k, Fraction(0)) for img in images] for k in keys]


def reference_monomial_ansatz(chart, fiber_degree, coeff_degree_bound, parity):
    """Reference ansatz: filter the full box of exponent vectors, then sort by
    (base exponents, fiber exponents).  Odd variables take 0 or 1; the fiber
    exponents sum to fiber_degree, the even base ones to at most the bound; the
    constant monomial is admitted whatever its parity."""
    base_vars = [v for v, _ in chart.base_pairs()]
    fiber_vars = [f for _, f in chart.base_pairs()]

    def exponent_vectors(variables, total_cap, count_odd):
        ranges = [range(2 if v.parity == ODD else total_cap + 1) for v in variables]
        for exps in itertools.product(*ranges):
            counted = sum(
                e for v, e in zip(variables, exps) if count_odd or v.parity == EVEN
            )
            if counted <= total_cap:
                yield exps

    out = []
    for fexps in exponent_vectors(fiber_vars, fiber_degree, count_odd=True):
        if sum(fexps) != fiber_degree:
            continue
        for bexps in exponent_vectors(base_vars, coeff_degree_bound, count_odd=False):
            key = [(v.index, e) for v, e in zip(base_vars, bexps) if e]
            key += [(v.index, e) for v, e in zip(fiber_vars, fexps) if e]
            key = tuple(sorted(key))
            if chart.key_parity(dense(chart, key)) != parity and key != ():
                continue
            out.append((tuple(bexps), tuple(fexps), key))
    out.sort()
    return [SPoly(chart, {dense(chart, key): Fraction(1)}) for _, _, key in out]


def gl_super_constants(m, n):
    """gl(m|n) on the elementary matrices: E_ab is basis element a*(m+n) + b,
    of parity p_a + p_b with p = 0 on the first m indices and 1 on the rest.
    [A, B] = AB - (-1)^{|A||B|} BA is multiplied out as dense matrices and
    read back in the basis.  Returns (parities, [(i, j, k, C^{ij}_k)])."""
    size = m + n
    units = [(a, b) for a in range(size) for b in range(size)]
    parities = [(int(a >= m) + int(b >= m)) % 2 for a, b in units]
    mats = [[[int((r, c) == unit) for c in range(size)] for r in range(size)] for unit in units]

    def product(A, B):
        return [[sum(A[r][x] * B[x][c] for x in range(size)) for c in range(size)]
                for r in range(size)]

    constants = []
    for i, A in enumerate(mats):
        for j, B in enumerate(mats):
            sign = (-1) ** (parities[i] * parities[j])
            AB, BA = product(A, B), product(B, A)
            for k, (r, c) in enumerate(units):
                if AB[r][c] - sign * BA[r][c]:
                    constants.append((i, j, k, AB[r][c] - sign * BA[r][c]))
    return parities, constants


def super_jacobi_holds(g):
    """The super Jacobi identity [a, [b, c]] = [[a, b], c] + (-1)^{p_a p_b} [b, [a, c]]
    on every triple of basis elements, with brackets of {index: coefficient}
    vectors expanded bilinearly over the constants."""
    n, p = g.dimension, g.parities

    def br(u, v):
        out = {}
        for i, x in u.items():
            for j, y in v.items():
                for k in range(n):
                    out[k] = out.get(k, 0) + x * y * g.c(i, j, k)
        return {k: x for k, x in out.items() if x}

    e = [{i: 1} for i in range(n)]
    for a, b, c in itertools.product(range(n), repeat=3):
        rhs = br(br(e[a], e[b]), e[c])
        for k, x in br(e[b], br(e[a], e[c])).items():
            rhs[k] = rhs.get(k, 0) + (-1) ** (p[a] * p[b]) * x
        if br(e[a], br(e[b], e[c])) != {k: x for k, x in rhs.items() if x}:
            return False
    return True


def supertrace_of_ad(g):
    """(str ad e_1, ..., str ad e_n): ad e_j is the matrix with (k, i) entry
    C^{ji}_k, and str M = sum_i (-1)^{p_i} M_ii."""
    n = g.dimension
    out = []
    for j in range(n):
        ad = [[g.c(j, i, k) for i in range(n)] for k in range(n)]
        out.append(sum((-1) ** g.parities[i] * ad[i][i] for i in range(n)))
    return tuple(out)


def random_base_poly(rng, chart, names, n_terms, degree):
    """A random polynomial in the base coordinates `names` of `chart`: n_terms
    terms, each a small integer times every coordinate to a power in 0..degree."""
    f = chart.zero()
    for _ in range(n_terms):
        term = chart.const(rng.choice((-3, -2, -1, 1, 2, 3)))
        for name in names:
            term = term * chart[name] ** rng.randint(0, degree)
        f = f + term
    return f


def jacobian_structure(rng, chart, n_terms=3, degree=3):
    """A 3D Jacobian Poisson structure, Poisson by construction: (s, C) with
    C a random polynomial on the three base coordinates x, y, z of `chart`
    (terms of degree at most `degree` in each, small integer coefficients,
    redrawn until C is not constant) and

        s = d_z C #y #x + d_x C #z #y + d_y C #x #z,

    whose induced bracket is {x_i, x_j} = d_k C for cyclic (i, j, k) and which
    has C as a Casimir."""
    names = [name for name, _ in chart.base_coords]
    s = chart.zero()
    while not s:
        C = random_base_poly(rng, chart, names, n_terms, degree)
        dx, dy, dz = (C.derive_left(chart.var(name)) for name in names)
        xs, ys, zs = (chart["#" + name] for name in names)
        s = dz * ys * xs + dx * zs * ys + dy * xs * zs
    return s, C


def planar_structure(rng, chart, n_terms=3, degree=2):
    """A sum of 2D Poisson structures on disjoint coordinate pairs, Poisson by
    construction: the base coordinates of `chart`, all even, are taken in
    consecutive pairs (x, y), and

        s = sum over the pairs of f(x, y) #x #y

    with each f a random polynomial in its pair alone (`random_base_poly`,
    redrawn until f is not constant).  Every bivector on a plane is Poisson,
    and two of them on disjoint coordinates bracket to zero."""
    names = [name for name, _ in chart.base_coords]
    s = chart.zero()
    for x, y in zip(names[::2], names[1::2]):
        f = chart.zero()
        while not f - f.constant_term():
            f = random_base_poly(rng, chart, (x, y), n_terms, degree)
        s = s + f * chart["#" + x] * chart["#" + y]
    return s


def bianchi_table():
    """Every 3-dimensional real Lie algebra up to isomorphism (Bianchi 1898;
    Ellis & MacCallum 1969) as {type: LieAlgebraData}, built from structure
    constants with 1-based `LieAlgebraData.from_dict`.  I is abelian.  II, VIII
    (sl(2)) and IX (so(3)) read [e2, e3] = n1 e1, [e3, e1] = n2 e2 and
    [e1, e2] = n3 e3 with n = (1, 0, 0), (1, 1, -1) and (1, 1, 1).  The rest
    are R x_A R^2, [e1, e_j] = sum_i A_ij e_i over i, j in {2, 3}, with A =
    diag(1, 0) (III), [[1, 1], [0, 1]] (IV), I (V), diag(1, h) (VI_h) and
    [[h, -1], [1, h]] (VII_h), at h = 1/3 and at the class-A VI_0 = diag(1, -1)
    and VII_0 = [[0, -1], [1, 0]]."""
    def bracket(i, j, k, v):
        return [[i, j, k, v], [j, i, k, -v]] if v else []

    def cyclic(n):
        return [c for (i, j, k), v in zip(((2, 3, 1), (3, 1, 2), (1, 2, 3)), n)
                for c in bracket(i, j, k, v)]

    def semidirect(A):
        return [c for i in range(2) for j in range(2) for c in bracket(1, j + 2, i + 2, A[i][j])]

    h = Fraction(1, 3)
    constants = {
        "I": [],
        "II": cyclic((1, 0, 0)),
        "III": semidirect([[1, 0], [0, 0]]),
        "IV": semidirect([[1, 1], [0, 1]]),
        "V": semidirect([[1, 0], [0, 1]]),
        "VI_0": semidirect([[1, 0], [0, -1]]),
        "VI_1/3": semidirect([[1, 0], [0, h]]),
        "VII_0": semidirect([[0, -1], [1, 0]]),
        "VII_1/3": semidirect([[h, -1], [1, h]]),
        "VIII": cyclic((1, 1, -1)),
        "IX": cyclic((1, 1, 1)),
    }
    return {name: LieAlgebraData.from_dict({"dimension": 3, "constants": c})
            for name, c in constants.items()}
