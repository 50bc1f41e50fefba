"""Shared fixtures and independent reference implementations for the suite.

The oracles here are deliberately naive re-implementations (dense
Gauss-Jordan over Fraction, explicit sign counting for derivatives) so the
kernel's optimized paths are checked against something independently coded.
"""
import random
from fractions import Fraction

import pytest

from densalg import Chart, EVEN, ODD
from densalg.brackets import _random_homogeneous


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


def random_poly(rng, chart, parity=None, n_terms=3):
    """Parity-homogeneous random polynomial (random parity when None)."""
    if parity is None:
        parity = rng.choice([EVEN, ODD])
    return _random_homogeneous(rng, chart, parity, n_terms=n_terms)


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
