"""The Bianchi table: the classification of lifts on every 3-dimensional real
Lie algebra, against closed forms and recorded kernel dimensions."""
import random
from fractions import Fraction

import pytest

from densalg import DomainError, classify_lifts, supertrace_extension
from densalg.classify import change_basis, lie_poisson
from conftest import SEED, bianchi_table, row_space_rref

TABLE = bianchi_table()
# tr A of the non-unimodular (class B) types; every class-A type reads 0
TRACE = {"III": 1, "IV": 2, "V": 2, "VI_1/3": Fraction(4, 3), "VII_1/3": Fraction(2, 3)}
# classify_lifts dimensions of the Lie-Poisson element at bounds 0-3
DIMENSIONS = {
    "II": [2, 8, 18, 33],
    "III": [2, 6, 13, 24],
    "IV": [1, 5, 11, 21],
    "V": [1, 7, 13, 23],
    "VI_0": [1, 5, 11, 22],
    "VI_1/3": [1, 5, 11, 22],
    "VII_0": [1, 5, 11, 22],
    "VII_1/3": [1, 5, 11, 21],
    "VIII": [0, 3, 8, 18],
    "IX": [0, 3, 8, 18],
}


def kernel_dimensions(g):
    s = lie_poisson(g)
    return [classify_lifts(s, bound).dimension for bound in range(4)]


def derived_dimension(g):
    """dim [g, g]: the rank of the brackets [e_i, e_j] as coordinate vectors."""
    n = g.dimension
    brackets = [[g.c(i, j, k) for k in range(n)] for i in range(n) for j in range(i + 1, n)]
    return len(row_space_rref(brackets, n))


def random_basis_change(rng, n):
    """P = L D U: L unit lower and U unit upper triangular with small integer
    entries, D a diagonal of nonzero rationals, so P is invertible."""
    L = [[1 if i == j else rng.randint(-2, 2) * (i > j) for j in range(n)] for i in range(n)]
    U = [[1 if i == j else rng.randint(-2, 2) * (i < j) for j in range(n)] for i in range(n)]
    D = [rng.choice((1, -1, 2, Fraction(-1, 2), Fraction(3, 2))) for _ in range(n)]
    return [[sum(L[i][k] * D[k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", sorted(TABLE))
def test_supertrace_functional_is_the_trace_of_A(name):
    assert supertrace_extension(TABLE[name]) == (TRACE.get(name, 0), 0, 0)


@pytest.mark.parametrize("name", sorted(DIMENSIONS))
def test_kernel_dimensions(name):
    g = TABLE[name]
    dims = kernel_dimensions(g)
    assert dims == DIMENSIONS[name]
    # at bound 0 the kernel is the constant fields that vanish on [g, g], the
    # characters of g: dim H^1(g) = 3 - dim [g, g]
    assert dims[0] == 3 - derived_dimension(g)
    rng = random.Random(SEED + sorted(DIMENSIONS).index(name))
    assert kernel_dimensions(change_basis(g, random_basis_change(rng, 3))) == dims


def test_type_I_is_refused():
    with pytest.raises(DomainError, match="s = 0 has no fiber degree"):
        classify_lifts(lie_poisson(TABLE["I"]), 0)
