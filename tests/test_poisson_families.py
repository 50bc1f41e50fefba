"""The paper's claims on Poisson structures built to be Poisson: every
structure here satisfies the master equation by construction, so each check
below holds on any seed.

The 3D Jacobian structures s = d_z C #y #x + d_x C #z #y + d_y C #x #z come
from a random Casimir C (`conftest.jacobian_structure`), 20 per test on one
seed.  They are unimodular, div(s) = 0, so their lift adds no w-term.  The
planar sums s = f(a, b) #a #b + g(c, d) #c #d (`conftest.planar_structure`),
also 20 per test on one seed, are not: their lift is Poisson at weight 0 and
at any other weight lambda misses it by exactly -2 lambda s Y t^(2 lambda),
with Y = div(s)^tw / (1 - lambda) its w-coefficient.  An affine change of
coordinates R carries the classification of s onto that of R s: equal kernel
dimensions at each degree bound, and (R s, R Q) = 0 for each kernel element Q.
"""
import random
from fractions import Fraction

import pytest

from densalg import Chart, CoordinateChange, DensityElement, EVEN, antibracket, classify_lifts
from densalg import decompose, divergence, lift, master_check, r_ary_bracket, transform_density
from densalg.classify import attach_correction
from conftest import jacobian_structure, planar_structure

TRIALS = 20


def check_hamiltonian_corrections(rng, chart, structures):
    """Q = (s, f) for a random base monomial f is in the kernel of (s, -), so
    lift(s) + Q w is a Poisson lift above s that decomposes back to Q; at
    least half of the Q are nonzero."""
    nonzero = 0
    for s in structures:
        f = chart.const(1)
        for name, _ in chart.base_coords:
            f = f * chart[name] ** rng.randint(0, 2)
        Q = antibracket(s, f)
        nonzero += bool(Q)
        assert not antibracket(s, Q)
        S = attach_correction(DensityElement(s, 0), Q)
        assert not master_check(S)
        assert decompose(S, DensityElement(s, 0)) == Q
    assert nonzero >= TRIALS // 2


def affine_change(source, target, U, c):
    """The change x = U u + c from `source` (x) to `target` (u), U upper
    triangular with a nonzero diagonal; the inverse u = U^-1 (x - c) comes
    from back substitution, the last new coordinate first."""
    xs = [name for name, _ in source.base_coords]
    us = [name for name, _ in target.base_coords]
    n = len(xs)
    forward = {xs[i]: target.sum([U[i][j] * target[us[j]] for j in range(i, n)]) + c[i]
               for i in range(n)}
    inverse = {}
    for i in reversed(range(n)):
        known = source.sum([U[i][j] * inverse[us[j]] for j in range(i + 1, n)])
        inverse[us[i]] = (source[xs[i]] - c[i] - known) / U[i][i]
    return CoordinateChange(source, target, forward, inverse)


@pytest.fixture
def xyz():
    return Chart([("x", EVEN), ("y", EVEN), ("z", EVEN)])


@pytest.fixture
def structures(xyz):
    rng = random.Random(7)
    return [jacobian_structure(rng, xyz) for _ in range(TRIALS)]


class TestJacobianStructures:
    def test_master_equation_and_casimir(self, structures):
        for s, C in structures:
            assert not master_check(s)
            assert not antibracket(s, C)
            assert not master_check(lift(DensityElement(s, 0)))
            assert not divergence(s)  # unimodular, so the lift adds no w-term

    def test_induced_bracket_is_the_jacobian(self, xyz, structures):
        x = [xyz[name] for name in "xyz"]
        for s, C in structures:
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                assert r_ary_bracket(s, [x[i], x[j]]) == C.derive_left(xyz.var("xyz"[k]))

    def test_hamiltonian_corrections(self, xyz, structures):
        check_hamiltonian_corrections(random.Random(8), xyz, [s for s, _ in structures])


@pytest.fixture
def abcd():
    return Chart([(name, EVEN) for name in "abcd"])


@pytest.fixture
def planar(abcd):
    rng = random.Random(11)
    return [planar_structure(rng, abcd) for _ in range(TRIALS)]


class TestPlanarStructures:
    def test_master_equation_and_modular_field(self, planar):
        for s in planar:
            assert not master_check(s)
            assert not antibracket(s, divergence(s))  # (s, div s) = 0 for Poisson s
        # not unimodular: the lift gains a w-term
        assert all(divergence(s) for s in planar)

    def test_lift_at_weight_zero_is_poisson(self, planar):
        for s in planar:
            assert not master_check(lift(DensityElement(s, 0)))

    def test_lift_residual_at_other_weights(self, abcd, planar):
        # (S, S) = 2 (s, Y) t^(2 lam + 1) #t - 2 lam s Y t^(2 lam) for
        # S = s t^lam + Y t^(lam + 1) #t, and (s, Y) = 0 for Y proportional to div s
        h = abcd.hatted_version()
        for lam in (Fraction(2), Fraction(-1, 2), Fraction(1, 3)):
            for s in planar:
                Y = divergence(s).parity_twist() / (1 - lam)
                residual = (-2 * lam * (s * Y)).transport(h, 2 * lam)
                assert residual
                assert master_check(lift(DensityElement(s, lam))) == residual

    def test_hamiltonian_corrections(self, abcd, planar):
        check_hamiltonian_corrections(random.Random(12), abcd, planar)


class TestAffineEquivariance:
    # x = U u + c: integer entries above the diagonal and a small translation;
    # the second change has the diagonal entry -2/3, so det J = -2/3
    @pytest.mark.parametrize("U, c", [
        ([[1, 2, 0, -1], [0, 1, 1, 0], [0, 0, 1, 3], [0, 0, 0, 1]], [1, 0, -2, 1]),
        ([[1, -1, 2, 0], [0, Fraction(-2, 3), 1, 1], [0, 0, 1, -2], [0, 0, 0, 1]], [0, 2, 1, -1]),
    ])
    def test_classification_is_equivariant(self, abcd, U, c):
        # R carries the kernel of (s, -) onto the kernel of (R s, -), degree
        # bound by degree bound, since an affine change keeps coefficient
        # degrees; s has degree at most 1 in each coordinate, so that R s stays
        # small and the kernels reach dimension 16
        R = affine_change(abcd, Chart([(name, EVEN) for name in "pqrs"]), U, c)
        rng = random.Random(13)
        kernel_elements = 0
        for s in (DensityElement(planar_structure(rng, abcd, degree=1), 0) for _ in range(3)):
            Rs = transform_density(s, R)
            for bound in (0, 1, 2):
                kernel = classify_lifts(s, bound)
                assert classify_lifts(Rs, bound).dimension == kernel.dimension
                for Q in kernel.elements():
                    assert not antibracket(Rs.body, transform_density(DensityElement(Q, 0), R).body)
                    kernel_elements += 1
        assert kernel_elements == 64
