"""The paper's claims on Poisson structures built to be Poisson: every
structure here satisfies the master equation by construction, so each check
below holds on any seed.

The 3D Jacobian structures s = d_z C #y #x + d_x C #z #y + d_y C #x #z come
from a random Casimir C (`conftest.jacobian_structure`), 20 per test on one
seed.
"""
import random

import pytest

from densalg import Chart, DensityElement, EVEN, antibracket, decompose, divergence, lift
from densalg import master_check, r_ary_bracket
from densalg.classify import attach_correction
from conftest import jacobian_structure

TRIALS = 20


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
        # Q = (s, f) for a base monomial f is in the kernel of (s, -), so
        # lift(s) + Q w is a Poisson lift above s that decomposes back to Q
        rng = random.Random(8)
        nonzero = 0
        for s, _ in structures:
            f = xyz.const(1)
            for name in "xyz":
                f = f * xyz[name] ** rng.randint(0, 2)
            Q = antibracket(s, f)
            nonzero += bool(Q)
            assert not antibracket(s, Q)
            S = attach_correction(DensityElement(s, 0), Q)
            assert not master_check(S)
            assert decompose(S, DensityElement(s, 0)).q_part == Q
        assert nonzero >= TRIALS // 2
