"""
Closed differential forms as Poisson lifts, and density evolution
=================================================================

Two applications of the classification and evolution machinery:

1. On the parity-reversed tangent bundle, the de Rham differential is an
   odd nilpotent vector field.  The elements commuting with it under the
   odd bracket are exactly the closed differential forms -- so the kernel
   dimension grows as d + 2 with the polynomial coefficient bound d on
   the line.

2. A classical Hamiltonian H moves densities of weight lambda by the
   closed-form evolution law ({H, psi} + lambda {H, f} psi) t^lambda, with f
   the twist of the lift.  The test suite checks it against the direct route
   through the lifted bracket.
"""
from fractions import Fraction

from densalg import Chart, EVEN, density_evolution, poly_to_text, q_manifold_lifts
from densalg.classify import de_rham_element, exterior_derivative, q_manifold_chart

# --- 1. de Rham kernel on the line and the plane ----------------------------
line = q_manifold_chart(1)
print("de Rham element on the line:", poly_to_text(de_rham_element(line)))
for d in range(4):
    kb = q_manifold_lifts(line, d)
    print("bound %d: kernel dimension %d (= d + 2)" % (d, kb.dimension))

plane = q_manifold_chart(2)
kb = q_manifold_lifts(plane, 1)
print("\nplane, bound 1: dimension", kb.dimension)
for theta in kb.elements():
    assert exterior_derivative(theta).is_zero()
    print("  closed:", poly_to_text(theta))

# --- 2. evolving a half-density under the free Hamiltonian ------------------
C = Chart([("p", EVEN), ("x", EVEN)])
H = Fraction(1, 2) * C["p"] * C["p"]
out = density_evolution(H, C["x"], C["x"], Fraction(1, 2))
print("\nfree particle, psi = x at weight 1/2:")
print("  d/dt (x t^(1/2)) =", poly_to_text(out))
