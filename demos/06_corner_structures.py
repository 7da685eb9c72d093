"""Corner calculus: the block homotopy, the scalar character, ideal sandwiches.

An orthogonal positive pair (h, k) splits the algebra into four corners.
The homotopy theta_s carries the corner sum (top-left placement) to the full
2x2 block placement through injective star-homomorphisms; the unitized 2x2
corner algebra maps onto two scalars; and sandwiching an ideal between k and
h commutes with intersecting.
"""

import numpy as np

from qcwb import (
    corner_ideal_equality,
    homotopy_theta,
    linking_mul,
    make_corner_system,
    op_norm,
    rho,
)
from qcwb.structures import LinkingElement, random_corner_quad, theta_is_homomorphism

rng = np.random.default_rng(6)

# h lives on the first three coordinates, k on the last three
n = 6
h = np.zeros((n, n), dtype=complex)
k = np.zeros((n, n), dtype=complex)
a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
h[:3, :3] = a @ a.conj().T
k[3:, 3:] = b @ b.conj().T
sys = make_corner_system(h, k)

quad = random_corner_quad(sys, rng)
at0 = homotopy_theta(quad, 0.0)
at1 = homotopy_theta(quad, 1.0)
print("theta_0 places the corner sum top-left:",
      op_norm(at0[:n, :n] - quad.sum()) < 1e-13)
print("theta_1 is the block layout:",
      op_norm(at1 - np.block([[quad.x11, quad.x12], [quad.x21, quad.x22]])) < 1e-13)

for s in (0.0, 0.37, 1.0):
    mul_res, adj_res = theta_is_homomorphism(sys, s, trials=20, rng=rng)
    print(f"s = {s}: product residual {mul_res:.1e}, adjoint residual {adj_res:.1e}")

# the unitized corner algebra maps onto two scalars, multiplicatively
def element(alpha, beta):
    q = random_corner_quad(sys, rng)
    return LinkingElement(alpha, beta, q.x11, q.x12, q.x21, q.x22)


e = element(1.0 + 0.5j, 2.0)
f = element(0.25, -1.0j)
print("\ncharacter of a product:", rho(linking_mul(e, f)))
print("product of characters:  ",
      (rho(e)[0] * rho(f)[0], rho(e)[1] * rho(f)[1]))

# the ideal-sandwich identity in a two-block algebra
def pos_block(size):
    x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(x)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return (q * rng.uniform(0.1, 1.0, size)) @ q.conj().T


hh = np.zeros((5, 5), dtype=complex)
kk = np.zeros((5, 5), dtype=complex)
hh[:2, :2], hh[2:, 2:] = pos_block(2), pos_block(3)
kk[:2, :2], kk[2:, 2:] = pos_block(2), pos_block(3)
equal, gap = corner_ideal_equality(hh, kk, (2, 3))
print(f"\nideal intersect sandwich == sandwiched ideal: {equal} (projector gap {gap:.1e})")
