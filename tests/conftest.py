import functools

import numpy as np
import pytest

from qcwb.linalg import op_norm
from qcwb.qc_model import E11, QcTriple, canonical_fiber, canonical_generators


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The input shape of every numpy.linalg.eigh call made during the test."""
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


def outcome(fn):
    """None when ``fn()`` returns, else the class and message of what it raised."""
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def random_hermitian(rng, n, scale=1.0):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (x + x.conj().T)


def random_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_unitary(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def perturbed_generators(rng, m=8, size=1e-3):
    """canonical_generators(m) plus perturbations of operator norm ``size``,
    Hermitian for h and k, general for x; and the unperturbed triple."""
    base = canonical_generators(m)
    n = base.dim
    dh = random_hermitian(rng, n)
    dk = random_hermitian(rng, n)
    dx = random_matrix(rng, n)
    return QcTriple(
        base.h + size * dh / op_norm(dh),
        base.x + size * dx / op_norm(dx),
        base.k + size * dk / op_norm(dk),
    ), base


def hermitian_with_spectrum(rng, eigenvalues):
    """Random Hermitian with exactly the given spectrum."""
    n = len(eigenvalues)
    u = random_unitary(rng, n)
    return (u * np.asarray(eigenvalues, dtype=float)) @ u.conj().T


def exact_endpoint(rng, n):
    """A Haar-conjugated exact representation of dimension n.

    A direct sum of canonical fibers canonical_fiber(t) with t in (0, 1], E11
    blocks (E11, 0, 0) and 1x1 zero blocks, in random order, conjugated by
    one random unitary.
    """
    z1, z2 = np.zeros((1, 1), dtype=complex), np.zeros((2, 2), dtype=complex)
    blocks, size = [], 0
    while size < n:
        kind = rng.integers(3) if n - size >= 2 else 2
        if kind == 0:
            blocks.append(canonical_fiber(1.0 - rng.random()))
        elif kind == 1:
            blocks.append(QcTriple(E11, z2, z2))
        else:
            blocks.append(QcTriple(z1, z1, z1))
        size += blocks[-1].dim
    trip = functools.reduce(QcTriple.direct_sum, blocks)
    u = random_unitary(rng, n)
    return QcTriple(*(u @ m @ u.conj().T for m in (trip.h, trip.x, trip.k)))


def power_iteration_norm(m, iterations=500, seed=0):
    """Independent operator-norm oracle: power iteration on m* m."""
    gen = np.random.default_rng(seed)
    g = m.conj().T @ m
    v = gen.standard_normal(g.shape[0]) + 1j * gen.standard_normal(g.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iterations):
        w = g @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = norm
    return float(np.sqrt(lam))
