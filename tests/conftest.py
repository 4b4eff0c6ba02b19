import numpy as np
import pytest

from wgcutoff import MediumSpec, TransverseTensor, generate_rectangle

# double-ridge cross-section (meters): 2.4 x 1.0 outer, two shallow ridges
RIDGE_VERTICES = [
    (0.0, 0.0), (1.0e-3, 0.0), (1.0e-3, 0.1e-3), (1.4e-3, 0.1e-3),
    (1.4e-3, 0.0), (2.4e-3, 0.0), (2.4e-3, 1.0e-3), (1.4e-3, 1.0e-3),
    (1.4e-3, 0.9e-3), (1.0e-3, 0.9e-3), (1.0e-3, 1.0e-3), (0.0, 1.0e-3),
]

# two 1 x 1 mm blocks (meters) joined by a corridor 0.2 mm wide
CORRIDOR_VERTICES = [
    (0.0, 0.0), (1.0e-3, 0.0), (1.0e-3, 0.4e-3), (2.0e-3, 0.4e-3),
    (2.0e-3, 0.0), (3.0e-3, 0.0), (3.0e-3, 1.0e-3), (2.0e-3, 1.0e-3),
    (2.0e-3, 0.6e-3), (1.0e-3, 0.6e-3), (1.0e-3, 1.0e-3), (0.0, 1.0e-3),
]


def hermiticity_defect(matrix) -> float:
    """Max-norm of ``K - K^H`` relative to the max-norm of K."""
    diff = (matrix - matrix.conj().T).tocoo()
    top = np.abs(diff.data).max() if diff.nnz else 0.0
    scale = np.abs(matrix.tocoo().data).max() if matrix.nnz else 1.0
    return float(top / max(scale, 1e-300))


@pytest.fixture(scope="session")
def gyro_medium():
    """The anisotropic reference medium used throughout: eps=(2,-1,1), mu=(1,0.5,2)."""
    return MediumSpec(
        eps_t=TransverseTensor(2.0, -1.0), eps_zz=1.0,
        mu_t=TransverseTensor(1.0, 0.5), mu_zz=2.0,
    )


@pytest.fixture(scope="session")
def isotropic_medium():
    return MediumSpec.isotropic()


@pytest.fixture()
def unit_triangle_mesh():
    from wgcutoff import build_topology
    return build_topology([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


@pytest.fixture()
def unit_square_mesh():
    from wgcutoff import build_topology
    return build_topology(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(0, 1, 2), (0, 2, 3)],
    )


@pytest.fixture(scope="session")
def small_rect_mesh():
    return generate_rectangle(1.2e-3, 1.0e-3, 4, 4)


def random_structured_mesh(rng):
    """A small random mesh from one of the generators, possibly refined."""
    from wgcutoff import generate_annulus, generate_rectangle, refine_uniform
    kind = rng.integers(0, 3)
    if kind == 0:
        mesh = generate_rectangle(
            float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)),
            int(rng.integers(1, 5)), int(rng.integers(1, 5)),
        )
    elif kind == 1:
        mesh = generate_annulus(
            0.0, float(rng.uniform(0.5, 2.0)),
            int(rng.integers(1, 4)), int(rng.integers(3, 9)),
        )
    else:
        r2 = float(rng.uniform(1.0, 2.0))
        mesh = generate_annulus(
            float(rng.uniform(0.2, 0.8)), r2,
            int(rng.integers(1, 4)), int(rng.integers(3, 9)),
        )
    if rng.random() < 0.3:
        from wgcutoff import refine_uniform
        mesh = refine_uniform(mesh)
    return mesh


def random_valid_medium(rng):
    """Random medium satisfying both admission requirements exactly."""
    eps = float(rng.uniform(0.5, 4.0))
    mu = float(rng.uniform(0.5, 4.0))
    a = float(rng.uniform(-0.9, 0.9)) * eps  # |a| < eps keeps eps_t definite
    b = -a * mu / eps  # decoupling constraint; |b| < mu follows
    return MediumSpec(
        eps_t=TransverseTensor(eps, a), eps_zz=float(rng.uniform(0.5, 3.0)),
        mu_t=TransverseTensor(mu, b), mu_zz=float(rng.uniform(0.5, 3.0)),
    )
