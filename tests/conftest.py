import numpy as np
import pytest

from declqg import PlantModel


def random_psd(rng, d, scale=1.0, rank=None):
    if d == 0:
        return np.zeros((0, 0))
    r = rank if rank is not None else d
    f = rng.standard_normal((d, r))
    return scale * (f @ f.T) / max(r, 1)


def random_plant(rng, n=2, d_x=2, d_y=None, d_u=None, T=5,
                 time_varying=False, rho=0.9, singular_w=False):
    """Random desk-scale instance with spectral radius about rho.

    ``singular_w`` draws each controller's observation noise covariance
    with rank d_y - 1 (zero for scalar observations).
    """
    d_y = tuple(d_y if d_y is not None else [1] * n)
    d_u = tuple(d_u if d_u is not None else [1] * n)
    du = sum(d_u)

    def rand_A():
        a = rng.standard_normal((d_x, d_x))
        radius = max(np.abs(np.linalg.eigvals(a)).max(), 1e-6)
        return a * (rho / radius)

    steps = T if time_varying else 1
    A = [rand_A() for _ in range(steps)]
    B = [0.8 * rng.standard_normal((d_x, du)) for _ in range(steps)]
    C = [[0.9 * rng.standard_normal((d_y[i], d_x)) for _ in range(steps)]
         for i in range(n)]
    if not time_varying:
        A, B, C = A[0], B[0], [C[i][0] for i in range(n)]
    return PlantModel.create(
        n=n, T=T, d_x=d_x, d_u=d_u, d_y=d_y, A=A, B=B, C=C,
        Q=random_psd(rng, d_x, 1.0),
        R=random_psd(rng, du, 0.5) + 0.5 * np.eye(du),
        sigma_x=random_psd(rng, d_x, 1.0) + 0.1 * np.eye(d_x),
        sigma_w0=random_psd(rng, d_x, 0.3) + 0.05 * np.eye(d_x),
        sigma_w=[random_psd(rng, d_y[i], 0.2, rank=d_y[i] - 1) if singular_w
                 else random_psd(rng, d_y[i], 0.2) + 0.05 * np.eye(d_y[i])
                 for i in range(n)])


def check_generated(cases, tag: int, count: int, check) -> None:
    """Run ``check(*case)`` on instances 0..count-1 of the generator
    ``cases``, instance i drawn from ``np.random.default_rng([tag, i])``, so
    the set depends only on the generator's code; a failure names i."""
    for i in range(count):
        case = cases(np.random.default_rng([tag, i]))
        try:
            check(*case)
        except AssertionError as e:
            raise AssertionError(f"instance [{tag}, {i}]: {e}") from e


def scalar_two_controller(T=5):
    """The scalar 2-controller instance used throughout the suite."""
    return PlantModel.create(
        n=2, T=T, d_x=1, d_u=(1, 1), d_y=(1, 1),
        A=[[0.9]], B=[[1.0, 0.5]], C=[[[1.0]], [[0.7]]],
        Q=[[1.0]], R=np.eye(2), sigma_x=[[1.0]], sigma_w0=[[0.4]],
        sigma_w=[[[0.2]], [[0.3]]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def scalar2():
    return scalar_two_controller()
