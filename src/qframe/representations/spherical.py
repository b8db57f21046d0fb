"""Spin kernels on the sphere and their discrete constellation versions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial
import numpy.random

from ..errors import SingularBasisError, UnsupportedDimensionError
from ..frames import Frame, _minimal_dual
from ..operators import SIGMA, _gauge, _norm
from .base import Representation

GRAM_CONDITION_LIMIT = 1e8
MAX_SPIN = 4.0
# seeded constellation draws before a random constellation gives up
MAX_DRAWS = 50


def _two(x: float, name: str) -> int:
    if not math.isfinite(2 * x):
        raise ValueError(f"{name} = {x} is out of range")
    t = round(2 * x)
    if abs(2 * x - t) > 1e-9:
        raise ValueError(f"{name} must be integer or half-integer, got {x}")
    return int(t)


def _lf(n: int) -> float:
    """log(n!) for integer n >= 0."""
    return math.lgamma(n + 1)


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float, J: float, M: float) -> float:
    """Vector-coupling coefficient <j1 m1; j2 m2 | J M> in the Condon-Shortley phase."""
    tj1, tm1 = _two(j1, "j1"), _two(m1, "m1")
    tj2, tm2 = _two(j2, "j2"), _two(m2, "m2")
    tJ, tM = _two(J, "J"), _two(M, "M")
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tJ + tM) % 2:
        raise ValueError("m must differ from j by an integer")
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return 0.0
    if tm1 + tm2 != tM:
        return 0.0
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 + tJ) % 2:
        return 0.0

    log_pref = 0.5 * (
        math.log(tJ + 1.0)
        + _lf((tj1 + tj2 - tJ) // 2)
        + _lf((tj1 - tj2 + tJ) // 2)
        + _lf((-tj1 + tj2 + tJ) // 2)
        - _lf((tj1 + tj2 + tJ) // 2 + 1)
        + _lf((tJ + tM) // 2)
        + _lf((tJ - tM) // 2)
        + _lf((tj1 - tm1) // 2)
        + _lf((tj1 + tm1) // 2)
        + _lf((tj2 - tm2) // 2)
        + _lf((tj2 + tm2) // 2)
    )
    kmin = max(0, (tj2 - tJ - tm1) // 2, (tj1 + tm2 - tJ) // 2)
    kmax = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = 0.0
    for k in range(kmin, kmax + 1):
        log_den = (
            _lf(k)
            + _lf((tj1 + tj2 - tJ) // 2 - k)
            + _lf((tj1 - tm1) // 2 - k)
            + _lf((tj2 + tm2) // 2 - k)
            + _lf((tJ - tj2 + tm1) // 2 + k)
            + _lf((tJ - tj1 - tm2) // 2 + k)
        )
        total += (-1.0) ** k * math.exp(log_pref - log_den)
    return total


def spin_operators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular momentum matrices (Jx, Jy, Jz) on the basis m = s, s-1, ..., -s."""
    ts = _two(s, "s")
    d = ts + 1
    ms = s - np.arange(d)
    Jz = np.diag(ms).astype(complex)
    Jp = np.zeros((d, d), dtype=complex)
    for j in range(1, d):
        m = ms[j]
        Jp[j - 1, j] = math.sqrt(s * (s + 1) - m * (m + 1))
    Jm = Jp.conj().T
    Jx = (Jp + Jm) / 2
    Jy = (Jp - Jm) / 2j
    return Jx, Jy, Jz


def direction_basis(s: float, n) -> np.ndarray:
    """Eigenvectors of n . J, column j holding the eigenvalue (j - s) vector, gauge-fixed.

    A ``(k, 3)`` array of directions gives the ``(k, d, d)`` stack of their
    bases, from one batched ``eigh``.
    """
    n = np.asarray(n, dtype=float)
    Jx, Jy, Jz = spin_operators(s)
    H = n[..., 0, None, None] * Jx + n[..., 1, None, None] * Jy + n[..., 2, None, None] * Jz
    vals, vecs = np.linalg.eigh(H)
    expect = np.arange(vecs.shape[-1]) - s
    if np.max(np.abs(vals - expect)) > 1e-8:
        raise ValueError("direction must be a unit vector")
    return _gauge(vecs)


def kernel_weights(s: float, gammas) -> np.ndarray:
    """Spectrum of the kernel on the m-ladder: w_m = sum_l g_l (2l+1)/(2s+1) C^{s l s}_{m 0 m}."""
    ts = _two(s, "s")
    d = ts + 1
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape != (d,):
        raise ValueError(f"need {d} weights for spin {s}")
    if abs(gammas[0] - 1.0) > 1e-12:
        raise ValueError("the l=0 weight must equal 1")
    if np.any(np.abs(gammas) < 1e-12):
        raise ValueError("weights must be finite and non-zero")
    ms = np.arange(d) - s
    w = np.zeros(d)
    for j, m in enumerate(ms):
        acc = 0.0
        for l in range(d):
            acc += gammas[l] * (2 * l + 1) / d * clebsch_gordan(s, m, l, 0, s, m)
        w[j] = acc
    return w


def _spin_dim(s: float) -> int:
    """The dimension 2s + 1 of a spin 0 < s <= MAX_SPIN, refused before anything is built for it."""
    if s <= 0 or _two(s, "s") < 1:
        raise UnsupportedDimensionError("spin must be positive")
    if s > MAX_SPIN:
        raise UnsupportedDimensionError(f"spin capped at {MAX_SPIN}")
    return _two(s, "s") + 1


@dataclass(frozen=True)
class SphericalKernel:
    """Family Delta(n) = sum_m w_m |n, m><n, m| defined by spin and l-weights."""

    s: float
    gammas: tuple[float, ...]
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _spin_dim(self.s)
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "weights", kernel_weights(self.s, self.gammas))

    @property
    def dim(self) -> int:
        return _two(self.s, "s") + 1

    def point(self, n) -> np.ndarray:
        """Delta(n), exactly Hermitian: the dual is solved on coordinates that read only the upper triangle.

        A ``(k, 3)`` array of directions gives the ``(k, d, d)`` stack of kernels.
        """
        V = direction_basis(self.s, n)
        K = (V * self.weights) @ V.conj().swapaxes(-1, -2)
        lower = np.tril(K, -1)
        return lower + lower.conj().swapaxes(-1, -2) + K.real * np.eye(self.dim)

    def dual(self) -> "SphericalKernel":
        return SphericalKernel(self.s, tuple(1.0 / g for g in self.gammas))


def sphere_quadrature(s: float) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature on the sphere, exact for the degree reached by kernel pair products.

    Gauss-Legendre in cos(theta) times a uniform phi grid; weights sum to 4 pi.
    """
    ts = _two(s, "s")
    n_theta = ts + 2
    n_phi = 2 * ts + 3
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    pts = []
    wts = []
    for ct, w in zip(x, wx):
        st = math.sqrt(max(0.0, 1 - ct * ct))
        for ph in phis:
            pts.append((st * math.cos(ph), st * math.sin(ph), ct))
            wts.append(w * 2 * np.pi / n_phi)
    return np.array(pts), np.array(wts)


def tetrahedral_constellation() -> np.ndarray:
    r3 = math.sqrt(3.0)
    return np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / r3


def _check_unit_rows(points: np.ndarray):
    norms = _norm(points, axis=-1)
    if np.maximum.reduce(np.abs(norms - 1.0), axis=None) > 1e-9:
        raise ValueError("invalid point: directions must be unit vectors")


def stratonovich_discrete(s: float, constellation) -> Representation:
    """Point kernels of the all-ones ``SphericalKernel`` on a d^2-point constellation, with their one dual family."""
    d = _spin_dim(s)
    kernel = SphericalKernel(s, (1.0,) * d)
    points = np.array(constellation, dtype=float)  # a copy: the pair freezes the points it keeps
    if points.shape != (d * d, 3):
        raise ValueError(f"need {d * d} sphere points, got shape {points.shape}")
    _check_unit_rows(points)
    ops = kernel.point(points)
    labels = tuple(range(d * d))
    frame = Frame(labels, ops, "stratonovich")
    dual = _minimal_dual(frame, _refuse_ill_conditioned)
    return Representation(
        frame,
        dual,
        meta={"s": s, "constellation": points, "gammas": kernel.gammas},
        checks=(("dual_resolves_identity", 1e-8, _dual_sum_residual),),
    )


def _refuse_ill_conditioned(cond: float) -> None:
    """The draw policy: a constellation whose Gram condition number passes GRAM_CONDITION_LIMIT is redrawn."""
    if cond > GRAM_CONDITION_LIMIT:
        raise SingularBasisError("constellation kernel Gram matrix is ill conditioned; redraw the points")


def _dual_sum_residual(rep: Representation, seed: int) -> float:
    """Largest entry of sum_n D(n) - I: the Stratonovich dual resolves the identity."""
    return float(np.max(np.abs(rep.dual.sum() - np.eye(rep.dim))))


def _random_stratonovich(s: float, seed=None):
    """``stratonovich_discrete`` on the first seeded draw of uniform sphere points it accepts.

    A draw whose kernel Gram matrix is ill conditioned is redrawn.  Returns
    (representation, draws) where draws counts the attempts consumed.
    """
    d = _spin_dim(s)
    rng = np.random.default_rng(seed)
    for draw in range(1, MAX_DRAWS + 1):
        raw = rng.normal(size=(d * d, 3))
        try:
            return stratonovich_discrete(s, raw / np.linalg.norm(raw, axis=1, keepdims=True)), draw
        except SingularBasisError:
            continue
    raise SingularBasisError(f"no well conditioned constellation in {MAX_DRAWS} draws")


def random_constellation(s: float, seed=None):
    """Uniform sphere points for a spin-s constellation; redraws on bad conditioning.

    Returns (points, draws) where draws counts the attempts consumed.
    """
    rep, draws = _random_stratonovich(s, seed)
    return rep.meta["constellation"], draws


def _n_dot_sigma(n) -> np.ndarray:
    """n . sigma for a direction ``(3,)`` or a stack of directions ``(k, 3)``: shape ``(2, 2)`` or ``(k, 2, 2)``."""
    n = np.asarray(n, dtype=float)
    _check_unit_rows(n)
    x, y, z = (n[..., i, None, None] for i in range(3))
    return x * SIGMA[0] + y * SIGMA[1] + z * SIGMA[2]


def qubit_kernel_lower(n) -> np.ndarray:
    """(1/2)(I + n . sigma); a ``(k, 3)`` array of directions gives ``(k, 2, 2)``."""
    return 0.5 * (np.eye(2) + _n_dot_sigma(n))


def qubit_kernel_upper(n) -> np.ndarray:
    """(1/4pi)(I + 3 n . sigma); a ``(k, 3)`` array of directions gives ``(k, 2, 2)``."""
    K = 3 * _n_dot_sigma(n)
    K[..., 0, 0] += 1.0
    K[..., 1, 1] += 1.0
    return K / (4 * np.pi)


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic, nearly uniform sphere covering."""
    if count < 1:
        raise ValueError("need at least one point")
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    theta = np.pi * (3.0 - math.sqrt(5.0)) * i
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.empty((count, 3))
    pts[:, 0] = r * np.cos(theta)
    pts[:, 1] = r * np.sin(theta)
    pts[:, 2] = z
    return pts / _norm(pts, axis=1, keepdims=True)


def nmr_sample_directions(count: int) -> np.ndarray:
    """Sphere grid for worst-case scans: Fibonacci points plus axes and cube diagonals."""
    axes = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    diag = [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    fixed = len(axes) + len(diag)
    grid = np.empty((max(count, fixed), 3))
    grid[:len(axes)] = axes
    grid[len(axes):fixed] = diag
    grid[len(axes):fixed] /= math.sqrt(3.0)
    if count <= fixed:
        return grid[:count]
    grid[fixed:] = fibonacci_sphere(count - fixed)
    return grid
