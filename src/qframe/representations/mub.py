"""Complete sets of pairwise unbiased bases and their probability tables."""

from __future__ import annotations

import numpy as np

from ..errors import UnsupportedDimensionError
from ..finitefield import _is_prime
from ..frames import Frame, QuasiDistribution, _check_values, check_stack_budget
from ..operators import finite_fourier, omega
from .base import Representation

# order-three rotation that cycles the Z, X and Y eigenbases of a qubit
_QUBIT_V = 0.5 * np.array([[1 - 1j, -(1 + 1j)], [1 - 1j, 1 + 1j]])


def mub_unitary(d: int) -> np.ndarray:
    """Basis-advancing unitary; quadratic Fourier phases for odd primes."""
    if d == 2:
        return _QUBIT_V.copy()
    if not _is_prime(d):
        raise UnsupportedDimensionError("d must be prime")
    F = finite_fourier(d)
    inv2 = (d + 1) // 2
    D = np.zeros((d, d), dtype=complex)
    D.reshape(-1)[::d + 1] = omega(d) ** ((inv2 * np.arange(d) ** 2) % d)
    return F @ D @ F.conj().T


def mub_bases(d: int) -> np.ndarray:
    """Stack of d+1 pairwise unbiased bases, index (n, column k).

    Basis 0 is computational.  For d = 2 the advancing rotation has order
    three, so its powers already close the family.  For odd primes the
    advancing unitary fixes the Fourier basis, which therefore joins as the
    final member; the powers V^n supply the rest.  ``mub_unitary`` refuses
    a d that is not prime before anything is allocated.
    """
    V = mub_unitary(d)
    out = np.zeros((d + 1, d, d), dtype=complex)
    out[0].reshape(-1)[::d + 1] = 1.0
    for n in range(1, d):
        np.matmul(V, out[n - 1], out=out[n])
    out[d] = V @ out[1] if d == 2 else finite_fourier(d)
    return out


class MubFamily:
    """The d+1 unbiased bases with their rank-one projectors, kept as one operator family."""

    def __init__(self, d: int):
        # the family's projectors plus the frame and dual of ``representation``
        check_stack_budget(f"mub_family({d})", 3 * d * (d + 1), d)
        self.d = d
        self.bases = mub_bases(d)
        self.bases.setflags(write=False)
        # projector (n, k) is the outer product of column k of basis n
        columns = self.bases.transpose(0, 2, 1).reshape(-1, d)
        self.outcomes = Frame(
            [(n, k) for n in range(d + 1) for k in range(d)],
            columns[:, :, None] * columns[:, None, :].conj(),
            "mub-table",
        )
        self.labels = self.outcomes.labels

    def __reduce__(self):
        # pickle and copy rebuild the family, so a copy's bases are read-only too
        return MubFamily, (self.d,)

    @property
    def projectors(self) -> np.ndarray:
        return self.outcomes.operators

    def representation(self) -> Representation:
        """Normalized frame P/(d+1) with the exact dual (d+1)P - I."""
        d = self.d
        frame = Frame(self.labels, self.projectors / (d + 1), "mub")
        dual = (d + 1) * self.projectors
        dual.reshape(len(dual), -1)[:, ::d + 1] -= 1.0
        dual = Frame(self.labels, dual, "mub")
        return Representation(
            frame, dual, meta={"bases": self.bases},
            checks=(("pairwise_unbiasedness", 1e-9, _unbiasedness_residual),),
        )


def _unbiasedness_residual(rep: Representation, rng: np.random.Generator) -> float:
    """Largest deviation of |<b_i|b'_j>|^2 from 1/d over pairs of distinct bases."""
    B = rep.meta["bases"]
    return max(float(np.maximum.reduce(np.abs(np.abs(B[i].conj().T @ B[j]) ** 2 - 1.0 / rep.dim), axis=None))
               for i in range(len(B)) for j in range(i + 1, len(B)))


def mub_family(d: int) -> MubFamily:
    return MubFamily(d)


def mub_table(rho: np.ndarray, family: MubFamily) -> QuasiDistribution:
    """Raw outcome probabilities mu(n, k) = Tr(rho P(n,k)); each basis sums to one."""
    return QuasiDistribution(
        representation="mub-table",
        dim=family.d,
        labels=family.labels,
        values=family.outcomes.analyze(rho, "state"),
        warnings=(),
    )


def mub_reconstruct(table: QuasiDistribution, family: MubFamily) -> np.ndarray:
    """Invert a probability table: rho = sum mu(n,k) P(n,k) - I.  Only ``mub_table`` values are accepted."""
    outcomes = family.outcomes
    _check_values(table, outcomes.labels, outcomes.name, outcomes.dim, "table labels do not match the family")
    return outcomes.synthesize(table.values) - np.eye(family.d)


def mub_transition(t1: QuasiDistribution, t2: QuasiDistribution) -> float:
    """Overlap rule between two tables: sum mu mu' - 1 = Tr(rho rho').  Only ``mub_table`` values are accepted."""
    for table in (t1, t2):
        _check_values(table, t1.labels, "mub-table", t1.dim, "tables come from different families")
    return float(t1.values @ t2.values - 1.0)
