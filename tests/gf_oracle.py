"""Slow reference implementations of GF(p^n) arithmetic and the GHW build.

The list arithmetic is the reference for the field's integer tables:
polynomials as little-endian coefficient lists over Z_p, multiplied and
reduced by long division.  On it, ``is_irreducible`` tries every monic
factor of degree up to n/2, and ``is_primitive_modulus`` asks that x^(q-1)
be 1 and that x^((q-1)/r) not be 1 for each prime r | q - 1, on a modulus it
has found irreducible.  The table-driven ``is_primitive_modulus`` must agree
with it on every modulus, monic or not.  ``PolyField`` is polynomial
arithmetic on integer codes under the default modulus: powers by squaring,
the trace as a sum of Frobenius powers and the dual basis by Gauss-Jordan
elimination of the trace Gram matrix.
``dense_ghw`` builds the GHW representation on top of it the direct way:
every translation a Kronecker product of shift and clock matrix powers, each
line projector a dense conjugation, and each phase-point operator a Python
sum over the lines through its point.  The table-driven field and the
index-arithmetic GHW build must agree with them.
``striation_eigenbasis`` finds one striation's joint eigenbasis by ``eigh``
with its ``eigh_fixed``; the bases ``ghw`` writes down from translation
covariance must have its columns, order and gauge, within the residual it
misses its own eigen-equations by.
``_monomials`` writes the translations T(q, p) as permutations and phases,
the tables ``ghw`` reads off the field's digits.
"""

from __future__ import annotations

import numpy as np

from qframe.finitefield import FiniteField, default_modulus
from qframe.operators import omega, tensor

from lattice_oracle import clock_matrix, shift_matrix


def _monomials(F: FiniteField, qs, ps) -> tuple[np.ndarray, np.ndarray]:
    """Permutations and phases of T(q, p) over arrays of codes.

    Every T(q, p) is monomial: with j_i the digits of a basis index (tensor
    factor 0 first), q_i the polynomial coordinates of q and p_i the
    dual-basis coordinates of p, it sends |j> to omega^(p.j) |j + q>.  So
    ``T[perm[k, j], j] = phase[k, j]`` for the k-th pair.
    """
    p, n = F.p, F.n
    j = F.coords[:, ::-1]
    qc = F.coords[np.asarray(qs)][..., None, :]
    pc = F.dual_coords[np.asarray(ps)][..., None, :]
    perm = ((j + qc) % p) @ (p ** np.arange(n - 1, -1, -1))
    phase = omega(p) ** ((j * pc).sum(axis=-1) % p)
    return perm, phase


def poly_trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of polynomial division over Z_p (little-endian lists)."""
    num = poly_trim([x % p for x in num])
    den = poly_trim([x % p for x in den])
    if den == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    out = list(num)
    while len(out) >= len(den) and poly_trim(list(out)) != [0]:
        shift = len(out) - len(den)
        factor = (out[-1] * inv_lead) % p
        if factor:
            for i, c in enumerate(den):
                out[shift + i] = (out[shift + i] - factor * c) % p
        out.pop()
        if not out:
            out = [0]
    return poly_trim(out)


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def is_irreducible(modulus, p: int) -> bool:
    """Exhaustive check: no monic factor of degree up to deg/2."""
    mod = poly_trim([c % p for c in modulus])
    n = len(mod) - 1
    if n < 1:
        return False
    for deg in range(1, n // 2 + 1):
        # Enumerate monic polynomials of this degree by their lower coefficients.
        for code in range(p**deg):
            cand = []
            k = code
            for _ in range(deg):
                cand.append(k % p)
                k //= p
            cand.append(1)
            if poly_mod(mod, cand, p) == [0]:
                return False
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    k = 2
    while k * k <= n:
        while n % k == 0:
            if k not in out:
                out.append(k)
            n //= k
        k += 1
    if n > 1 and n not in out:
        out.append(n)
    return out


def is_primitive_modulus(modulus, p: int) -> bool:
    """True when the modulus is irreducible and x has multiplicative order q - 1 mod it.

    x^(q-1) = 1 is asked for too: without it, x = 0 mod the modulus x at n = 1
    passed, since no power of 0 is 1.
    """
    mod = poly_trim([c % p for c in modulus])
    n = len(mod) - 1
    if not is_irreducible(mod, p):
        return False
    q = p**n
    x = [0, 1] if n > 1 else [poly_mod([0, 1], mod, p)[0]]

    def poly_pow(base: list[int], e: int) -> list[int]:
        result = [1]
        b = list(base)
        while e:
            if e & 1:
                result = poly_mod(poly_mul(result, b, p), mod, p)
            b = poly_mod(poly_mul(b, b, p), mod, p)
            e >>= 1
        return result

    if poly_pow(x, q - 1) != [1]:
        return False
    return all(poly_pow(x, (q - 1) // r) != [1] for r in prime_factors(q - 1))


class PolyField:
    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.modulus = list(default_modulus(p, n))
        self.order = p**n
        self._duals: dict[tuple, list[int]] = {}

    def coeffs(self, code: int) -> list[int]:
        return [(code // self.p**i) % self.p for i in range(self.n)]

    def code(self, coeffs) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(coeffs))

    def add(self, a: int, b: int) -> int:
        return self.code([x + y for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def mul(self, a: int, b: int) -> int:
        prod = poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self.code(poly_mod(prod, self.modulus, self.p))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inverse(a), -e)
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inverse(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def trace(self, a: int) -> int:
        acc, term = 0, a
        for _ in range(self.n):
            acc = self.add(acc, term)
            term = self.pow(term, self.p)
        assert acc < self.p, "trace outside the prime subfield"
        return acc

    def polynomial_basis(self) -> list[int]:
        return [self.p**i for i in range(self.n)]

    def dual_basis(self, basis: list[int]) -> list[int] | None:
        if tuple(basis) not in self._duals:
            self._duals[tuple(basis)] = self._solve_dual(basis)
        return self._duals[tuple(basis)]

    def _solve_dual(self, basis: list[int]) -> list[int] | None:
        n, p = self.n, self.p
        M = [[self.trace(self.mul(basis[i], basis[j])) for j in range(n)] for i in range(n)]
        A = [row[:] + [1 if k == i else 0 for k in range(n)] for i, row in enumerate(M)]
        for col in range(n):
            piv = next((r for r in range(col, n) if A[r][col] % p), None)
            if piv is None:
                return None  # not a basis
            A[col], A[piv] = A[piv], A[col]
            inv = pow(A[col][col], p - 2, p)
            A[col] = [(v * inv) % p for v in A[col]]
            for r in range(n):
                if r != col and A[r][col]:
                    f = A[r][col]
                    A[r] = [(A[r][k] - f * A[col][k]) % p for k in range(2 * n)]
        out = []
        for j in range(n):
            acc = 0
            for i in range(n):
                acc = self.add(acc, self.mul(A[i][n + j], basis[i]))
            out.append(acc)
        return out

    def expand(self, x: int, basis: list[int]) -> tuple[int, ...]:
        return tuple(self.trace(self.mul(x, e)) for e in self.dual_basis(basis))


def translation_operator(F: PolyField, q: int, r: int) -> np.ndarray:
    basis = F.polynomial_basis()
    qc = F.expand(q, basis)
    pc = F.expand(r, F.dual_basis(basis))
    X, Z = shift_matrix(F.p), clock_matrix(F.p)
    return tensor(*[np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b) for a, b in zip(qc, pc)])


def eigh_fixed(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a deterministic gauge.

    Eigenvalues ascend; each eigenvector is rephased so its first component
    of magnitude above 1e-12 is real and positive.
    """
    vals, vecs = np.linalg.eigh(np.asarray(A, dtype=complex))
    vecs = vecs.copy()
    for i in range(vecs.shape[1]):
        col = vecs[:, i]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            phase = col[nz[0]] / abs(col[nz[0]])
            vecs[:, i] = col / phase
    return vals, vecs


def striation_eigenbasis(ops: np.ndarray, p: int) -> np.ndarray:
    """Common eigenvectors of one ``(k, d, d)`` stack of commuting unitaries, deterministically ordered.

    Columns are sorted by the tuple of eigenvalue phases against the given
    operator order and gauge-fixed (first sizable component real positive).
    """
    k = np.arange(len(ops))
    quantum = 2 * np.pi / (4 * p * p)
    for attempt in range(4):
        a = (1.0 + 0.37 * k) * np.exp(1j * (0.618034 * (k + 1) + 0.311 * attempt))
        M = np.tensordot(a, ops, axes=1)
        _, vecs = eigh_fixed(M + M.conj().T)
        Uv = ops @ vecs
        lam = np.einsum("ji,kji->ki", vecs.conj(), Uv)
        if np.max(np.linalg.norm(Uv - lam[:, None, :] * vecs, axis=1)) > 1e-8:
            continue
        # eigenvalue phases, quantized to the admissible root-of-unity grid
        angles = np.angle(lam) % (2 * np.pi)
        steps = np.round(angles / quantum)
        if np.max(np.abs(angles - steps * quantum)) > 1e-6:
            raise RuntimeError("eigenvalue phase off the root-of-unity grid")
        keys = steps.astype(np.int64) % (4 * p * p)
        out = vecs[:, np.lexsort(keys[::-1])]
        pivot = out[np.argmax(np.abs(out) > 1e-12, axis=0), np.arange(out.shape[1])]
        return out / (pivot / np.abs(pivot))
    raise RuntimeError("failed to split a degenerate commuting family")


def _phase_key(angle: float, p: int) -> int:
    quantum = 2 * np.pi / (4 * p * p)
    k = int(round(angle / quantum)) % (4 * p * p)
    assert abs(angle - round(angle / quantum) * quantum) <= 1e-6
    return k


def joint_eigenbasis(ops: list[np.ndarray], p: int) -> np.ndarray:
    d = ops[0].shape[0]
    for attempt in range(4):
        H = np.zeros((d, d), dtype=complex)
        for k, U in enumerate(ops):
            a = (1.0 + 0.37 * k) * np.exp(1j * (0.618034 * (k + 1) + 0.311 * attempt))
            H += a * U + np.conj(a) * U.conj().T
        _, vecs = eigh_fixed(H)
        keys = []
        good = True
        for i in range(d):
            v = vecs[:, i]
            key = []
            for U in ops:
                lam = np.vdot(v, U @ v)
                if np.linalg.norm(U @ v - lam * v) > 1e-8:
                    good = False
                    break
                key.append(_phase_key(float(np.angle(lam)) % (2 * np.pi), p))
            if not good:
                break
            keys.append(tuple(key))
        if good:
            out = vecs[:, sorted(range(d), key=lambda i: keys[i])]
            for i in range(d):
                col = out[:, i]
                nz = np.flatnonzero(np.abs(col) > 1e-12)
                out[:, i] = col / (col[nz[0]] / abs(col[nz[0]]))
            return out
    raise RuntimeError("failed to split a degenerate commuting family")


def lattice(F: PolyField):
    """Points, lines (striation-major, intercept order) and ray directions."""
    E = range(F.order)
    points = [(a, b) for a in E for b in E]
    lines = [[(c, b) for b in E] for c in E]
    lines += [[(a, F.add(F.mul(m, a), c)) for a in E] for m in E for c in E]
    directions = [(0, 1)] + [(1, m) for m in E]
    return points, lines, directions


def dense_ghw(p: int, n: int, net=None):
    """Labels, dual operators and line projectors of ghw(p, n)."""
    F = PolyField(p, n)
    d = F.order
    net = net if net is not None else (0,) * (d + 1)
    points, lines, directions = lattice(F)
    projectors = []
    for s, (dq, dr) in enumerate(directions):
        ray = [translation_operator(F, F.mul(t, dq), F.mul(t, dr)) for t in range(1, d)]
        v = joint_eigenbasis(ray, p)[:, net[s]]
        Q0 = np.outer(v, v.conj())
        for c in range(d):
            T = translation_operator(F, c, 0) if s == 0 else translation_operator(F, 0, c)
            projectors.append(T @ Q0 @ T.conj().T)
    through = {pt: [] for pt in points}
    for li, line in enumerate(lines):
        for pt in line:
            through[pt].append(li)
    ops = []
    for pt in points:
        A = -np.eye(d, dtype=complex)
        for li in through[pt]:
            A += projectors[li]
        ops.append(A)
    return points, np.array(ops), projectors
