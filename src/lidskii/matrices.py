"""Dense complex matrix primitives.

Everything operates on plain ``numpy.ndarray`` values with dtype complex128.
Hermitian inputs are validated against a relative tolerance and never
mutated; constructors that promise a Hermitian result symmetrize via
(M + M*)/2.

Conventions used throughout the package:

* eigenvalues of Hermitian matrices are returned in non-increasing order;
* ``svd(A)`` returns ``(V, s, U)`` such that ``A = V^H @ diag(s) @ U`` with
  ``s`` non-negative and non-increasing (phases are carried by the unitary
  factors, not by ``s``);
* randomness is always threaded through an explicit seed or Generator.
"""

import numpy as np

HERMIT_TOL = 1e-10
NULLSPACE_TOL = 1e-8
GAP_TOL = 1e-7


class EigensolverError(RuntimeError):
    """Raised when a dense factorization fails to converge."""


def check_tol(tol) -> float:
    """A tolerance as a float; raises ValueError unless it is positive and
    finite (every comparison against NaN is false, so a NaN tolerance would
    pass every test)."""
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return tol


def as_rng(seed) -> np.random.Generator:
    """Coerce an int seed (or an existing Generator) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_complex(M) -> np.ndarray:
    """View the input as a finite complex128 matrix (2-d)."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    return _finite(A)


def square_stack(M) -> np.ndarray:
    """View the input as a finite complex128 stack ``(..., d, d)`` of square
    matrices; a single matrix is a stack with no leading axes."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {A.shape}")
    return _finite(A)


def require_square(A) -> np.ndarray:
    A = square_stack(A)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    return A


def _finite(A):
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def conj_t(A) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return np.conj(np.swapaxes(A, -1, -2))


def frob(A) -> float:
    return float(np.linalg.norm(A, "fro"))


def hermitian_part(M) -> np.ndarray:
    M = require_square(M)
    return (M + M.conj().T) / 2.0


def as_hermitian(M, tol: float = HERMIT_TOL) -> np.ndarray:
    """Validate that M is Hermitian within ``tol * ||M||`` and symmetrize."""
    M = require_square(M)
    defect = frob(M - M.conj().T)
    if defect > tol * max(frob(M), np.finfo(float).tiny):
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    return (M + M.conj().T) / 2.0


def eigh(M, tol: float = HERMIT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(lam, V)`` with ``lam`` non-increasing and ``M = V D_lam V^H``;
    the columns of V form an orthonormal eigenbasis.
    """
    M = as_hermitian(M, tol)
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigh failed to converge: {exc}") from exc
    return w[::-1].copy(), V[:, ::-1].copy()


def eigvalsh_desc(M) -> np.ndarray:
    """Eigenvalues of a (numerically) Hermitian matrix, non-increasing."""
    w = np.linalg.eigvalsh(hermitian_part(M))
    return w[::-1].copy()


def svd(A):
    """Singular value decomposition in the convention A = V^H D_s U.

    Returns ``(V, s, U)`` with V, U unitary and s non-negative non-increasing.
    """
    A = require_square(A)
    try:
        W, s, Xh = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"svd failed to converge: {exc}") from exc
    return W.conj().T, s, Xh


def svdvals(A) -> np.ndarray:
    A = as_complex(A)
    return np.linalg.svd(A, compute_uv=False)


def dilate(C) -> np.ndarray:
    """Hermitian 2d x 2d block matrix [[0, C], [C^H, 0]].

    Its spectrum is (s(C), -reversed(s(C))).
    """
    C = require_square(C)
    d = C.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    out[:d, d:] = C
    out[d:, :d] = C.conj().T
    return out


def commutator(A, B) -> np.ndarray:
    A = require_square(A)
    B = require_square(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return A @ B - B @ A


def haar_qr(Z) -> np.ndarray:
    """Haar-distributed unitaries from a ``(..., d, d)`` stack of standard
    complex Gaussian matrices: the QR factor Q of each, with the phases of
    R's diagonal pushed into its columns (Mezzadri, 2007).

    The stacked QR gives every slice the bits the 2-d call gives it.
    """
    return _haar_qr(Z)


def _haar_qr(Z):
    # the body of ``haar_qr``, private so that the samplers' pool threads
    # call no public function
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return Q * phases[..., np.newaxis, :]


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary, ``haar_qr`` of one complex Gaussian whose
    real and then imaginary part are drawn from the seed.  Deterministic for
    a fixed seed."""
    if d < 1:
        raise ValueError("dimension must be positive")
    rng = as_rng(seed)
    Z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    return haar_qr(Z)


def random_hermitian(d: int, seed, scale: float = 1.0) -> np.ndarray:
    rng = as_rng(seed)
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (Z + Z.conj().T) / 2.0


def random_general(d: int, seed, scale: float = 1.0) -> np.ndarray:
    rng = as_rng(seed)
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def skew_exp(K, t=1.0) -> np.ndarray:
    """exp(t K) for skew-Hermitian K, via the eigendecomposition of iK.

    K may be a stack ``(..., d, d)`` of generators and t an array that
    broadcasts against its leading axes; each generator is diagonalized once
    and reused for every t.  The result has the broadcast leading shape.
    """
    K = square_stack(K)
    H = 1j * K  # Hermitian when K is skew-Hermitian
    w, V = np.linalg.eigh((H + conj_t(H)) / 2.0)
    phase = np.exp(-1j * np.asarray(t, dtype=float)[..., np.newaxis] * w)
    return (V * phase[..., np.newaxis, :]) @ conj_t(V)


def unit_skew(Z) -> np.ndarray:
    """Skew-Hermitian parts of a stack of matrices, each scaled to unit
    Frobenius norm.

    The squared norm is taken as two BLAS dot products per matrix, the same
    ones ``frob`` takes on a single matrix, so every slice equals its 2-d
    counterpart bitwise.
    """
    Z = square_stack(Z)
    K = (Z - conj_t(Z)) / 2.0
    flat = K.reshape(K.shape[:-2] + (1, -1))
    sq = sum(x @ np.swapaxes(x, -1, -2) for x in (flat.real, flat.imag))
    return K / np.sqrt(sq)


def gap_threshold(*spectra) -> float:
    """``GAP_TOL`` times the largest |value| of the (non-empty) spectra, with
    no absolute floor: two of their values at most this far apart are one."""
    return GAP_TOL * max(float(np.abs(v).max()) for v in spectra)


def cluster_desc(values, *scale):
    """Group a non-increasing real vector into near-degenerate clusters.

    Consecutive entries at most ``gap_threshold(values, *scale)`` apart fall
    in one cluster (single linkage); ``scale`` holds further spectra of the
    operands.  Returns a list of index arrays.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n == 0:
        return []
    thresh = gap_threshold(v, *scale)
    groups = []
    start = 0
    for i in range(1, n):
        if v[i - 1] - v[i] > thresh:
            groups.append(np.arange(start, i))
            start = i
    groups.append(np.arange(start, n))
    return groups


def _herm_traceless_basis(d: int):
    """Orthonormal real basis of the traceless Hermitian matrices (d^2 - 1)."""
    basis = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d), dtype=np.complex128)
            E[i, j] = inv_sqrt2
            E[j, i] = inv_sqrt2
            basis.append(E)
            F = np.zeros((d, d), dtype=np.complex128)
            F[i, j] = 1j * inv_sqrt2
            F[j, i] = -1j * inv_sqrt2
            basis.append(F)
    for m in range(1, d):
        diag = np.zeros(d)
        diag[:m] = 1.0
        diag[m] = -float(m)
        diag /= np.linalg.norm(diag)
        basis.append(np.diag(diag).astype(np.complex128))
    return basis


def _complex_basis(d: int):
    """Real basis of M_d(C) viewed as a 2 d^2 dimensional real space."""
    basis = []
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=np.complex128)
            E[i, j] = 1.0
            basis.append(E)
            F = np.zeros((d, d), dtype=np.complex128)
            F[i, j] = 1j
            basis.append(F)
    return basis


def _realvec(*mats) -> np.ndarray:
    parts = []
    for M in mats:
        parts.append(M.real.ravel())
        parts.append(M.imag.ravel())
    return np.concatenate(parts)


def _kernel(system: np.ndarray, tol: float):
    """Numerical kernel of a real matrix with more rows than columns: its
    dimension (singular values below tol * s_max) and the last right
    singular vector, which lies in the kernel when it is not trivial."""
    _, sv, vt = np.linalg.svd(system)
    if sv[0] == 0.0:
        return system.shape[1], vt[-1]
    return int(np.sum(sv < tol * sv[0])), vt[-1]


def commutant_is_trivial(S, G0, tol: float = NULLSPACE_TOL):
    """Decide whether the joint commutant of two Hermitians is C * I.

    Assembles the real-linear map Y -> ([Y, S], [Y, G0]) on the traceless
    Hermitian matrices and inspects its numerical kernel.  A trivial kernel
    is equivalent to the two-sided conjugation difference map being a
    submersion at the identity.

    Returns ``(is_trivial, kernel_dim)``; for d = 1 there are no traceless
    Hermitians and the commutant is C * I, so ``(True, 0)``.
    """
    S = as_hermitian(S)
    G0 = as_hermitian(G0)
    if S.shape != G0.shape:
        raise ValueError(f"dim mismatch: {S.shape} vs {G0.shape}")
    d = S.shape[0]
    if d == 1:
        return True, 0
    basis = _herm_traceless_basis(d)
    cols = [_realvec(Y @ S - S @ Y, Y @ G0 - G0 @ Y) for Y in basis]
    kdim, _ = _kernel(np.stack(cols, axis=1), tol)
    return kdim == 0, kdim


def pair_submersion_test(A, B, tol: float = NULLSPACE_TOL):
    """Kernel test for the two-sided orbit difference map on a matrix pair.

    The map is a submersion at the identity exactly when the only Z with
    A^H Z, A Z^H, B^H Z, B Z^H all Hermitian is Z = 0.  Returns
    ``(is_submersion, kernel_dim, witness)`` where the witness is a
    unit-Frobenius-norm kernel element (None when the kernel is trivial).
    """
    A = require_square(A)
    B = require_square(B)
    if A.shape != B.shape:
        raise ValueError(f"dim mismatch: {A.shape} vs {B.shape}")
    d = A.shape[0]
    Ah, Bh = A.conj().T, B.conj().T
    basis = _complex_basis(d)
    cols = []
    for Z in basis:
        Zh = Z.conj().T
        cols.append(
            _realvec(
                A @ Zh - Z @ Ah,
                Ah @ Z - Zh @ A,
                B @ Zh - Z @ Bh,
                Bh @ Z - Zh @ B,
            )
        )
    kdim, coeffs = _kernel(np.stack(cols, axis=1), tol)
    if kdim == 0:
        return True, 0, None
    Z = np.zeros((d, d), dtype=np.complex128)
    for c, E in zip(coeffs, basis):
        Z += c * E
    Z /= frob(Z)
    return False, kdim, Z
