"""Independent oracles used by the unit and acceptance tests.

These deliberately take different computational routes than the library:
the kernel systems are assembled from Kronecker products and commutation
matrices acting on realified coordinates (the library loops over structured
basis matrices), water filling is solved by bisection (the library
solves the piecewise-linear equation in closed form), the orbit
certifiers' gradient flows are sampled one curve point at a time (the
library samples a whole curve as one stack), the spectrum samplers run one
sample at a time, the eigenvalue-orbit sampler runs as one stack (the
library works it in blocks on a thread pool), the singular-value-orbit
sampler draws one Haar unitary at a time (both orbit samplers take a
Frobenius value from the residual's entries, as the library does, so the
comparison stays bitwise), the frame descents run one restart at a time on 2-d arrays
(the library descends a stack of restarts in lockstep), and the optimal
frame spectrum is taken over every partition into water-filled blocks (the
library chooses each block greedily).
``criterion_09_instances`` repeats the draws of acceptance criterion 09.
"""

import math

import numpy as np

from lidskii.curves import DescentCurve, log_grid, trim_to_descent
from lidskii.eig_orbit import _spectrum
from lidskii.majorization import sort_desc
from lidskii.matrices import (
    as_hermitian,
    as_rng,
    conj_t,
    frob,
    haar_qr,
    haar_unitary,
    require_square,
    skew_exp,
)
from lidskii.norms import evaluate, gauge, gauge_from_eigs, norm_gradient


def commutation_matrix(d: int) -> np.ndarray:
    """K with K vec(X) = vec(X^T), column-major vec."""
    K = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            K[i + j * d, j + i * d] = 1.0
    return K


def _realify_linear(M: np.ndarray) -> np.ndarray:
    """Real form of z -> M z on stacked (Re, Im) coordinates."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def _realify_antilinear(N: np.ndarray) -> np.ndarray:
    """Real form of z -> N conj(z) on stacked (Re, Im) coordinates."""
    return np.block([[N.real, N.imag], [N.imag, -N.real]])


def _kernel_dim(system: np.ndarray, tol: float = 1e-8) -> int:
    sv = np.linalg.svd(system, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return system.shape[1]
    return int(np.sum(sv < tol * sv[0]))


def _hermitian_traceless_subspace(d: int) -> np.ndarray:
    """Orthonormal real basis (columns) of {Y: Y = Y^H, tr Y = 0} inside
    the realified coordinates R^{2 d^2}, derived from the constraints."""
    n = d * d
    K = commutation_matrix(d)
    Id = np.eye(n)
    # Y - Y^H = 0 with vec(Y^H) = K conj(vec Y)
    constraint = _realify_linear(Id) - _realify_antilinear(K)
    # trace: sum of diagonal entries zero (real and imaginary separately)
    tr_row = np.zeros((1, n))
    for i in range(d):
        tr_row[0, i + i * d] = 1.0
    tr_real = np.hstack([tr_row, np.zeros((1, n))])
    tr_imag = np.hstack([np.zeros((1, n)), tr_row])
    full = np.vstack([constraint, tr_real, tr_imag])
    _u, sv, vt = np.linalg.svd(full)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    return vt[rank:].T  # columns span the constrained subspace


def commutant_kernel_dim(S: np.ndarray, G0: np.ndarray, tol: float = 1e-8) -> int:
    """Kernel dimension of Y -> ([Y, S], [Y, G0]) on traceless Hermitian Y."""
    d = S.shape[0]
    Id = np.eye(d)
    def comm_map(M):
        # vec(YM - MY) = (M^T kron I - I kron M) vec(Y)
        return np.kron(M.T, Id) - np.kron(Id, M)

    Q = _hermitian_traceless_subspace(d)
    rows = [_realify_linear(comm_map(S)) @ Q, _realify_linear(comm_map(G0)) @ Q]
    return _kernel_dim(np.vstack(rows), tol)


def pair_submersion_kernel_dim(A: np.ndarray, B: np.ndarray, tol: float = 1e-8) -> int:
    """Kernel dimension of Z -> (AZ^H - ZA^H, A^H Z - Z^H A, and the same
    for B) on all of M_d(C), realified."""
    d = A.shape[0]
    Id = np.eye(d)
    K = commutation_matrix(d)

    def right_adjoint_defect(M):
        # vec(M Z^H - Z M^H): antilinear (I kron M) K, linear -(conj(M) kron I)
        lin = -np.kron(M.conj(), Id)
        anti = np.kron(Id, M) @ K
        return _realify_linear(lin) + _realify_antilinear(anti)

    def left_adjoint_defect(M):
        # vec(M^H Z - Z^H M): linear (I kron M^H), antilinear -(M^T kron I) K
        lin = np.kron(Id, M.conj().T)
        anti = -np.kron(M.T, Id) @ K
        return _realify_linear(lin) + _realify_antilinear(anti)

    rows = [
        right_adjoint_defect(A),
        left_adjoint_defect(A),
        right_adjoint_defect(B),
        left_adjoint_defect(B),
    ]
    return _kernel_dim(np.vstack(rows), tol)


def water_fill_bisect(lam, t: float, iters: int = 200):
    """Bisection solve of sum (lam_i - c)^+ = t."""
    lam = np.asarray(lam, dtype=float)

    def f(c):
        return float(np.sum(np.maximum(lam - c, 0.0)))

    lo = float(np.max(lam)) - t - 1.0  # f(lo) >= t
    hi = float(np.max(lam))  # f(hi) = 0 <= t
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) >= t:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    return c, np.maximum(lam - c, 0.0)


def partial_sum_check(y, x) -> tuple:
    """Plain-loop submajorization check; returns (holds, min_slack)."""
    xs = sorted(x, reverse=True)
    ys = sorted(y, reverse=True)
    m = min(len(xs), len(ys))
    sx = sy = 0.0
    worst = np.inf
    for j in range(m):
        sx += xs[j]
        sy += ys[j]
        worst = min(worst, sy - sx)
    return worst >= -1e-10 * (1.0 + abs(sy) + abs(sx)), worst


def criterion_09_instances(count: int = 100):
    """(S, a, restart seeds) of acceptance criterion 09's first ``count``
    configurations, from that test's draws (seed 109) in its order."""
    rng = as_rng(109)
    instances = []
    for _ in range(count):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(d, d + 3))
        a = rng.uniform(0.3, 1.5, k)
        lam = sort_desc(rng.uniform(0, 3, d))
        V = haar_unitary(d, rng)
        S = (V * lam) @ V.conj().T
        seeds = [int(rng.integers(0, 2**31)) for _r in range(8)]
        instances.append(((S + S.conj().T) / 2, a, seeds))
    return instances


def optimal_spectrum_enumerated(norms, lam, a, tol=1e-12):
    """Least gauge of lam - mu (mu padded with zeros to len(lam)) over the
    block candidates for the frame spectrum, one value per norm.

    With m = min(d, k) and B_j the partial sums of a sorted non-increasingly
    (B_m taken as sum(a)), each of the 2^(m-1) partitions of 0..m-1 into
    consecutive blocks water-fills lam on the block from p to j (by
    bisection) at mass B_j - B_p.  A candidate counts when it is
    non-increasing and its partial sums are at least the B_j, both within
    ``tol * sum(a)``.
    """
    lam = sort_desc(np.maximum(lam, 0.0))
    m = min(lam.size, len(a))
    total = float(np.sum(a))
    bounds = np.concatenate([[0.0], np.cumsum(sort_desc(a))[: m - 1], [total]])
    fills = {
        (p, j): water_fill_bisect(lam[p:j], bounds[j] - bounds[p])[1]
        for p in range(m)
        for j in range(p + 1, m + 1)
    }
    best = np.full(len(norms), np.inf)
    for mask in range(2 ** (m - 1)):
        cuts = [0] + [j for j in range(1, m) if mask >> (j - 1) & 1] + [m]
        mu = np.concatenate([fills[p, j] for p, j in zip(cuts, cuts[1:])])
        if np.any(np.diff(mu) > tol * total):
            continue
        if np.any(np.cumsum(mu)[: m - 1] < bounds[1:m] - tol * total):
            continue
        diff = lam.copy()
        diff[:m] -= mu
        best = np.minimum(best, [float(gauge_from_eigs(norm, diff)) for norm in norms])
    return best


# ---------------------------------------------------------------------------
# witness flows, one curve sample at a time


def _sampled_curve(kind, point, value):
    ts = np.concatenate([[0.0], log_grid(1.0)])
    values = np.array([value(point(t)) for t in ts])
    return DescentCurve(kind, None, ts, values, float(values[0] - values.min()), point)


def eig_witness_flow(norm, S, G0):
    """The commutator flow, trimmed to its verified descent, or None."""

    def value(G):
        return evaluate(norm, S - G)

    P = norm_gradient(norm, S - G0)
    K = P @ G0 - G0 @ P
    if frob(K) == 0:
        return None
    K = K / frob(K)

    def flow(t):
        E = skew_exp(K, t)
        G = E @ G0 @ E.conj().T
        return (G + G.conj().T) / 2.0

    return trim_to_descent(_sampled_curve("gradient_flow", flow, value))


def sv_witness_flow(norm, A, B):
    """The first of the two two-sided flows whose trimmed drop verifies, or
    None."""

    def value(Bt):
        return evaluate(norm, A - Bt)

    for P in (norm_gradient(norm, A - B), A - B):
        d1 = P @ B.conj().T
        d1 = (d1 - d1.conj().T) / 2.0
        d2 = B.conj().T @ P
        d2 = (d2 - d2.conj().T) / 2.0
        nrm = np.sqrt(frob(d1) ** 2 + frob(d2) ** 2)
        if nrm == 0.0:
            continue

        def flow(t, d1=d1 / nrm, d2=d2 / nrm):
            return skew_exp(d1, t) @ B @ skew_exp(d2, t)

        trimmed = trim_to_descent(_sampled_curve("gradient_flow", flow, value))
        if trimmed is not None:
            return trimmed
    return None


# ---------------------------------------------------------------------------
# spectrum samplers, one sample at a time


def orbit_spectra_loop(S, dvals, gaussians):
    """Spectra of S - Q D Q^H, Q from the phase-fixed QR of each sample."""
    S = np.asarray(S, dtype=complex)
    D = np.diag(np.asarray(dvals, dtype=complex))
    out = np.empty((len(gaussians), S.shape[0]))
    for i, Z in enumerate(gaussians):
        Q, R = np.linalg.qr(Z)
        for j in range(Q.shape[1]):
            r = R[j, j]
            if abs(r) > 0:
                Q[:, j] *= r / abs(r)
        out[i] = np.linalg.eigvalsh(S - Q @ D @ Q.conj().T)[::-1]
    return out


def orbit_residuals_stack(S, dvals, gaussians):
    """S - Q_i D Q_i^H per Haar sample, Q_i = ``haar_qr`` of the i-th
    complex Gaussian matrix, as one stack."""
    S = np.ascontiguousarray(S, dtype=np.complex128)
    dvals = np.ascontiguousarray(dvals, dtype=np.complex128)
    gaussians = np.ascontiguousarray(gaussians, dtype=np.complex128)
    Q = haar_qr(gaussians)
    return S[np.newaxis] - Q @ (dvals[:, np.newaxis] * conj_t(Q))


def orbit_spectra_stack(S, dvals, gaussians):
    """Eigenvalue rows (non-increasing) of ``orbit_residuals_stack``."""
    w = np.linalg.eigvalsh(orbit_residuals_stack(S, dvals, gaussians))
    return w[..., ::-1].copy()


def frobenius_rows(R):
    """sqrt(sum |r_ij|^2) per matrix of a complex ``(n, d, d)`` stack, the
    squares of the real and imaginary parts summed in one reduction per
    matrix, as the samplers sum them."""
    n, d = R.shape[:2]
    x = np.ascontiguousarray(R, dtype=np.complex128).view(np.float64)
    return np.sqrt(np.add.reduce((x * x).reshape(n, 2 * d * d), axis=1))


def orbit_sample_residuals_stack(S, mu, n, seed):
    """S - G over n Haar samples G of the orbit, all n Gaussians drawn and
    worked as one stack."""
    S = as_hermitian(S)
    d = S.shape[0]
    mu = _spectrum(mu, d)
    rng = as_rng(seed)
    gaussians = (
        rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    ) / np.sqrt(2.0)
    return orbit_residuals_stack(S, mu.astype(np.complex128), gaussians)


def orbit_sample_values_stack(norm, S, mu, n, seed):
    """Objective values norm(S - G) of ``orbit_sample_residuals_stack``:
    Frobenius from the entries, every other norm from the spectra."""
    R = orbit_sample_residuals_stack(S, mu, n, seed)
    if norm.kind == "frobenius":
        return frobenius_rows(R)
    spectra = np.linalg.eigvalsh(R)[..., ::-1].copy()
    return np.asarray(gauge_from_eigs(norm, spectra))


def sv_orbit_sample_residuals_loop(A, s, n, seed):
    """A - X^H D_s Y over n samples, one ``haar_unitary`` call per X and
    per Y (a block's X's before its Y's)."""
    A = require_square(A)
    s = sort_desc(s)
    d = A.shape[0]
    rng = as_rng(seed)

    R = np.empty((n, d, d), dtype=np.complex128)
    block = 512
    i = 0
    while i < n:
        m = min(block, n - i)
        Xs = np.stack([haar_unitary(d, rng) for _ in range(m)])
        Ys = np.stack([haar_unitary(d, rng) for _ in range(m)])
        Bs = np.conj(np.swapaxes(Xs, -1, -2)) @ (s[:, np.newaxis] * Ys)
        R[i : i + m] = A[np.newaxis] - Bs
        i += m
    return R


def sv_orbit_sample_values_loop(norm, A, s, n, seed):
    """Objective values of ``sv_orbit_sample_residuals_loop``: Frobenius
    from the entries, every other norm from the singular values."""
    R = sv_orbit_sample_residuals_loop(A, s, n, seed)
    if norm.kind == "frobenius":
        return frobenius_rows(R)
    return np.asarray(gauge(norm, np.linalg.svd(R, compute_uv=False)))


def psd_spectra_loop(S, t, gaussians):
    """Spectra of S - t W / tr(W) with W = X X^H for each sample X."""
    S = np.asarray(S, dtype=complex)
    out = np.empty((len(gaussians), S.shape[0]))
    for i, Z in enumerate(gaussians):
        W = Z @ Z.conj().T
        out[i] = np.linalg.eigvalsh(S - (t / np.trace(W).real) * W)[::-1]
    return out


# ---------------------------------------------------------------------------
# frame descents, one restart at a time


def _bb_step(it, G, RG, G_prev, RG_prev, SG):
    """The Barzilai-Borwein step of iteration ``it`` from the last move:
    <s,s>/Re<s,y> on odd iterations, Re<s,y>/<y,y> on even ones, and
    1 / (8 lam_1(S_G) + 1) on iteration 0 or where Re<s,y> <= 0 or the
    quotient is not finite."""
    if it:
        s, y = G - G_prev, RG - RG_prev
        ss = float(np.sum(np.abs(s) ** 2))
        sy = float(np.sum((np.conj(s) * y).real))
        yy = float(np.sum(np.abs(y) ** 2))
        if sy > 0:
            if it % 2:
                eta = ss / sy
            else:
                eta = sy / yy if yy else math.inf
            if math.isfinite(eta):
                return eta
    return 1.0 / (8.0 * float(np.linalg.eigvalsh(SG)[-1]) + 1.0)


def frame_descent_serial(S, G0, a, max_iters, grad_tol=1e-9, armijo_c=1e-4, backtrack=0.5):
    """Squared-Frobenius projected descent of one frame, backtracking from
    ``_bb_step``; returns the frame, the objective trace, the last gradient
    norm and the stop reason."""
    eps = float(np.finfo(float).eps)
    G = np.array(G0, dtype=complex)
    SG = G @ G.conj().T
    X = S - SG
    F = np.sum(np.abs(X) ** 2)
    trace = [F]
    gnorm, stop = math.inf, "max_iters"
    G_prev = RG_prev = None
    for it in range(max_iters):
        EG = -4.0 * (X @ G)
        RG = EG - G * (np.sum((np.conj(EG) * G).real, axis=0) / a)
        g2 = np.sum(np.abs(RG) ** 2)
        gnorm = np.sqrt(g2)
        if gnorm < grad_tol:
            stop = "converged"
            break
        eta = _bb_step(it, G, RG, G_prev, RG_prev, SG)
        G_prev, RG_prev = G, RG
        floor = 64.0 * eps * (1.0 + F)
        for _bt in range(60):
            Gc = G - eta * RG
            Gc = Gc * np.sqrt(a / np.sum(np.abs(Gc) ** 2, axis=0))
            SGc = Gc @ Gc.conj().T
            Fc = np.sum(np.abs(S - SGc) ** 2)
            needed = armijo_c * eta * g2
            if Fc <= (F - needed if needed >= floor else F + floor):
                break
            eta *= backtrack
        else:
            stop = "stalled_line_search"
            break
        G, SG, X, F = Gc, SGc, S - SGc, Fc
        trace.append(F)
    return G, np.array(trace), float(gnorm), stop


def norm_descent_serial(norm, S, G0, a, max_iters, grad_tol=1e-9, armijo_c=1e-4, backtrack=0.5):
    """Projected descent of norm(S - S_G) for one frame, backtracking from
    ``_bb_step`` and recomputing S_G, the residual and the value at every
    iterate; same return values.

    Stops without progress once 100 iterations in a row set no new lowest
    gradient norm and the value 100 iterations back is within 1e-15 (1 +
    value) of the current one."""
    window = 100
    G = np.array(G0, dtype=complex)
    trace = []
    gnorm, stop = math.inf, "max_iters"
    lowest, lowest_at = math.inf, 0
    G_prev = RG_prev = None
    for it in range(max_iters):
        SG = G @ G.conj().T
        X = S - SG
        value = evaluate(norm, X)
        trace.append(value)
        EG = -2.0 * (norm_gradient(norm, X) @ G)
        RG = EG - G * (np.sum((np.conj(EG) * G).real, axis=0) / a)
        gnorm = float(np.sqrt(np.sum(np.abs(RG) ** 2)))
        if gnorm < grad_tol:
            stop = "converged"
            break
        if gnorm < lowest:
            lowest, lowest_at = gnorm, it
        if it - lowest_at >= window and trace[it - window] - value <= 1e-15 * (1.0 + value):
            stop = "no_progress"
            break
        eta = _bb_step(it, G, RG, G_prev, RG_prev, SG)
        G_prev, RG_prev = G, RG
        for _bt in range(50):
            Gc = G - eta * RG
            Gc *= np.sqrt(a / np.sum(np.abs(Gc) ** 2, axis=0))
            vc = evaluate(norm, S - Gc @ Gc.conj().T)
            if vc <= value - armijo_c * eta * gnorm**2 or vc <= value + 1e-15 * (1.0 + value):
                G = Gc
                break
            eta *= backtrack
        else:
            stop = "stalled_line_search"
            break
    else:
        trace.append(evaluate(norm, S - G @ G.conj().T))
    return G, np.array(trace), gnorm, stop
