"""Hot numeric kernels, in NumPy.

``lockstep_descent`` runs projected descent on the product of spheres for a
``(B, d, k)`` stack of frames at once: every restart keeps its own step size,
backtracking and stop state, and restarts that stop leave the active stack.
Each restart starts its Armijo backtracking from a Barzilai-Borwein step
built from its own last move, so ``eigvalsh`` of S_G runs only for the
restarts that fall back to the fixed step 1 / (8 lam_1(S_G) + 1).
Every stacked operation it uses (matmul, ``eigvalsh``, ``svd``, the
reductions) gives each slice the bits it gives that slice alone, so a
restart descends exactly as it would in a batch of one.  ``frame_descent`` is
that batch of one for the squared Frobenius objective.  A restart retires
with a stop code from ``STOPS``; the norm-distance objective adds a
no-progress stop that cuts only a restart's flat tail, so the iterates
before it are the same.

``orbit_spectra`` and ``psd_spectra`` sample spectra over stacks of Haar and
Wishart-like draws supplied as pre-generated ``(n, d, d)`` Gaussian batches.
``orbit_frobenius`` samples the Frobenius norm of the residuals
``orbit_spectra`` decomposes, from their entries and with no ``eigvalsh``;
``sv_orbit.sv_orbit_sample_values`` does the same with its residuals
through ``_frobenius_rows``.  The two eigenvalue-orbit kernels share
``_orbit_blocks``, which turns each block into Haar unitaries with the
phase-fixed QR of ``matrices.haar_qr`` (also behind ``haar_unitary`` and
the singular-value-orbit sampler) and forms S - Q D Q^H.  ``_blockwise``
runs the work of the orbit samplers in blocks of ``SAMPLE_BLOCK`` samples
on a pool of one thread per CPU: NumPy's stacked LAPACK calls release the
GIL, and a stacked call gives each slice the bits it gives that slice
alone, so the samples are bitwise those of one stack.  Of the pooled work,
the QR and the SVD gain from a second thread and ``eigvalsh`` almost
nothing, so ``psd_spectra``, whose cost is ``eigvalsh``, stays one stack.
"""

import collections
import math
import os

import numpy as np

from .matrices import _haar_qr, conj_t
from .norms import evaluate, norm_gradient

_EPS = float(np.finfo(np.float64).eps)

# why a restart stopped; ``STOPS`` names the codes
CONVERGED, STALLED, MAX_ITERS, DIVERGED, NO_PROGRESS = range(5)
STOPS = ("converged", "stalled_line_search", "max_iters", "diverged", "no_progress")


class SquaredFrobenius:
    """||S - S_G||_F^2, Euclidean gradient -4 (S - S_G) g_i per column.

    Armijo backtracking from the descent's BB step, at most 60 halvings.
    Below 64 eps (1 + F) an Armijo decrease cannot be certified in float64,
    so there any non-increasing step within that floor is accepted.  No
    progress window: a restart runs until it converges, stalls or hits the cap.
    """

    backtracks = 60
    max_iters = 20000
    window = None

    @staticmethod
    def value(X):
        return np.add.reduce(np.square(np.abs(X)), axis=(-2, -1))

    @staticmethod
    def gradient(X, G):
        return -4.0 * (X @ G)

    @staticmethod
    def slope(g2):
        return g2

    @staticmethod
    def slack(F):
        return 64.0 * _EPS * (1.0 + F)

    @staticmethod
    def ceiling(F, needed, slack, up):
        """Largest accepted value: Armijo while it is resolvable, else F + slack."""
        return np.where(needed >= slack, F - needed, up)


class NormDistance:
    """norm(S - S_G) for a smooth strictly convex norm, Euclidean gradient
    -2 P g_i with P the norm's gradient at S - S_G.

    Armijo backtracking from the descent's BB step, at most 50 halvings;
    a step within 1e-15 (1 + value) of the current value is also accepted.

    A restart stops without progress once, over the last ``window``
    iterations, its gradient norm has set no new minimum and its value has
    dropped by no more than that same slack: its descent is at float64
    resolution.  On an attainable target (optimum 0) the norm is not
    differentiable at the optimum, so there the gradient norm never falls
    below ``grad_tol``.
    """

    backtracks = 50
    max_iters = 4000
    window = 100

    def __init__(self, norm):
        if not norm.strictly_convex:
            raise ValueError("the norm-distance objective needs a strictly convex norm")
        self.norm = norm

    def value(self, X):
        return evaluate(self.norm, X)

    def gradient(self, X, G):
        return -2.0 * (norm_gradient(self.norm, X) @ G)

    @staticmethod
    def slope(g2):
        # the squared gradient norm as sqrt(g2) ** 2 in the C library's pow,
        # which differs from g2 and from NumPy's square in the last bit
        return np.array([math.pow(g, 2.0) for g in np.sqrt(g2).tolist()])

    @staticmethod
    def slack(F):
        return 1e-15 * (1.0 + F)

    @staticmethod
    def ceiling(F, needed, slack, up):
        """Largest accepted value: the Armijo bound or F + slack."""
        return np.maximum(F - needed, up)


def _riemannian_gradient(objective, X, G, a):
    """RG, the Euclidean gradient minus its radial part, and |RG|^2 per frame."""
    EG = objective.gradient(X, G)
    RG = EG - G * (np.add.reduce((np.conj(EG) * G).real, axis=-2, keepdims=True) / a)
    return RG, np.add.reduce(np.square(np.abs(RG)), axis=(-2, -1))


def lockstep_descent(objective, S, G0, a, max_iters, grad_tol, armijo_c, backtrack):
    """Projected gradient descent of every frame in a ``(B, d, k)`` stack.

    Columns live on the spheres ||g_i||^2 = a_i: a step moves against the
    Riemannian gradient RG (the Euclidean one minus its radial part) and
    rescales each column back.  Each restart backtracks from a
    Barzilai-Borwein step (Barzilai and Borwein 1988) built from its last
    move s = G_k - G_{k-1} and y = RG_k - RG_{k-1}, both plain ambient
    differences: BB1 = <s,s> / Re<s,y> on odd iterations and BB2 =
    Re<s,y> / <y,y> on even ones.  On iteration 0, and where Re<s,y> <= 0
    or the quotient is not finite, it falls back to 1 / (8 lam_1(S_G) + 1),
    and only those restarts pay for ``eigvalsh``.  The line search accepts
    no step that raises the objective by more than its ``slack``, so each
    trace is non-increasing to within that slack.

    A restart stops when its gradient norm falls below ``grad_tol``
    (CONVERGED), when no backtracked step is accepted (STALLED), when its
    objective turns non-finite (DIVERGED), or after ``max_iters`` steps
    (MAX_ITERS).  An objective with a ``window`` W also stops a restart
    that has not converged when, over its last W iterations, the gradient
    norm set no new minimum and the value dropped by no more than
    ``objective.slack`` of the current value (NO_PROGRESS).

    Returns the final frames ``(B, d, k)``, one objective trace per restart
    (the start value and one value per accepted step), the last computed
    gradient norm per restart (inf if none was) and the stop codes.
    """
    S = np.ascontiguousarray(S, dtype=np.complex128)
    G = np.array(G0, dtype=np.complex128)
    a = np.ascontiguousarray(a, dtype=np.float64)
    max_iters = int(max_iters)
    n = G.shape[0]
    G_out = G.copy()
    traces = np.empty((n, max_iters + 1))
    gnorm_out = np.full(n, np.inf)
    stop_out = np.full(n, MAX_ITERS)
    iters = np.full(n, max_iters)

    # the active stack: original index, frame, S_G, residual, objective and
    # the gradient at the frame; an accepted candidate's S_G, residual and
    # value are carried into the next iteration
    rows = np.arange(n)
    SG = G @ conj_t(G)
    X = S - SG
    F = objective.value(X)
    traces[:, 0] = F
    gnorm = np.full(n, np.inf)
    # the no-progress window: lowest gradient norm so far, and the number of
    # iterations since it last fell
    W = objective.window
    gmin = np.full(n, np.inf)
    since = np.zeros(n, dtype=np.int64)

    # the frame and gradient one iteration back, for the BB step (on
    # iteration 0 they are placeholders that no step reads)
    Gprev = RGprev = G

    def retire(done, code, it):
        nonlocal rows, G, SG, X, F, RG, g2, gnorm, gmin, since, Gprev, RGprev
        who = rows[done]
        G_out[who] = G[done]
        gnorm_out[who] = gnorm[done]
        stop_out[who] = code
        iters[who] = it
        keep = ~done
        rows, G, SG, X, F, RG, g2, gnorm, gmin, since, Gprev, RGprev = (
            v[keep] for v in (rows, G, SG, X, F, RG, g2, gnorm, gmin, since, Gprev, RGprev)
        )

    for it in range(max_iters):
        RG, g2 = _riemannian_gradient(objective, X, G, a)
        gnorm = np.sqrt(g2)
        # the stack is small: any/all over tolist() beat NumPy's reductions
        done = gnorm < grad_tol
        if any(done.tolist()):
            retire(done, CONVERGED, it)
            if not rows.size:
                break
        if W is not None:
            fell = gnorm < gmin
            gmin = np.where(fell, gnorm, gmin)
            since = np.where(fell, 0, since + 1)
            if max(since.tolist()) >= W:
                done = (since >= W) & (traces[rows, it - W] - F <= objective.slack(F))
                if any(done.tolist()):
                    retire(done, NO_PROGRESS, it)
                    if not rows.size:
                        break
        # the BB step, or 1 / (8 lam_1(S_G) + 1) where it falls back
        if it:
            s, y = G - Gprev, RG - RGprev
            sy = np.add.reduce((np.conj(s) * y).real, axis=(-2, -1))
            if it % 2:
                num, den = np.add.reduce(np.square(np.abs(s)), axis=(-2, -1)), sy
            else:
                num, den = sy, np.add.reduce(np.square(np.abs(y)), axis=(-2, -1))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                eta = num / den
            fall = ~((sy > 0) & np.isfinite(eta))
        else:
            eta = np.empty(rows.size)
            fall = np.ones(rows.size, dtype=bool)
        if any(fall.tolist()):
            eta[fall] = 1.0 / (8.0 * np.linalg.eigvalsh(SG[fall])[:, -1] + 1.0)
        Gprev, RGprev = G, RG
        slope = objective.slope(g2)
        slack = objective.slack(F)
        up = F + slack

        # backtracking; ``pend`` indexes the restarts still looking for a
        # step, None while that is all of them
        pend = None
        Gp, RGp, Fp = G, RG, F
        for _bt in range(objective.backtracks):
            Gc = Gp - eta[:, np.newaxis, np.newaxis] * RGp
            Gc = Gc * np.sqrt(a / np.add.reduce(np.square(np.abs(Gc)), axis=-2, keepdims=True))
            SGc = Gc @ conj_t(Gc)
            Xc = S - SGc
            Fc = objective.value(Xc)
            ok = Fc <= objective.ceiling(Fp, armijo_c * eta * slope, slack, up)
            accepted = ok.tolist()
            if all(accepted):
                if pend is None:
                    G, SG, X, F = Gc, SGc, Xc, Fc
                else:
                    G[pend], SG[pend], X[pend], F[pend] = Gc, SGc, Xc, Fc
                break
            if any(accepted):
                if pend is None:
                    # G is written row by row from here on, and Gprev holds it
                    pend, G = np.arange(rows.size), G.copy()
                took = pend[ok]
                G[took], SG[took], X[took], F[took] = Gc[ok], SGc[ok], Xc[ok], Fc[ok]
                miss = ~ok
                pend, eta, slope, slack, up = (v[miss] for v in (pend, eta, slope, slack, up))
                Gp, RGp, Fp = G[pend], RG[pend], F[pend]
            eta = eta * backtrack
        else:
            stalled = np.zeros(rows.size, dtype=bool)
            stalled[slice(None) if pend is None else pend] = True
            retire(stalled, STALLED, it)
        if not all(map(math.isfinite, F.tolist())):
            retire(~np.isfinite(F), DIVERGED, it)
        if not rows.size:
            break
        traces[rows, it + 1] = F
    G_out[rows] = G
    gnorm_out[rows] = gnorm
    return G_out, [traces[i, : iters[i] + 1].copy() for i in range(n)], gnorm_out, stop_out


def frame_descent(S, G0, a, max_iters, grad_tol, armijo_c, backtrack):
    """Squared-Frobenius descent of one ``(d, k)`` frame.

    Returns ``(G, trace, grad_norm, status)`` with status 1 converged,
    -1 diverged and 0 otherwise (stalled line search or iteration cap).
    """
    G, traces, gnorms, stops = lockstep_descent(
        SquaredFrobenius, S, np.asarray(G0)[np.newaxis], a,
        max_iters, grad_tol, armijo_c, backtrack,
    )
    status = {CONVERGED: 1, DIVERGED: -1}.get(int(stops[0]), 0)
    return G[0], traces[0], gnorms[0], status


SAMPLE_BLOCK = 512  # samples per block of the orbit samplers

# the samplers' thread pool, made on first use; a forked child inherits it
# without its threads, so the child drops it and makes its own
_pool = None


def _drop_pool():
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_drop_pool)


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blockwise(n, draw, work):
    """Yield ``(block, work(*draw(block)))`` for the slices ``block`` that
    split n samples into blocks of ``SAMPLE_BLOCK`` (the last holds the
    rest), in block order.

    ``draw`` runs on the calling thread, one block after the other, so a
    Generator it reads gives the stream one loop over the blocks reads.
    ``work`` runs on a pool of one thread per CPU, with at most workers + 1
    blocks in flight; with one CPU it runs inline.  It may call NumPy and
    private helpers only: the per-layer tracer wraps every public function
    of the layer modules and keeps a single-threaded span stack.
    """
    global _pool
    blocks = [slice(i, min(i + SAMPLE_BLOCK, n)) for i in range(0, n, SAMPLE_BLOCK)]
    workers = _cpus()
    if workers < 2:
        for block in blocks:
            yield block, work(*draw(block))
        return
    if _pool is None:
        # two threads that get here at once each make a pool; the one that
        # is dropped is collected, and its idle threads exit
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(workers)
    pool = _pool
    pending = collections.deque()
    for block in blocks:
        pending.append((block, pool.submit(work, *draw(block))))
        if len(pending) > workers:
            ready, future = pending.popleft()
            yield ready, future.result()
    for ready, future in pending:
        yield ready, future.result()


def _frobenius_rows(R):
    """sqrt(sum |r_ij|^2) per matrix of a C-contiguous complex ``(m, d, d)``
    stack: one reduction over the real and imaginary parts of each matrix,
    so a row's value does not depend on the rest of the stack."""
    x = R.view(np.float64).reshape(len(R), -1)
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _orbit_blocks(S, dvals, gaussians, reduce):
    """Yield ``(block, reduce(S - Q_i D Q_i^H))`` in block order, Q_i =
    ``haar_qr`` of the block's Gaussians: the QR, the residuals and
    ``reduce`` run on a pool thread of ``_blockwise``."""
    S = np.ascontiguousarray(S, dtype=np.complex128)
    dvals = np.ascontiguousarray(dvals, dtype=np.complex128)
    gaussians = np.ascontiguousarray(gaussians, dtype=np.complex128)

    def work(Z):
        Q = _haar_qr(Z)
        QH = np.conj(np.swapaxes(Q, -1, -2))  # conj_t, which is public: see _blockwise
        return reduce(S[np.newaxis] - Q @ (dvals[:, np.newaxis] * QH))

    return _blockwise(len(gaussians), lambda block: (gaussians[block],), work)


def orbit_spectra(S, dvals, gaussians):
    """Eigenvalue rows (non-increasing) of S - Q_i D Q_i^H per Haar sample,
    Q_i = ``haar_qr`` of the i-th complex Gaussian matrix.

    The stack is worked in blocks by ``_blockwise``: each block's QR,
    product and ``eigvalsh`` run on a pool thread, and the rows are bitwise
    those of one stacked call.
    """
    out = np.empty(np.shape(gaussians)[:2])
    for block, w in _orbit_blocks(S, dvals, gaussians, np.linalg.eigvalsh):
        out[block] = w[..., ::-1]
    return out


def orbit_frobenius(S, dvals, gaussians):
    """||S - Q_i D Q_i^H||_F per Haar sample, from the entries of each
    residual: the samples of ``orbit_spectra`` without its ``eigvalsh``.

    Each block's QR, product and entrywise norm run on a pool thread; a
    value is bitwise that of one stacked call.
    """
    out = np.empty(len(gaussians))
    for block, v in _orbit_blocks(S, dvals, gaussians, _frobenius_rows):
        out[block] = v
    return out


def psd_spectra(S, t, gaussians):
    """Eigenvalue rows of S - A over random PSD A = t W / tr(W), W = X X^H."""
    S = np.ascontiguousarray(S, dtype=np.complex128)
    gaussians = np.ascontiguousarray(gaussians, dtype=np.complex128)
    W = gaussians @ np.conj(np.swapaxes(gaussians, -1, -2))
    trs = np.trace(W, axis1=-2, axis2=-1).real
    A = W * (float(t) / trs)[:, np.newaxis, np.newaxis]
    w = np.linalg.eigvalsh(S[np.newaxis] - A)
    return w[..., ::-1].copy()
