"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written by a different route than the code
under test: exhaustive path enumeration instead of dynamic programming,
dense linear solves instead of the lattice recursions, spectral sampling
instead of the cepstrum recursion, and an explicitly-looped composite-chain
construction instead of the library's vectorized embedding.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import solve_toeplitz
from scipy.special import logsumexp
from scipy.stats import norm

# ---------------------------------------------------------------------------
# emission log-densities (independent of the library's formulas)
# ---------------------------------------------------------------------------

def emission_log_density(emission, x) -> float:
    """Log density of one observation under one state's emission model."""
    if hasattr(emission, "probs"):
        p = float(np.asarray(emission.probs)[int(x)])
        return float(np.log(p)) if p > 0 else -np.inf
    means = np.asarray(emission.means)
    variances = np.asarray(emission.variances)
    weights = np.asarray(emission.weights)
    comp = norm.logpdf(np.asarray(x)[None, :], loc=means, scale=np.sqrt(variances)).sum(axis=1)
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    return float(logsumexp(logw + comp))


def emission_log_matrix(model, frames) -> np.ndarray:
    frames = np.asarray(frames)
    t_count = frames.shape[0]
    out = np.empty((t_count, model.n_states))
    for t in range(t_count):
        for s in range(model.n_states):
            out[t, s] = emission_log_density(model.emissions[s], frames[t])
    return out


# ---------------------------------------------------------------------------
# exhaustive enumeration over state sequences
# ---------------------------------------------------------------------------

def path_log_probs(model, frames, paths) -> np.ndarray:
    """(P,) joint log-probabilities of the frames and each row of the
    (P, T) state ``paths``: log initial, transition and emission terms
    summed along the path. For order 2 the first transition uses trans1
    and later ones trans2. A forbidden transition gives -inf."""
    paths = np.asarray(paths, dtype=np.int64)
    logb = emission_log_matrix(model, frames)
    t_count = logb.shape[0]
    with np.errstate(divide="ignore"):
        logpi = np.log(model.initial)
        if model.order == 1:
            loga = np.log(model.trans)
        else:
            loga1 = np.log(model.trans1)
            loga2 = np.log(model.trans2)
    scores = logpi[paths[:, 0]] + logb[0, paths[:, 0]]
    if model.order == 1:
        for t in range(1, t_count):
            scores = scores + loga[paths[:, t - 1], paths[:, t]] + logb[t, paths[:, t]]
    else:
        if t_count >= 2:
            scores = scores + loga1[paths[:, 0], paths[:, 1]] + logb[1, paths[:, 1]]
        for t in range(2, t_count):
            scores = scores + loga2[paths[:, t - 2], paths[:, t - 1], paths[:, t]] + logb[t, paths[:, t]]
    return scores


def _path_scores(model, frames) -> tuple[np.ndarray, np.ndarray]:
    """(paths, log-scores) over every state sequence of length T."""
    t_count = np.asarray(frames).shape[0]
    paths = np.array(list(itertools.product(range(model.n_states), repeat=t_count)), dtype=np.int64)
    return paths, path_log_probs(model, frames, paths)


def enum_log_likelihood(model, frames) -> float:
    _, scores = _path_scores(model, frames)
    return float(logsumexp(scores))


def _backtrack_key(path, order: int) -> tuple:
    """Sequence in the order the library's backtracking resolves states.

    Ties in the dynamic program are broken toward the lowest state index at
    each resolution step, so among equally-scoring paths the one minimizing
    this tuple is returned.
    """
    p = list(path)
    if order == 1:
        return tuple(reversed(p))
    if len(p) == 1:
        return (p[0],)
    return (p[-2], p[-1], *reversed(p[:-2]))


def enum_best_path(model, frames) -> tuple[np.ndarray, float]:
    paths, scores = _path_scores(model, frames)
    best = np.max(scores)
    if not np.isfinite(best):
        raise ValueError("no path with positive probability")
    winners = [tuple(p) for p, s in zip(paths, scores) if s == best]
    chosen = min(winners, key=lambda p: _backtrack_key(p, model.order))
    return np.array(chosen, dtype=np.int64), float(best)


def enum_state_posteriors(model, frames) -> np.ndarray:
    """gamma[t, s] = P(state at t = s | frames), by enumeration."""
    paths, scores = _path_scores(model, frames)
    total = logsumexp(scores)
    t_count = np.asarray(frames).shape[0]
    gamma = np.zeros((t_count, model.n_states))
    w = np.exp(scores - total)
    for t in range(t_count):
        for s in range(model.n_states):
            gamma[t, s] = w[paths[:, t] == s].sum()
    return gamma


def enum_pair_posteriors(model, frames) -> np.ndarray:
    """xi[t, i, j] = P(state i at t, state j at t+1 | frames), enumeration."""
    paths, scores = _path_scores(model, frames)
    total = logsumexp(scores)
    t_count = np.asarray(frames).shape[0]
    n = model.n_states
    xi = np.zeros((t_count - 1, n, n))
    w = np.exp(scores - total)
    for t in range(t_count - 1):
        for i in range(n):
            for j in range(n):
                xi[t, i, j] = w[(paths[:, t] == i) & (paths[:, t + 1] == j)].sum()
    return xi


# ---------------------------------------------------------------------------
# composite-chain construction for second-order models (explicit loops)
# ---------------------------------------------------------------------------

class CompositeChain:
    """First-order chain over ordered state pairs (prev, cur) built from a
    second-order model by explicit loops. Composite index c = prev * N + cur.
    The chain runs over frames[1:]; frame 0 is folded into the start vector.
    """

    def __init__(self, model, frames):
        n = model.n_states
        frames = np.asarray(frames)
        b0 = np.array([np.exp(emission_log_density(model.emissions[s], frames[0])) for s in range(n)])
        start = np.zeros(n * n)
        for j in range(n):
            for k in range(n):
                start[j * n + k] = model.initial[j] * b0[j] * model.trans1[j, k]
        trans = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    trans[i * n + j, j * n + k] = model.trans2[i, j, k]
        self.n = n
        self.start = start          # unnormalized start weights
        self.trans = trans
        self.model = model
        self.tail = frames[1:]

    def log_emissions(self) -> np.ndarray:
        t_count = self.tail.shape[0]
        out = np.empty((t_count, self.n * self.n))
        for t in range(t_count):
            for j in range(self.n):
                val = emission_log_density(self.model.emissions[j], self.tail[t])
                for i in range(self.n):
                    out[t, i * self.n + j] = val
        return out

    def log_forward_backward(self):
        """Unscaled log-domain alpha/beta over the composite chain."""
        logb = self.log_emissions()
        t_count = logb.shape[0]
        with np.errstate(divide="ignore"):
            logstart = np.log(self.start)
            logtrans = np.log(self.trans)
        alpha = np.full((t_count, self.n * self.n), -np.inf)
        alpha[0] = logstart + logb[0]
        for t in range(1, t_count):
            for c in range(self.n * self.n):
                alpha[t, c] = logsumexp(alpha[t - 1] + logtrans[:, c]) + logb[t, c]
        beta = np.zeros((t_count, self.n * self.n))
        for t in range(t_count - 2, -1, -1):
            for c in range(self.n * self.n):
                beta[t, c] = logsumexp(logtrans[c] + logb[t + 1] + beta[t + 1])
        return alpha, beta

    def posteriors(self):
        """(gamma over composite states, xi over composite transitions)."""
        alpha, beta = self.log_forward_backward()
        total = logsumexp(alpha[-1])
        gamma = np.exp(alpha + beta - total)
        t_count = alpha.shape[0]
        logb = self.log_emissions()
        with np.errstate(divide="ignore"):
            logtrans = np.log(self.trans)
        xi = np.zeros((t_count - 1, self.n * self.n, self.n * self.n))
        for t in range(t_count - 1):
            for c in range(self.n * self.n):
                for c2 in range(self.n * self.n):
                    v = alpha[t, c] + logtrans[c, c2] + logb[t + 1, c2] + beta[t + 1, c2]
                    xi[t, c, c2] = np.exp(v - total)
        return gamma, xi


# ---------------------------------------------------------------------------
# dense recursions
# ---------------------------------------------------------------------------

def dense_viterbi(stack, logb, paths=True):
    """The max-plus recursion of a model stack (inference._ModelStack) over
    the whole slice (all N states; for order 2 all N^2 pairs, reachable or
    not) and all N predecessors of every entry, allowed or not, as the
    library ran it before its steps visited only the reachable entries and
    their allowed predecessors. Takes
    the (T, S, N) log densities; returns the (S, T) best paths (None
    without ``paths``), the (S,) scores and, per model, the first frame
    whose best score is -inf (None when there is none)."""
    T, S, N = logb.shape
    order = stack.order
    names = ("trans",) if order == 1 else ("trans1", "trans2")
    with np.errstate(divide="ignore"):
        logtrans = [np.log(getattr(stack, name)) for name in names]
        dp = np.log(stack.initial) + logb[0]
    frames = logb if order == 1 else logb[:, :, None, :]
    peaks = np.empty((S, T))
    ptr = np.empty((S, T) + (N,) * order, dtype=np.int64)
    peaks[:, 0] = dp.max(axis=1)
    for t in range(1, T):
        cand = dp[..., None] + logtrans[min(t, order) - 1]
        if dp.ndim > order:
            ptr[:, t] = np.argmax(cand, axis=1)
            cand = cand.max(axis=1)
        dp = cand + frames[t]
        peaks[:, t] = dp.reshape(S, -1).max(axis=1)
    dead = np.isneginf(peaks)
    first_dead = [int(np.argmax(row)) if row.any() else None for row in dead]
    flat = dp.reshape(S, -1)
    best = np.argmax(flat, axis=1)
    rows = np.arange(S)
    if not paths:
        return None, flat[rows, best], first_dead
    states = np.empty((S, T), dtype=np.int64)
    states[:, T - (dp.ndim - 1):] = np.stack(np.unravel_index(best, dp.shape[1:]), axis=1)
    for t in range(T - 1, order - 1, -1):
        states[:, t - order] = ptr[(rows, t) + tuple(states[:, t - order + 1:t + 1].T)]
    return states, flat[rows, best], first_dead


def _dense_step(stack, t, prev):
    """One forward step over all N predecessors (see dense_forward)."""
    if stack.order == 1:
        return prev @ stack.trans
    if t == 1:
        return prev.transpose(0, 2, 1) * stack.trans1
    return np.einsum("sij,sijk->sjk", prev, stack.trans2)


def dense_forward(stack, bsh, shifts, lengths=None):
    """The scaled forward pass of a model stack (inference._ModelStack) as
    the library ran it before its order-2 steps visited only allowed
    transitions: every step after the first contracts the whole trans2.
    Takes the (T, S, N) shifted emissions and their (T, S) shifts (lane k
    is padding from lengths[k] on); returns the (T, S, N...) alpha, the
    (S, T) slice log normalizers and, per model, the first frame whose
    normalizer is 0 (None when there is none)."""
    T, S, N = bsh.shape
    order = stack.order
    alpha = np.zeros((T, S) + (N,) * order)
    slices = alpha.reshape(T, S, -1, N)
    norms = np.empty((T, S, 1, 1))
    b = bsh[:, :, None, :]
    a = stack.initial[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(T):
            if t:
                a = _dense_step(stack, t, a)
            u = a * b[t]
            s = np.add.reduce(u, (1, 2), None, norms[t], True)
            a = np.divide(u, s, slices[t]) if t or order == 1 else u / s
        norms = norms.reshape(T, S).T.copy()
        log_norms = np.log(norms)
    log_norms += shifts.T
    dead = norms <= 0.0
    if lengths is not None:
        dead &= np.arange(T) < lengths[:, None]
    first_dead = [int(np.argmax(row)) if row.any() else None for row in dead]
    return alpha, log_norms, first_dead


def dense_backward(stack, bsh, lengths, terminal, norms=None):
    """The scaled backward pass of the lanes of a one-model stack, or of
    the models of a stack as its lanes, as the library ran it before its
    order-2 steps visited only allowed transitions (einsum
    "sijk,sk,sjk->sij" over the whole trans2). Lane k starts from
    ``terminal`` (one value, or one per lane) at its last frame
    lengths[k]-1; slice t is divided by the (T, L) ``norms`` at t or, when
    ``norms`` is None, by its own maximum. For order 2, slice 0 is 0."""
    T, L, N = bsh.shape
    order = stack.order
    axes = tuple(range(1, order + 1))
    if norms is not None:
        norms = norms.reshape((T, L) + (1,) * order)
    terminal = np.broadcast_to(np.reshape(terminal, (-1,) + (1,) * order), (L,) + (1,) * order)
    beta = np.empty((T, L) + (N,) * order)
    u = terminal
    for t in range(T - 1, order - 2, -1):
        if t < T - 1:
            b, nxt = bsh[t + 1], beta[t + 1]
            if order == 1:
                u = np.matmul(stack.trans, (b * nxt)[..., None])[..., 0]
            else:
                u = np.einsum("sijk,sk,sjk->sij", stack.trans2, b, nxt)
            u[lengths - 1 == t] = terminal[lengths - 1 == t]
        np.divide(u, u.max(axes, keepdims=True) if norms is None else norms[t], beta[t])
    if order == 2:
        beta[0] = 0.0
    return beta


def em_step2_reference(model, obs_list, variance_floor, weight_floor, transition_floor):
    """One exact Baum-Welch update of a second-order model, computed through
    the composite first-order chain. Returns a dict of updated arrays.

    Mirrors the documented update contract: pair-transition rows from
    transition posteriors, the first-step matrix from the first pair
    posterior, the start vector (ring topologies) from frame-0 posteriors,
    and floored/renormalized rows only where data reached them.
    """
    n = model.n_states
    eta_sum = np.zeros((n, n, n))
    pair1_sum = np.zeros((n, n))
    gamma0_sum = np.zeros(n)
    gamma_frames = []   # per utterance: (T, n) current-state posteriors
    lls = []

    for frames in obs_list:
        frames = np.asarray(frames)
        chain = CompositeChain(model, frames)
        gamma_c, xi_c = chain.posteriors()
        alpha, _ = chain.log_forward_backward()
        lls.append(float(logsumexp(alpha[-1])))
        t_count = frames.shape[0]
        # composite time s corresponds to the frame pair (s, s+1)
        pair = gamma_c.reshape(t_count - 1, n, n)
        pair1_sum += pair[0]
        gamma0_sum += pair[0].sum(axis=1)
        g = np.zeros((t_count, n))
        g[0] = pair[0].sum(axis=1)
        g[1:] = pair.sum(axis=1)
        gamma_frames.append(g)
        for s in range(t_count - 2):
            x4 = xi_c[s].reshape(n, n, n, n)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        eta_sum[i, j, k] += x4[i, j, j, k]

    def floored_rows(numer, allowed, floor):
        out = np.array(numer, dtype=float)
        res = np.zeros_like(out)
        rows = out.reshape(-1, out.shape[-1])
        allw = allowed.reshape(-1, out.shape[-1])
        dst = res.reshape(-1, out.shape[-1])
        for r in range(rows.shape[0]):
            if rows[r].sum() <= 0:
                continue
            vals = np.where(allw[r], np.maximum(rows[r], floor), 0.0)
            dst[r] = vals / vals.sum()
        return res

    trans2 = floored_rows(eta_sum, model.mask.allowed2, transition_floor)
    keep2 = eta_sum.sum(axis=2) <= 0
    trans2[keep2] = model.trans2[keep2]
    trans2[~model.mask.allowed1] = model.trans2[~model.mask.allowed1]

    trans1 = floored_rows(pair1_sum, model.mask.allowed1, transition_floor)
    keep1 = pair1_sum.sum(axis=1) <= 0
    trans1[keep1] = model.trans1[keep1]

    if model.mask.kind == "circular":
        initial = gamma0_sum / len(obs_list)
        initial = initial / initial.sum()
    else:
        initial = model.initial.copy()

    emissions = []
    for s in range(n):
        e = model.emissions[s]
        if hasattr(e, "probs"):
            counts = np.zeros_like(np.asarray(e.probs))
            for frames, g in zip(obs_list, gamma_frames):
                sym = np.asarray(frames).astype(int).ravel()
                for t, symbol in enumerate(sym):
                    counts[symbol] += g[t, s]
            if counts.sum() <= 0:
                emissions.append(np.asarray(e.probs).copy())
            else:
                vals = np.maximum(counts, weight_floor)
                emissions.append(vals / vals.sum())
            continue
        means = np.asarray(e.means)
        variances = np.asarray(e.variances)
        weights = np.asarray(e.weights)
        m_count, d_count = means.shape
        r_sum = np.zeros(m_count)
        rx = np.zeros((m_count, d_count))
        rxx = np.zeros((m_count, d_count))
        for frames, g in zip(obs_list, gamma_frames):
            frames = np.asarray(frames)
            for t in range(frames.shape[0]):
                comp = norm.logpdf(frames[t][None, :], loc=means, scale=np.sqrt(variances)).sum(axis=1)
                with np.errstate(divide="ignore"):
                    lw = np.log(weights)
                post = lw + comp
                z = logsumexp(post)
                if not np.isfinite(z):
                    continue
                resp = g[t, s] * np.exp(post - z)
                r_sum += resp
                rx += resp[:, None] * frames[t][None, :]
                rxx += resp[:, None] * (frames[t] ** 2)[None, :]
        total = r_sum.sum()
        if total <= 0:
            emissions.append((weights.copy(), means.copy(), variances.copy()))
            continue
        new_w = np.maximum(r_sum / total, weight_floor)
        new_w = new_w / new_w.sum()
        new_means = means.copy()
        new_vars = variances.copy()
        alive = r_sum > 0
        new_means[alive] = rx[alive] / r_sum[alive, None]
        new_vars[alive] = rxx[alive] / r_sum[alive, None] - new_means[alive] ** 2
        all_frames = np.concatenate([np.asarray(f) for f in obs_list], axis=0)
        gvar = all_frames.var(axis=0)
        floor_d = np.maximum(variance_floor * gvar, 1e-12)
        new_vars = np.maximum(new_vars, floor_d[None, :])
        emissions.append((new_w, new_means, new_vars))
    return {
        "initial": initial,
        "trans1": trans1,
        "trans2": trans2,
        "emissions": emissions,
        "log_likelihood": float(sum(lls)),
    }


# ---------------------------------------------------------------------------
# DSP references
# ---------------------------------------------------------------------------

def toeplitz_lpc(r, order: int) -> np.ndarray:
    """Prediction coefficients by a dense Toeplitz solve of R a = r[1:]."""
    r = np.asarray(r, dtype=float)
    return solve_toeplitz((r[:order], r[:order]), r[1 : order + 1])


def spectral_cepstrum(a, n_coeffs: int, n_fft: int = 1 << 15) -> np.ndarray:
    """Cepstrum of 1/A(z) by dense spectral sampling of log|A|."""
    a = np.asarray(a, dtype=float)
    coeffs = np.concatenate(([1.0], -a))
    spectrum = np.fft.fft(coeffs, n_fft)
    cep = np.fft.ifft(np.log(np.abs(spectrum)))
    return -2.0 * np.real(cep[1 : n_coeffs + 1])


def predictor_from_reflection(ks) -> np.ndarray:
    """Step-up recursion: reflection coefficients -> prediction coefficients.

    Any |k_i| < 1 sequence yields a stable (minimum-phase error filter)
    predictor, which is how the tests manufacture stable random predictors.
    """
    a = np.zeros(0)
    for k in ks:
        a = np.concatenate((a - k * a[::-1], [k]))
    return a


def shrink_predictor_roots(a, margin: float = 0.9) -> np.ndarray:
    """Pull the roots of the error filter 1 - sum a_k z^-k inside `margin`.

    The spectral-sampling oracle's only approximation error is cepstral
    aliasing, which decays like (max root radius)^n_fft — invisible for
    comfortably stable predictors but significant when a random predictor
    lands a root within ~1e-5 of the unit circle. Substituting
    a_k <- a_k * g^k scales every root by g, restoring the margin without
    changing the algebraic relationship being tested.
    """
    a = np.asarray(a, dtype=float)
    roots = np.roots(np.concatenate(([1.0], -a)))
    radius = np.abs(roots).max() if roots.size else 0.0
    if radius <= margin:
        return a
    g = margin / radius
    return a * g ** np.arange(1, a.size + 1)


def autocorr_naive(x, max_lag: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros(max_lag + 1)
    for k in range(max_lag + 1):
        acc = 0.0
        for t_i in range(len(x) - k):
            acc += x[t_i] * x[t_i + k]
        out[k] = acc
    return out


def sample_ar_signal(rng, coeffs, n_samples: int, noise_std: float = 1.0) -> np.ndarray:
    """Draw x[t] = sum_k coeffs[k] x[t-k-1] + noise, after a burn-in."""
    coeffs = np.asarray(coeffs, dtype=float)
    p = len(coeffs)
    burn = 500
    x = np.zeros(n_samples + burn)
    for t_i in range(n_samples + burn):
        acc = noise_std * rng.standard_normal()
        for k in range(min(p, t_i)):
            acc += coeffs[k] * x[t_i - k - 1]
        x[t_i] = acc
    return x[burn:]
