"""Independent reference computations used only by the tests.

The convolution oracle does not touch the package's pseudo-spectral
machinery: the trilinear form is evaluated by expanding every trig factor
into complex exponentials and applying the exact resonance condition
s1*k + s2*l + s3*m = 0, so the two routes share no code beyond the mode
metadata. The `reference_*` functions are the plain or former forms of
package computations, kept to compare the current ones against.
`random_field` draws test fields as coefficient rows, and the grid helpers
(`max_divergence`, `grid_l2_integral`, `embed`) check a row's synthesis.
`path_dump_lines` and `diagonal_map` serve tests only: a path dump as one
list of lines, and a linear state map outside the built-in ones.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = np.sqrt(2.0)

# trig(phase) as a sum of complex exponentials: {sign: coefficient}
_REP = {
    "cos": ((+1, 0.5 + 0.0j), (-1, 0.5 + 0.0j)),
    "sin": ((+1, 0.0 - 0.5j), (-1, 0.0 + 0.5j)),
}
# phase derivative of the trig factor: cos -> -sin, sin -> cos
_REP_D = {
    "cos": ((+1, 0.0 + 0.5j), (-1, 0.0 - 0.5j)),
    "sin": ((+1, 0.5 + 0.0j), (-1, 0.5 + 0.0j)),
}


def conv_b_modes(ma, mb, mc) -> float:
    """b(e_a, e_b, e_c) by the analytic triple-trig integral.

    Each argument is anything with kx, ky, parity attributes. Uses
    b = 2*sqrt(2)/(|k||l||m|) * (k x l) (l . m) * avg(Ta(kx) Tb'(lx) Tc(mx))
    where the average is 1 on exact resonances and 0 otherwise.
    """
    k = (ma.kx, ma.ky)
    l = (mb.kx, mb.ky)
    m = (mc.kx, mc.ky)
    cross = k[0] * l[1] - k[1] * l[0]
    dot = l[0] * m[0] + l[1] * m[1]
    if cross == 0 or dot == 0:
        return 0.0
    total = 0.0 + 0.0j
    for s1, c1 in _REP[ma.parity]:
        for s2, c2 in _REP_D[mb.parity]:
            for s3, c3 in _REP[mc.parity]:
                if (s1 * k[0] + s2 * l[0] + s3 * m[0] == 0
                        and s1 * k[1] + s2 * l[1] + s3 * m[1] == 0):
                    total += c1 * c2 * c3
    if total == 0:
        return 0.0
    norm = np.sqrt((k[0]**2 + k[1]**2) * (l[0]**2 + l[1]**2) * (m[0]**2 + m[1]**2))
    val = 2.0 * SQRT2 * cross * dot / norm * total
    assert abs(val.imag) < 1e-14
    return float(val.real)


def conv_coupling_dense(basis) -> np.ndarray:
    """Dense tensor T[i, j, l] = b(e_i, e_j, e_l) by brute-force triple loop."""
    modes = basis.modes
    n = len(modes)
    t = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                t[i, j, l] = conv_b_modes(modes[i], modes[j], modes[l])
    return t


def conv_nonlinear(basis, coeffs, dense=None) -> np.ndarray:
    """B(u) through the convolution tensor: B_l = sum_ij T[i,j,l] c_i c_j."""
    if dense is None:
        dense = conv_coupling_dense(basis)
    return np.einsum("ijl,i,j->l", dense, coeffs, coeffs)


def reference_nonlinear_advective(basis, coeffs) -> np.ndarray:
    """B(u) as the projection of the advective form (u . grad) u.

    The former package implementation: one gemm synthesizes u, d_x u and
    d_y u on the collocation grid, (u . grad) u is formed pointwise and
    projected back onto the modes.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    smat = basis.synthesis_matrix()
    m = basis.m_grid
    trio = np.stack((c, basis.deriv_coeffs(c, 0), basis.deriv_coeffs(c, 1)))
    ug, adv, dv1 = (trio @ smat).reshape(trio.shape[:-1] + (m, m, 2))
    adv *= ug[..., 0:1]
    dv1 *= ug[..., 1:2]
    adv += dv1
    flat = adv.reshape(adv.shape[:-3] + (-1,))
    return flat @ smat.T / m**2


def random_field(basis, rng, decay=1.0, norm_h=None) -> np.ndarray:
    """Gaussian coefficient row with per-mode standard deviation lam^(-decay).

    With decay >= 1 the draws are comfortably inside the domain of the Stokes
    operator; decay 0 gives white noise across modes. If norm_h is given the
    row is rescaled to that H norm.
    """
    c = rng.standard_normal(basis.dim) * basis.eigenvalues ** (-decay)
    if norm_h is not None:
        c *= norm_h / np.linalg.norm(c)
    return c


def synthesize(basis, coeffs) -> np.ndarray:
    """Point values of a coefficient row on the collocation grid, (M, M, 2)."""
    return (coeffs @ basis.synthesis_matrix()).reshape(basis.m_grid,
                                                       basis.m_grid, 2)


def max_divergence(basis, coeffs) -> float:
    """Max pointwise divergence of the synthesized field, via an FFT route.

    Independent of the mode-derivative tables; used as a consistency check
    that every synthesized field is divergence free to round-off.
    """
    grid = synthesize(basis, coeffs)
    m = basis.m_grid
    k = np.fft.fftfreq(m, d=1.0 / m)
    f0 = np.fft.fft2(grid[:, :, 0])
    f1 = np.fft.fft2(grid[:, :, 1])
    div_hat = 1j * (k[:, None] * f0 + k[None, :] * f1)
    return float(np.abs(np.fft.ifft2(div_hat).real).max())


def grid_l2_integral(basis, coeffs) -> float:
    """Lebesgue integral of |u|^2 over the torus by grid quadrature."""
    grid = synthesize(basis, coeffs)
    return float((2.0 * np.pi)**2 * np.sum(grid**2) / basis.m_grid**2)


def embed(basis, coeffs, big_basis) -> np.ndarray:
    """Copy a coefficient row into a finer basis (same mode labels)."""
    c = np.zeros(big_basis.dim)
    for m, a in zip(basis.modes, coeffs):
        c[big_basis.mode_index(m.kx, m.ky, m.parity)] = a
    return c


def reference_jump_batch(basis, cfg, u0, streams, kernel, forcing=None):
    """Jump arm advanced one path and one atom at a time.

    The straightforward form of the jump-adapted split: for every path
    with atoms in a step, walk its atoms in order, moving by the
    exponential Euler step with the compensated drift of the last substate
    and adding sigma_eps at each atom.  Bookkeeping (blow-up masking, the
    V-integral, the H-norm supremum, records) is spelled out inline.
    """
    from snse.integrate import ArmTraces, _explicit_drift, _tile_initial
    from snse.kernels import compensator_drift, eval_sigma_eps
    from snse.sampling import sample_prm

    n_paths = len(streams)
    u = _tile_initial(u0, n_paths, basis.dim)
    atoms = [sample_prm(kernel, cfg.t_end, g) for g in streams]
    eigs = basis.eigenvalues
    efac = np.exp(-eigs * cfg.dt)
    rec = ArmTraces(cfg, 1, n_paths, basis.dim)
    active = np.ones(n_paths, dtype=bool)
    blow_t = np.full(n_paths, np.nan)
    iv2 = np.zeros(n_paths)
    counts = np.zeros(n_paths, dtype=np.int64)
    sup4 = np.sum(u * u, axis=1) ** 2
    cap2 = cfg.blowup_norm**2
    steps = [np.minimum((a.times / cfg.dt).astype(int), cfg.n_steps - 1)
             for a in atoms]

    def substeps(u_cur, drift, t, t1, a, ks):
        piece, sup2 = 0.0, -np.inf
        for k in ks:
            delta = a.times[k] - t
            if delta > 0.0:
                piece += delta * float((u_cur * u_cur) @ eigs)
                u_cur = np.exp(-eigs * delta) * (u_cur + delta * drift)
                sup2 = max(sup2, float(np.sum(u_cur * u_cur)))
            u_cur = u_cur + eval_sigma_eps(kernel, u_cur, a.marks[k])
            sup2 = max(sup2, float(np.sum(u_cur * u_cur)))
            t = a.times[k]
            expl = _explicit_drift(basis, cfg, u_cur[None, :], forcing)[0]
            drift = expl - compensator_drift(kernel, u_cur)
        delta = t1 - t
        piece += delta * float((u_cur * u_cur) @ eigs)
        return np.exp(-eigs * delta) * (u_cur + delta * drift), piece, sup2

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(cfg.n_steps):
            expl = _explicit_drift(basis, cfg, u, forcing)
            if n % cfg.record_stride == 0:
                rec.record(n // cfg.record_stride, u, np.sum(u * u, axis=1),
                           (u * u) @ eigs, expl, eigs, iv2, counts)
            driftc = expl - compensator_drift(kernel, u)
            u_new = efac * (u + cfg.dt * driftc)
            iv2_step = cfg.dt * ((u * u) @ eigs)
            sup2_extra = {}
            for p in range(n_paths):
                ks = np.flatnonzero(steps[p] == n)
                if not active[p] or not ks.size:
                    continue
                u_new[p], iv2_step[p], sup2_extra[p] = substeps(
                    u[p], driftc[p], n * cfg.dt, n * cfg.dt + cfg.dt,
                    atoms[p], ks)
                counts[p] += ks.size

            h2 = np.sum(u_new * u_new, axis=1)
            was_active = active.copy()
            bad = active & (~np.isfinite(h2) | (h2 > cap2))
            if bad.any():
                blow_t[bad] = (n + 1) * cfg.dt
                active = active & ~bad
                u_new[bad] = np.nan
            iv2_step[~np.isfinite(iv2_step)] = 0.0
            iv2[was_active] += iv2_step[was_active]
            np.maximum(sup4, np.where(active, h2 * h2, -np.inf), out=sup4)
            for p, sup2 in sup2_extra.items():
                if active[p] and np.isfinite(sup2):
                    sup4[p] = max(sup4[p], sup2 * sup2)
            u = u_new
        expl = _explicit_drift(basis, cfg, u, forcing)
        rec.record(cfg.n_recorded - 1, u, np.sum(u * u, axis=1),
                   (u * u) @ eigs, expl, eigs, iv2, counts)
    rec.finish(u, sup4, blow_t)
    return rec.batches()[0]


# ---------------------------------------------------------------------------
# a path dump as one list of lines

def path_dump_lines(batch, track_modes) -> list[str]:
    """Every line of a path dump as one list: the list form of
    harness.path_dump_blocks."""
    from snse.harness import path_dump_blocks

    return [line for block in path_dump_blocks(batch, track_modes)
            for line in block.split("\n")]


# ---------------------------------------------------------------------------
# a linear state map outside the package's built-in maps

def diagonal_map(diag):
    """The FieldMap u -> diag * u. It is linear, so its gain is t and its
    gain moment is scaled_identity's."""
    from snse.kernels import FieldMap, scaled_identity

    d = np.asarray(diag, dtype=np.float64)
    top = float(np.max(np.abs(d)))
    return FieldMap("diagonal",
                    lambda u, n2=None: np.asarray(u, dtype=np.float64) * d,
                    lambda r: top * r, lambda t, r: t,
                    scaled_identity().moment)


# ---------------------------------------------------------------------------
# gain moments as a sum over the (rows, nodes) array of gains

def reference_moment_half(kernel, coeffs, k):
    """The +z half of kernels.gain_moment summed node by node, and its scale.

    The half is row_dot(g^k, w h^k) over the (rows, nodes) array of gains
    g = gain(theta(z), |u|_H) on the table, as gain_moment summed it before
    the state maps had closed-form moments (numpy's pow for k > 1). The
    scale is sum_q |w h^k g^k| per row, the size of the sum's round-off.
    """
    from snse.kernels import row_dot

    t = kernel.table
    r = np.linalg.norm(coeffs, axis=-1, keepdims=True)
    g = np.broadcast_to(kernel.sigma.gain(t.theta, r),
                        r.shape[:-1] + t.theta.shape)
    gk, a = (g if k == 1 else g**k), t.w * t.h**k
    return row_dot(gk, a), row_dot(np.abs(gk), np.abs(a))


# ---------------------------------------------------------------------------
# nu-integrals with sigma evaluated at every node of the kernel's table

def reference_node_values(kernel, coeffs):
    """Per sign: rule weights times the density, h and sigma(theta(z) u).

    Both signs come from the kernel's callables at the rule's nodes +z and
    at their mirrors -z, never from the kernel's one-sign table, so the
    comparisons check the table's symmetry instead of assuming it. coeffs
    may carry leading row axes; the node axis sits before the last.
    """
    from snse.kernels import _node_rule

    z, rule = _node_rule(kernel.h, kernel.measure)
    for marks in (z, -z):
        scaled = kernel.theta.fn(marks)[:, None] * coeffs[..., None, :]
        yield (rule * kernel.measure.density(marks), kernel.h.fn(marks),
               kernel.sigma.fn(scaled))


def reference_compensator(kernel, coeffs):
    """Integral of sigma_eps(u, z) d(nu), node by node."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    total = np.zeros_like(coeffs)
    for w, hv, vals in reference_node_values(kernel, coeffs):
        total += np.einsum("q,...qn->...n", w * hv, vals)
    return total


def reference_l2_mass(kernel, u):
    total = 0.0
    for w, hv, sig in reference_node_values(kernel, u):
        total += float((w * hv * hv) @ np.sum(sig * sig, axis=1))
    return total


def reference_l4_mass(kernel, u):
    total = 0.0
    for w, hv, sig in reference_node_values(kernel, u):
        n2 = np.sum(sig * sig, axis=1)
        total += float((w * hv**4) @ (n2 * n2))
    return total


def reference_l2_diff(kernel, u, v):
    total = 0.0
    for (w, hv, su), (_, _, sv) in zip(reference_node_values(kernel, u),
                                       reference_node_values(kernel, v)):
        du = su - sv
        total += float((w * hv * hv) @ np.sum(du * du, axis=1))
    return total


def reference_v2_mass(kernel, u, eigenvalues):
    total = 0.0
    for w, hv, sig in reference_node_values(kernel, u):
        total += float((w * hv * hv) @ ((sig * sig) @ eigenvalues))
    return total


def reference_qv_matrix(kernel, x):
    total = np.zeros((x.size, x.size))
    for w, hv, sig in reference_node_values(kernel, x):
        total += ((w * hv * hv)[:, None] * sig).T @ sig
    return total


# ---------------------------------------------------------------------------
# certification checks, one sampled field at a time

def reference_max_witness(vals):
    """Running maximum from -inf with witness 0, strict improvements only."""
    best, wit = -np.inf, 0
    for i, val in enumerate(vals):
        if val > best:
            best, wit = val, i
    return best, wit


def reference_growth_lipschitz(basis, kernels, forcing=None, n_samples=40,
                               seed=101, bound=None):
    """(check, epsilon, value, witness, passed) rows of check_growth_lipschitz.

    Every ratio is formed from one-row helper calls, field by field.
    """
    from snse.hypotheses import (jump_l2_diff, jump_l2_mass, jump_l4_mass,
                                 random_sample_fields)
    from snse.kernels import zero_map

    F = forcing if forcing is not None else zero_map()
    fields = random_sample_fields(basis, 2 * n_samples, seed)
    us, vs = fields[:n_samples], fields[n_samples:]
    rows = []
    for kern in kernels:
        g2, g4, lp = [], [], []
        for u, v in zip(us, vs):
            n2 = float(np.sum(u * u))
            g2.append((float(np.sum(F.fn(u) ** 2))
                       + float(jump_l2_mass(kern, u))) / (1.0 + n2))
            g4.append(float(jump_l4_mass(kern, u)) / (1.0 + n2 ** 2))
            lp.append((float(np.sum((F.fn(u) - F.fn(v)) ** 2))
                       + jump_l2_diff(kern, u, v))
                      / float(np.sum((u - v) ** 2)))
        for name, vals in (("growth_l2", g2), ("growth_l4", g4),
                           ("lipschitz", lp)):
            val, wit = reference_max_witness(vals)
            ok = np.isfinite(val) and (bound is None or val <= bound)
            rows.append((name, kern.epsilon, val, wit, bool(ok)))
    return rows


def reference_qv_limit_v_growth(basis, kernels, n_samples=40, seed=202,
                                qv_tol=0.05, trend_slack=1.05):
    """(check, epsilon, value, witness, passed) rows of check_qv_limit_v_growth.

    The matched Brownian mass is summed here with np.sum, independently of
    the package's helper.
    """
    from snse.hypotheses import jump_l2_mass, jump_v2_mass, random_sample_fields

    fields = random_sample_fields(basis, n_samples, seed)
    eigs = basis.eigenvalues
    rows, gaps = [], []
    for kern in kernels:
        qv, vg = [], []
        for u in fields:
            bm = float(np.sum(kern.sigma.fn(u) ** 2))
            qv.append(abs(float(jump_l2_mass(kern, u)) - bm)
                      / (1.0 + float(np.sum(u * u))))
            vg.append(float(jump_v2_mass(kern, u, eigs))
                      / (1.0 + float((u * u) @ eigs)))
        gap, gw = reference_max_witness(qv)
        gaps.append(gap)
        rows.append(["qv_gap", kern.epsilon, gap, gw, True])
        val, wit = reference_max_witness(vg)
        rows.append(["v_growth", kern.epsilon, val, wit,
                     bool(np.isfinite(val))])
    trend_ok = all(b <= a * trend_slack + 1e-9 for a, b in zip(gaps, gaps[1:]))
    for r in rows:
        if r[0] == "qv_gap":
            r[4] = bool(trend_ok and gaps[-1] <= qv_tol)
    return [tuple(r) for r in rows]


def power_magnitude_cdf(p: float, a: float, b: float, x):
    """CDF of the magnitude law with density prop. to r^p on [a, b], the
    inverse of measures.power_magnitude_ppf, for sampler cross-checks."""
    x = np.clip(np.asarray(x, dtype=np.float64), a, b)
    q = p + 1.0
    if q == 0.0:
        return np.log(x / a) / np.log(b / a)
    aq = a**q
    bq = 0.0 if b == math.inf else b**q
    return (x**q - aq) / (bq - aq)
