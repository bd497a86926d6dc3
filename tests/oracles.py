"""Independent reference computations used only by the tests.

Nothing here touches the package's pseudo-spectral machinery: the trilinear
form is evaluated by expanding every trig factor into complex exponentials
and applying the exact resonance condition s1*k + s2*l + s3*m = 0, so the
two routes share no code beyond the mode metadata.
"""

from __future__ import annotations

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


def embed(field, big_basis):
    """Copy a field's coefficients into a finer basis (same mode labels)."""
    from snse.basis import SpectralField

    c = np.zeros(big_basis.dim)
    for m, a in zip(field.basis.modes, field.coeffs):
        c[big_basis.mode_index(m.kx, m.ky, m.parity)] = a
    return SpectralField(big_basis, c)


def reference_jump_batch(basis, cfg, u0, streams, kernel, forcing=None):
    """Jump arm advanced one path and one atom at a time.

    The straightforward form of the jump-adapted split: for every path
    with atoms in a step, walk its atoms in order, moving by the
    exponential Euler step with the compensated drift of the last substate
    and adding sigma_eps at each atom.  Bookkeeping (blow-up masking, the
    V-integral, the H-norm supremum, records) is spelled out inline.
    """
    from snse.integrate import _explicit_drift, _Recorder, _tile_initial
    from snse.kernels import compensator_drift, eval_sigma_eps
    from snse.sampling import sample_prm

    n_paths = len(streams)
    u = _tile_initial(u0, n_paths, basis.dim)
    atoms = [sample_prm(kernel, cfg.t_end, g) for g in streams]
    eigs = basis.eigenvalues
    efac = np.exp(-eigs * cfg.dt)
    rec = _Recorder(cfg, n_paths, basis.dim)
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
            channel = kernel.channels[a.channels[k]]
            u_cur = u_cur + eval_sigma_eps(channel, u_cur, a.marks[k])
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
                rec.record(n // cfg.record_stride, u, expl, eigs, iv2, counts)
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
        rec.record(cfg.n_recorded - 1, u, expl, eigs, iv2, counts)
    return rec.finish(u, sup4, blow_t)
