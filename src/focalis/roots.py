"""Restricted-root decomposition of a symmetric pair and its bracket pattern.

Given an involutive automorphism theta of a compact matrix Lie algebra, the
(-1)-eigenspace p carries a maximal abelian subspace a.  The simultaneous
eigenspaces of ad(H)^2 over generic H in a split the algebra into the
centralizer g_0 and root spaces g_lambda; signed root vectors (values of
lambda on the a-basis, defined up to a global sign) are recovered from the
skew action of ad(H_i) on each eigenspace.  All ad actions and brackets are
taken through the structure constants in coordinates of a Killing-orthonormal
basis, where ad(x) is skew-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebras import LieAlgebraBasis, decimal_number, load_algebra
from .errors import (BRACKET_TOL, CENTRALIZER_TOL, CLUSTER_TOL, EIGEN_TOL, ROOT_MATCH_TOL,
                     ROOT_TOL, SIGN_TOL, THETA_TOL, ValidationError, verdict)

MAX_DRAWS = 8           # draws of a generic H in a before the eigen test refuses the pair


def involution(name: str, matrix_size: int) -> Callable[[np.ndarray], np.ndarray]:
    """Named involutions: 'conj' (complex conjugation) or 'ad_diag' /
    'ad_diag_p' (conjugation by diag(1,...,1,-1,...) with p leading +1s,
    1 <= p < matrix_size; 'ad_diag' takes p = matrix_size - 1).  The returned
    map acts on the last two axes of a matrix stack."""
    name = name.lower().strip()
    if name == "conj":
        return np.conj
    if name.startswith("ad_diag"):
        suffix = name[len("ad_diag"):]
        p = matrix_size - 1 if suffix == "" else None
        if suffix.startswith("_"):
            p = decimal_number(suffix[1:])
        if p is None or not 1 <= p < matrix_size:
            raise ValidationError(f"involution '{name}': p must be an integer in "
                                  f"1..{matrix_size - 1}")
        d = np.ones(matrix_size)
        d[p:] = -1.0
        return lambda x: d[:, None] * x * d
    raise ValidationError(f"unsupported involution '{name}'")


@dataclass(frozen=True, eq=False)
class RestrictedRootData:
    algebra: LieAlgebraBasis
    onb: np.ndarray               # (dim, m, m) orthonormal basis of the algebra
    k_basis: np.ndarray           # the (+1)-eigenspace k of theta (unit Hilbert-Schmidt matrices)
    structure: np.ndarray         # c'[i, j, k]: [onb_i, onb_j] = sum_k c'_ijk onb_k
    a_basis: np.ndarray           # (rank, m, m) maximal abelian subspace basis
    roots: np.ndarray             # (l, rank) signed root vectors on the a-basis
    space_bases: tuple            # coefficient bases (dim, n_a) per root, g_0 first
    # space_bases[0] is g_0; space_bases[i] corresponds to roots[i-1]

    @property
    def n0(self) -> int:
        return self.space_bases[0].shape[1]

    @property
    def multiplicities(self) -> tuple:
        """Dimension of each root's cluster k_lam + p_lam, in the order of roots:
        2 m_lam, twice Helgason's multiplicity m_lam = dim p_lam."""
        return tuple(b.shape[1] for b in self.space_bases[1:])

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def dimension_identity(self) -> bool:
        return self.n0 + sum(self.multiplicities) == self.dim


def _congruence(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_ab m[a, i] m[b, j] c[a, b, l] as the (i, j, l) view of an (i, l, j)
    array: two matmuls over the first axis, in the pairwise order, layouts
    and operands of einsum's greedy path for "ai,bj,abl->ijl", so its bits."""
    n = len(m)
    t = (c.transpose(1, 2, 0).reshape(n * n, n) @ m).reshape(n, n, n)    # [b, l, i]
    t = (t.transpose(2, 1, 0).reshape(n * n, n) @ m).reshape(n, n, n)    # [i, l, j]
    return t.transpose(0, 2, 1)


def _in_basis(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_ijl c[i, j, l] v[i, a] v[j, b] v[l, c], a new C-ordered array: three
    matmuls in the pairwise order, layouts and operands of einsum's greedy
    path for "ijl,ia,jb,lc->abc", so its bits."""
    n = len(v)
    t = (v.T @ c.reshape(n, n * n)).reshape(n, n, n)                     # [a, j, l]
    t = (t.transpose(0, 2, 1).reshape(n * n, n) @ v).reshape(n, n, n)    # [a, l, b]
    return (t.transpose(0, 2, 1).reshape(n * n, n) @ v).reshape(n, n, n)


def _ad(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """ad matrices in onb coordinates of the columns of x: (cols, dim, dim)."""
    return np.einsum("ir,ijl->rlj", x.reshape(len(c), -1), c)


def _root_clusters(ad_a: np.ndarray, weights: np.ndarray):
    """Eigenvectors v2 of -ad(H)^2 for H = sum_i weights_i a_i, the bounds of
    their clusters, which clusters are roots, and the roots (first nonzero
    component positive); None unless ad(H_i)^2 acts as -lambda_i^2 on every
    root's cluster and as 0 on g_0.  The eigenvalues are read over the
    largest, so no size of H sinks a root into g_0; a cluster runs while they
    stay within CLUSTER_TOL of its first one, its head."""
    n = ad_a.shape[1]
    Ag = np.tensordot(weights, ad_a, axes=1)
    Ag = (Ag - Ag.T) / 2.0
    m2 = -(Ag @ Ag)
    w2, v2 = np.linalg.eigh((m2 + m2.T) / 2.0)
    order = np.argsort(w2)
    w2, v2 = w2[order], v2[:, order]
    unit = w2 / np.abs(w2).max()
    heads = [0]
    for j in range(1, n):
        if abs(unit[j] - unit[heads[-1]]) >= CLUSTER_TOL * (1.0 + abs(unit[heads[-1]])):
            heads.append(j)
    bounds = np.array(heads + [n])
    c2 = np.maximum(w2[heads], 0.0)
    is_root = np.sqrt(np.maximum(unit[heads], 0.0)) >= ROOT_TOL
    # the root of a cluster from its head v: lam_i = <[H_i, v], [H, v]> / sqrt(c2)
    lams = np.array([(ad_a @ v2[:, i]) @ (Ag @ v2[:, i])
                     for i in bounds[:-1][is_root]]) / np.sqrt(c2[is_root])[:, None]
    # sign normalization: first nonzero component positive
    big = np.abs(lams) > SIGN_TOL
    lead = np.take_along_axis(lams, np.argmax(big, axis=1)[:, None], axis=1)
    lams *= np.where(big.any(axis=1, keepdims=True) & (lead < 0.0), -1.0, 1.0)
    # the eigen test, lambda_i^2 per column of v2 (0 on g_0): (rank, n)
    lam2 = np.zeros((len(heads), len(ad_a)))
    lam2[is_root] = lams ** 2
    lam2 = np.repeat(lam2, np.diff(bounds), axis=0).T
    res = np.abs((ad_a @ ad_a) @ v2 + lam2[:, None] * v2).max(axis=1)
    return None if np.any(res > EIGEN_TOL * (1.0 + lam2)) else (v2, bounds, is_root, lams)


def restricted_root_decomposition(algebra, theta: str,
                                  seed: int = 7) -> RestrictedRootData:
    """Split the algebra into g_0 and the restricted root spaces.

    theta is a named involution; a is found as the centralizer in p of a
    generic element of p, then verified to be maximal abelian.
    """
    alg = algebra if isinstance(algebra, LieAlgebraBasis) else load_algebra(algebra)
    th = involution(theta, alg.matrix_size)

    # onb_i = sum_j li_ij e_j with gram = l l^T; onb coordinates are x -> coef(x) @ l
    n = alg.dim
    l = np.linalg.cholesky(alg.gram)
    li = np.linalg.inv(l)
    onb = alg.from_coefficients(li)
    # c'_ijl = sum li_ia li_jb c_abk l_kl, in einsum's greedy order (onb_i = li_ia e_a)
    c = (_congruence(alg.structure, li.T).reshape(n * n, n) @ l).reshape(n, n, n)

    # theta in onb coordinates, theta(onb_i) = sum_a tmat[a, i] onb_a: an
    # involution (T T = I) and an automorphism (theta[x, y] = [theta x, theta y])
    tmat = (alg.coefficients(th(onb)) @ l).T
    if np.max(np.abs(tmat @ tmat - np.eye(n))) > THETA_TOL:
        raise ValidationError("theta is not involutive")
    if np.max(np.abs(_congruence(c, tmat) - c @ tmat.T)) > THETA_TOL:
        raise ValidationError("theta is not an automorphism")

    # k and p = the (+1)- and (-1)-eigenspaces of theta in coefficient space
    w, v = np.linalg.eigh((tmat + tmat.T) / 2.0)
    k_mats = np.tensordot(v[:, w > 0.0].T, onb, axes=1)
    k_mats /= np.linalg.norm(k_mats, axis=(1, 2))[:, None, None]
    p_c = v[:, w < 0.0]
    if p_c.shape[1] == 0:
        raise ValidationError("theta has no (-1)-eigenspace; the pair is trivial")
    rng = np.random.default_rng(seed)
    h_gen = p_c @ rng.normal(size=p_c.shape[1])
    # a = centralizer of the generic element inside p
    _, s, vt = np.linalg.svd(_ad(h_gen, c)[0] @ p_c)
    rank = int(np.sum(s > CENTRALIZER_TOL * (s[0] if len(s) else 1.0)))
    a_c = p_c @ vt[rank:].T
    # abelian + maximality checks, ad_a[i] @ x = coordinates of [a_i, x]
    ad_a = _ad(a_c, c)
    if np.max(np.abs(ad_a @ a_c)) > CENTRALIZER_TOL:
        raise ValidationError("candidate a is not abelian")
    # maximal: no direction of p outside a commutes with all of a
    dev = np.abs(ad_a @ (p_c @ vt[:rank].T)).max(axis=1)
    if np.any(np.all(dev < CENTRALIZER_TOL, axis=0)):
        raise ValidationError("candidate a is not maximal abelian")

    # a generic H in a: the seeded weights, drawn again while some cluster fails
    # the eigen test (a root nearly vanishes on H, or two nearly agree up to sign)
    draws = np.random.default_rng(seed + 1)
    for _ in range(MAX_DRAWS):
        found = _root_clusters(ad_a, draws.normal(size=a_c.shape[1]))
        if found is not None:
            break
    else:
        raise ValidationError(f"root spaces fail the ad(H)^2 eigen test in {MAX_DRAWS} draws of H")
    v2, bounds, is_root, lams = found
    in_root = np.repeat(is_root, np.diff(bounds))      # per column of v2
    order = np.argsort([np.linalg.norm(r) for r in lams])
    return RestrictedRootData(
        algebra=alg, onb=onb, k_basis=k_mats, structure=c,
        a_basis=np.tensordot(a_c.T, onb, axes=1), roots=lams[order],
        space_bases=(v2[:, ~in_root],) + tuple(
            v2[:, bounds[k]:bounds[k + 1]] for k in np.flatnonzero(is_root)[order]))


def verify_bracket_pattern(data: RestrictedRootData) -> dict:
    """Project brackets of root-space basis vectors onto the complement of the
    predicted target space and report residuals.

    Allowed targets: [g_0, g_0] in g_0; [g_0, g_lam] in g_lam; and
    [g_lam, g_mu] in g_{lam+mu} + g_{|lam-mu|} (a summand drops whenever
    lam+mu resp. lam-mu is not a restricted root; lam = mu adds g_0).
    Also reports the residual of the sum-only target.  `residuals[a, b]` is
    the worst distance of a bracket [g_a, g_b] from its allowed targets,
    index 0 being g_0 and index i roots[i-1]; the maxima run over a <= b.

    The space bases together form an orthonormal basis V of the algebra, so a
    bracket's distance from a sum of spaces is the norm of its V-coordinates
    outside them; those coordinates are the structure constants in V.
    """
    bases = data.space_bases
    v = np.hstack(bases)
    cv = _in_basis(data.structure, v)
    sizes = [b.shape[1] for b in bases]
    starts = np.cumsum([0] + sizes[:-1])
    owner = np.repeat(np.arange(len(bases)), sizes)
    sq = np.add.reduceat(np.square(cv, out=cv), starts, axis=2)   # per target space
    # hit[k][a, b, c]: lam_c = +-(lam_a + sigma_k lam_b) within ROOT_MATCH_TOL,
    # from the Gram matrix: min over signs of |t -+ r|^2 is |t|^2 + |r|^2 - 2 |t.r|
    g = np.zeros((len(bases), len(bases)))           # g_0 has the root 0
    g[1:, 1:] = data.roots @ data.roots.T
    nrm = np.diag(g)
    hit = [nrm[:, None, None] + nrm[None, :, None] + 2.0 * sigma * g[:, :, None]
           + nrm - 2.0 * np.abs(g[:, None, :] + sigma * g[None]) < ROOT_MATCH_TOL ** 2
           for sigma in (1.0, -1.0)]
    report = {}
    for suffix, outside in (("", ~(hit[0] | hit[1])), ("_sum_only", ~hit[0])):
        worst = np.einsum("xys,xys->xy", sq, outside[owner[:, None], owner])
        worst = np.maximum.reduceat(np.maximum.reduceat(worst, starts, axis=0), starts, axis=1)
        report["residuals" + suffix] = np.sqrt(worst)
        report["max_residual" + suffix] = float(np.triu(report["residuals" + suffix]).max())
    report["dimension_identity"] = data.dimension_identity()
    return {**report, **verdict(report["dimension_identity"],
                                bracket=(report["max_residual"], BRACKET_TOL))}
