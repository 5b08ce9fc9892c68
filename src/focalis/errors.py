"""Errors, and the table of every bound focalis compares with: each row's
comment gives its unit ("pure" for a ratio) and what it compares ("over x"
names the scale the row is multiplied by where it is read)."""

import numpy as np

# -- verdicts: residual <= bound in a report's "passed"
UNITARY_TOL = 1e-10        # pure: max |g^H g - I| of transport's endpoint
FACTORIZATION_TOL = 1e-6   # pure: max |holonomy - transport of the pull-back| (unitary entries)
BRACKET_TOL = 1e-9         # pure: worst bracket of two root spaces outside its allowed targets
ORTHOGONALITY_TOL = 1e-8   # pure: worst orbit-section inner product over the largest |a_i|
FLATNESS_TOL = 1e-10       # pure: max |[a_i, a_j]| of the section's basis
COMMUTATOR_TOL = 1e-9      # 1/length^3: max Frobenius norm of [R(xi), A_xi] over the trials
CHECK_TOL = 1e-8           # 1/length or length: --tol default for iso spreads and equifocal radii
SPEC_ABS_TOL = 1e-9        # eigenvalue: weak check, |x - y| of sorted spectra: absolute part
SPEC_REL_TOL = 1e-12       # pure: weak check, the same: part relative to max(|x|, |y|)
# -- decisions, read where they decide with their own operators
FOCAL_TOL = 1e-9           # pure: |Y(r)| over 1 + |Y'(r)| below it makes r a focal radius
MERGE_TOL = 1e-9           # length: radii within it of their cluster's first radius merge
LINEAR_BRANCH_TOL = 1e-300  # eigenvalue: |lambda_R| at or below it takes the linear C, S
CAUCHY_THRESHOLD = 1e-6    # eigenvalue: spread of the trailing partial sums of a convergent trace
ZETA_TOLERANCE = 1e-6      # pure: tail bound over 1 + |value| of a convergent zeta trace
CLUSTER_TOL = 1e-8         # pure: gap over 1 + |head| of scaled ad(H)^2 eigenvalues in a cluster
ROOT_TOL = 1e-7            # pure: sqrt of a cluster's eigenvalue over the largest; from it, a root
SIGN_TOL = 1e-9            # pure: a root's first component above it fixes the root's sign
EIGEN_TOL = 1e-9           # pure: ad(H_i)^2 eigen residual over 1 + lambda_i^2 of a draw of H
ROOT_MATCH_TOL = 1e-7      # pure: distance of root vectors, up to sign, that name one space
THETA_TOL = 1e-10          # pure: refuses theta unless involutive and an automorphism
CENTRALIZER_TOL = 1e-10    # pure: rank cut of ad(h) on p; abelian and maximality tests of a
IDENTITY_TOL = 1e-12       # pure: bracket and antisymmetry residuals of a loaded algebra
AD_INVARIANCE_TOL = 1e-9   # pure: ad-invariance residual of the gram over 1 + max |gram|
ANTIHERM_TOL = 1e-12       # pure: refuses max |s + s^H| of samples above it over 1 + max |s|
NORMAL_TOL = 1e-9          # length: refuses xi's tangential or off-span part over 1 + |xi|
SYMMETRY_TOL = 1e-12       # pure: refuses max |m - m^T| / 2 above it over 0.5 + max |m| / 2
SINGULAR_TOL = 1e-12       # eigenvalue: a mode at or below it over max(1, max |eigenvalue|)
PATH_END_TOL = 1e-12       # time: a path's first and last sample times from 0 and 1
PATH_SPACING_TOL = 1e-9    # time: each step of a path from 1/(n - 1)


def verdict(*conditions, **checks) -> dict:
    """The verdict fields of a report, and the one place a verdict compares a
    residual with a bound.  Each named check (residual, bound) holds when
    residual <= bound, for every entry of an array of residuals, so a NaN
    fails; its bound is printed as "<name>_tol".  "passed" holds when every
    check and every condition does."""
    fields = {f"{name}_tol": bound for name, (_, bound) in checks.items()}
    held = all(bool(np.all(np.less_equal(residual, bound))) for residual, bound in checks.values())
    return {**fields, "passed": held and all(conditions)}


class ValidationError(ValueError):
    """Malformed input data (unsorted spectrum, infeasible config, ...)."""


class OracleUndefinedError(RuntimeError):
    """An independent oracle was queried where it is not defined."""


class SingularOperatorError(ValueError):
    """Operator is (numerically) singular; carries the offending eigenvector."""

    def __init__(self, message, eigenvalue=None, eigenvector=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.eigenvector = eigenvector
