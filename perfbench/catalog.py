"""Hand-written reference data, independent of germforge's output.

NORMAL_FORMS lists moduli-free normal forms of codimension <= 3
(Golubitsky-Schaeffer, Singularities and Groups in Bifurcation Theory I,
ch. IV, Table 2.1) in the variables (x, lambda).  For each:

- ``codim``: dimension of E/T(f);
- ``s_blocks``: S(f), the smallest intrinsic ideal containing f, as blocks
  (k, l) meaning M^k<lambda^l>.  S(f) is the sum of M^a<lambda^b> over the
  support monomials x^a*lambda^b, reduced to its minimal blocks.  The
  recognition conditions follow from it: the derivatives at the monomials
  outside S(f) vanish, and those at one generator per block do not;
- ``unfold``: monomials spanning a complement of T(f) (GS's universal
  unfolding directions);
- ``hessian``: sign of g_xx*g_ll - g_xl^2 at 0, which separates the classes
  whose S(f) is M^2 (isola > 0, transcritical < 0, the rest 0).

FAMILIES are the unfoldings G(x, lambda, alpha) of the transition-sets
workload; their transition sets are derived by ``refs/derive_refs.py``.
"""

from fractions import Fraction

NORMAL_FORMS = [
    # name, f, codim, s_blocks, unfold, hessian
    ("limit-point", "x^2 - lambda", 0, [(2, 0), (0, 1)], [], 0),
    ("hysteresis", "x^3 - lambda", 1, [(3, 0), (0, 1)], [(1, 0)], 0),
    ("hysteresis+", "x^3 + lambda", 1, [(3, 0), (0, 1)], [(1, 0)], 0),
    ("isola", "x^2 + lambda^2", 1, [(2, 0)], [(0, 0)], 1),
    ("transcritical", "x^2 - lambda^2", 1, [(2, 0)], [(0, 0)], -1),
    ("pitchfork", "x^3 - x*lambda", 2, [(3, 0), (1, 1)],
     [(0, 0), (2, 0)], 0),
    ("quartic-fold", "x^4 - lambda", 2, [(4, 0), (0, 1)],
     [(1, 0), (2, 0)], 0),
    ("asymmetric-cusp", "x^2 + lambda^3", 2, [(2, 0)],
     [(0, 0), (0, 1)], 0),
    ("quintic-fold", "x^5 - lambda", 3, [(5, 0), (0, 1)],
     [(1, 0), (2, 0), (3, 0)], 0),
    ("winged-cusp", "x^3 + lambda^2", 3, [(3, 0), (0, 2)],
     [(0, 0), (1, 0), (1, 1)], 0),
    ("quartic-pitchfork", "x^4 - x*lambda", 3, [(4, 0), (1, 1)],
     [(0, 0), (0, 1), (2, 0)], 0),
    ("x2-lambda4", "x^2 - lambda^4", 3, [(2, 0)],
     [(0, 0), (0, 1), (0, 2)], 0),
]

# Unfoldings of the transition-sets workload, in (x, lam, a1, ...).
FAMILIES = {
    "winged-cusp": ("x^4 - lam*x + a1 + a2*lam + a3*x^2", 3),
    "quintic": ("x^5 - lam + a1*x + a2*x^2 + a3*x^3", 3),
    "pitchfork": ("x^3 - x*lam + a1 + a2*x^2", 2),
    "hysteresis": ("x^3 - lam + a1*x", 1),
    "isola": ("x^2 + lam^2 + a1", 1),
}

# The box U x L of the nonpersistent job, before rescaling.
BOX = ((Fraction(-2), Fraction(2)), (Fraction(1), Fraction(3)))
