"""Intrinsic ideals in two variables and the truncation-degree search.

An intrinsic ideal is invariant under contact equivalences; in two variables
every one is a finite sum of blocks M^k<lambda^l>.  The block calculus below
(membership, canonical forms, the largest intrinsic ideal inside a space)
underlies normal forms and recognition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .jets import Jet, monomials_upto
from .linalg import RowSpace
from .localalg import answer_span, codimension, ideal_span, least_degree

DEFAULT_UPPER_BOUND = 20
# the working degree of a germ for which `verify_germ` finds none
FALLBACK_DEGREE = 6

INCREASE_BOUND_WARNING = "Increase the upper bound for the truncation degree!"
INFINITE_CODIM_REMARK = "the ideal is of infinite codimension"


def canonical_blocks(blocks) -> list:
    """Reduced block list, sorted with l strictly increasing (and hence k
    strictly decreasing).  M^k1<lambda^l1> lies in M^k2<lambda^l2> exactly
    when l1 >= l2 and k1 + l1 >= k2 + l2, so in one pass by (l, k) a block is
    kept when its k + l is below the running minimum, the last kept one's."""
    out = []
    for k, l in sorted(blocks, key=lambda b: (b[1], b[0])):
        if not out or k + l < sum(out[-1]):
            out.append((k, l))
    return out


@dataclass(frozen=True)
class IntrinsicIdeal:
    """A sum of blocks M^k<lambda^l> in canonical form."""

    blocks: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_blocks(cls, blocks) -> "IntrinsicIdeal":
        return cls(tuple(canonical_blocks(blocks)))

    @property
    def is_zero(self) -> bool:
        return not self.blocks

    def contains_monomial(self, m) -> bool:
        a, b = m
        return any(b >= l and a + b >= k + l for k, l in self.blocks)

    def contains(self, f: Jet) -> bool:
        return all(self.contains_monomial(m) for m in f.terms)

    def generators(self) -> list:
        """One monomial generator x^k*lambda^l per block."""
        return [(k, l) for k, l in self.blocks]

    def monomials_upto(self, bound: int) -> list:
        return [
            m for m in monomials_upto(2, bound) if self.contains_monomial(m)
        ]

    def __str__(self) -> str:
        if not self.blocks:
            return "0"
        parts = []
        for k, l in self.blocks:
            piece = ""
            if k == 1:
                piece = "M"
            elif k > 1:
                piece = "M^%d" % k
            if l == 1:
                piece += "<lambda>"
            elif l > 1:
                piece += "<lambda^%d>" % l
            if not piece:
                piece = "<1>"
            parts.append(piece)
        return " + ".join(parts)


@dataclass
class IntrinsicResult:
    ideal: IntrinsicIdeal
    remark: Optional[str] = None


def intrinsic_from_members(members: set, k: int) -> IntrinsicIdeal:
    """Largest intrinsic ideal whose degree-<=k monomials all lie in the
    given member set, read in one scan of those monomials.  The block
    M^a<lambda^l> holds the x^i*lambda^j with j >= l and i + j >= a + l, so
    with h the highest degree of a non-member with j >= l (-1 when there is
    none), l has a block exactly when h < k, and its least a is
    max(0, h - l + 1)."""
    high = [-1] * (k + 1)  # per lambda exponent j, as the scan ascends
    for m in monomials_upto(2, k):
        if m not in members:
            high[m[1]] = m[0] + m[1]
    blocks, h = [], -1
    for l in range(k, -1, -1):
        h = max(h, high[l])
        if h < k:
            blocks.append((max(0, h - l + 1), l))
    return IntrinsicIdeal.from_blocks(blocks)


def intrinsic_part(I: List[Jet], k: Optional[int] = None) -> IntrinsicResult:
    """Largest intrinsic ideal contained in <I> modulo degree k, read from
    the `answer_span` (exact at the own degree of polynomials), or for
    polynomials of infinite codimension from the span one degree above
    their largest total degree.
    Infinite codimension is remarked on when the span's pivots hold no pure
    power of some variable, the test of `localalg.normal_set`."""
    if not I:
        return IntrinsicResult(IntrinsicIdeal(()), INFINITE_CODIM_REMARK)
    span = answer_span(I, k)
    if span is None:
        degrees = [f.total_degree() for f in I if not f.is_zero()]
        span = ideal_span(I, max(degrees) + 1 if degrees else 1)
    infinite = least_degree(span.pivots(), len(span.variables)) is None
    return IntrinsicResult(intrinsic_from_members(span.monomials(),
                                                  span.degree),
                           INFINITE_CODIM_REMARK if infinite else None)


def smallest_intrinsic(g: Jet) -> IntrinsicIdeal:
    """The smallest intrinsic ideal containing g: the sum of M^a<lambda^b>
    over the support monomials x^a*lambda^b."""
    if g.is_zero():
        raise ValueError("smallest_intrinsic of the zero germ")
    return IntrinsicIdeal.from_blocks([(a, b) for a, b in g.terms])


@dataclass
class VerifyReport:
    truncation_degree: Optional[int]
    warnings: List[str] = field(default_factory=list)
    # M*RT(j^k g) at k+1, where the search found M^(k+1) inside P(j^k g)
    span: Optional[RowSpace] = field(default=None, repr=False)


def mrt_span(g: Jet, k: int) -> RowSpace:
    """M*RT(g) = M{g} + M^2{g_x} in the degree-k jet space, the first of the
    nested spans M*RT(g) in RT(g) in T(g)."""
    space = RowSpace(g.variables, k)
    space.add_multiples(g, 1)
    space.add_multiples(g.diff(g.variables[0]), 2)
    return space


def high_order_part(g: Jet, k: int) -> IntrinsicIdeal:
    """P(g), the ideal of negligible high-order terms: the largest intrinsic
    ideal inside M*RT(g), from the degree-k jet."""
    return intrinsic_from_members(mrt_span(g, k).monomials(), k)


def verify_germ(expand, upper_bound: int = DEFAULT_UPPER_BOUND
                ) -> VerifyReport:
    """Least truncation degree k with M^(k+1) inside P(j^k g), reported with
    the span M*RT(j^k g) at degree k+1 that P is read from
    (`intrinsic_from_members`); one expand per degree, `expand(k)` the k-jet
    of g, and one span per degree whose jet passes the axis test below.
    M^(k+1) is intrinsic, so it lies in P exactly when the span holds every
    monomial of degree k+1, and the search reads no P itself.
    With N(h) = M{h} + M^2{h_x}, the test implies the two other conditions:
    - P is stable from k to k+1: the test gives M^(k+1) in N(j^k g) +
      M^(k+2), so in N(j^k g) (Nakayama); j^(k+1) g - j^k g lies in M^(k+1),
      so N(j^(k+1) g) + M^(k+2) = N(j^k g) + M^(k+2), and as both contain
      M^(k+1) they are equal.  P(j^(k+1) g) at degree k+2 keeps every block
      with l <= k+1, and its extra block <lambda^(k+2)> lies in the l = 0 one.
    - the fractional ring is valid: its basis is stable by the leading-form
      lemma of `localalg.ideal_span`, here for one generator.
    The same equality modulo M^(k+2) makes the reported span M*RT(j^(k+1) g)
    at degree k+1, and its `truncate(k)` M*RT(j^k g) at degree k: the
    tangent spans grow from it (`singularity._tangent_spans`).
    The test also needs both axes, read off the k-jet h = j^k g: the ring
    maps lambda -> 0 and x -> 0 take N(h) + M^(k+2) onto <x*h(x, 0),
    x^2*h_x(x, 0)> + <x^(k+2)> and <lambda*h(0, lambda), lambda^2*h_x(0,
    lambda)> + <lambda^(k+2)>.  The first holds x^(k+1) only if h(x, 0) is
    nonzero, and the second holds lambda^(k+1) only if h has a term
    x^a*lambda^b with a <= 1.  A jet without both cannot pass, so its span
    is not built; the zero jet is one."""
    for k in range(1, upper_bound + 1):
        g = expand(k)
        if not (any(b == 0 for _, b in g.terms)
                and any(a <= 1 for a, _ in g.terms)):
            continue
        # work one degree above the jet so the M^(k+1) boundary is visible
        span = mrt_span(g, k + 1)
        members = span.monomials()
        if all((k + 1 - i, i) in members for i in range(k + 2)):
            return VerifyReport(k, span=span)
    return VerifyReport(None, warnings=[INCREASE_BOUND_WARNING])


def working_degree(expand, k: Optional[int] = None
                   ) -> Tuple[int, Optional[RowSpace], List[str]]:
    """(k, span, warnings): the degree at which a germ's questions are
    answered.  That is the given k; else `verify_germ`'s truncation degree,
    with its span M*RT(j^k g) at degree k + 1, from which P(j^k g) is read
    (`intrinsic_from_members(span.monomials(), k + 1)`); else 6, with
    `verify_germ`'s warning.  The span is None unless `verify_germ` found
    the degree."""
    if k is not None:
        return k, None, []
    rep = verify_germ(expand)
    if rep.truncation_degree is None:
        return FALLBACK_DEGREE, None, rep.warnings
    return rep.truncation_degree, rep.span, []


def verify_ideal(G: List[Jet], upper_bound: int = DEFAULT_UPPER_BOUND
                 ) -> VerifyReport:
    """Least truncation degree k >= 1 at which the truncated ideal has
    finite codimension, one span per degree; its pivots are stable
    (`localalg.ideal_span`), so the fractional ring is valid."""
    for k in range(1, upper_bound + 1):
        if codimension(G, k) is not None:
            return VerifyReport(k)
    return VerifyReport(None, warnings=[INCREASE_BOUND_WARNING])
