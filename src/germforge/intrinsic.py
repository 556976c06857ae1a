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
from .localalg import codimension, ideal_span

DEFAULT_UPPER_BOUND = 20

INCREASE_BOUND_WARNING = "Increase the upper bound for the truncation degree!"
INFINITE_CODIM_REMARK = "the ideal is of infinite codimension"


def _block_contains(outer: Tuple[int, int], inner: Tuple[int, int]) -> bool:
    """Is M^k1<lambda^l1> (inner) a subset of M^k2<lambda^l2> (outer)?"""
    k2, l2 = outer
    k1, l1 = inner
    return l1 >= l2 and k1 + l1 >= k2 + l2


def canonical_blocks(blocks) -> list:
    """Reduced block list: minimal k per l, containments dropped, sorted with
    l strictly increasing (and hence k strictly decreasing)."""
    best = {}
    for k, l in blocks:
        if l not in best or k < best[l]:
            best[l] = k
    items = sorted(best.items())  # (l, k)
    out = []
    for l, k in items:
        if any(_block_contains(b, (k, l)) for b in out):
            continue
        out = [b for b in out if not _block_contains((k, l), b)]
        out.append((k, l))
    out.sort(key=lambda b: b[1])
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


def span_with_extra(I: List[Jet], extra: Optional[List[Jet]], k: int) -> RowSpace:
    """Jet-space span of the ideal generated by I plus the plain linear span
    of `extra`; I and extra hold at least one jet between them."""
    extra = list(extra or [])
    space = ideal_span(I, k) if I else RowSpace(extra[0].variables, k)
    for f in extra:
        space.add(f)
    return space


@dataclass
class IntrinsicResult:
    ideal: IntrinsicIdeal
    remark: Optional[str] = None


def intrinsic_from_members(members: set, k: int) -> IntrinsicIdeal:
    """Largest intrinsic ideal whose degree-<=k monomials all lie in the
    given member set."""
    blocks = []
    for l in range(k + 1):
        for a in range(k - l + 1):
            block_ok = all(
                (m in members)
                for m in monomials_upto(2, k)
                if m[1] >= l and m[0] + m[1] >= a + l
            )
            if block_ok:
                blocks.append((a, l))
                break
    return IntrinsicIdeal.from_blocks(blocks)


def intrinsic_part(I: List[Jet], extra: Optional[List[Jet]] = None,
                   k: Optional[int] = None) -> IntrinsicResult:
    """Largest intrinsic ideal contained in <I> + span(extra) modulo degree
    k.  Infinite codimension is reported as a remark, not an error."""
    if not I and not extra:
        return IntrinsicResult(IntrinsicIdeal(()), INFINITE_CODIM_REMARK)
    if k is None:
        degrees = [f.total_degree() for f in list(I) + list(extra or [])
                   if not f.is_zero()]
        k = max(degrees) + 1 if degrees else 1
    ideal = intrinsic_from_members(span_with_extra(I, extra, k).monomials(), k)
    remark = None
    if not any(l == 0 for _k, l in ideal.blocks):
        remark = INFINITE_CODIM_REMARK
    return IntrinsicResult(ideal, remark)


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


def high_order_part(g: Jet, k: int) -> IntrinsicIdeal:
    """P(g), the ideal of negligible high-order terms: the largest intrinsic
    ideal inside M*RT(g) = M{g} + M^2{g_x}, from the degree-k jet."""
    space = RowSpace(g.variables, k)
    space.add_multiples(g, 1)
    space.add_multiples(g.diff(g.variables[0]), 2)
    return intrinsic_from_members(space.monomials(), k)


def degree_bound(opt: Optional[int] = None) -> int:
    """The upper bound of truncation-degree searches: `opt` when given,
    else 20."""
    return DEFAULT_UPPER_BOUND if opt is None else opt


def verify_germ(expand, upper_bound: Optional[int] = None) -> VerifyReport:
    """Least truncation degree k with M^(k+1) inside P(j^k g), one expand
    and one P per degree; `expand(k)` must be j^k g, the k-jet of one germ.
    With N(h) = M{h} + M^2{h_x}, the test implies the two other conditions:
    - P is stable from k to k+1: the test gives M^(k+1) in N(j^k g) +
      M^(k+2), so in N(j^k g) (Nakayama); j^(k+1) g - j^k g lies in M^(k+1),
      so N(j^(k+1) g) + M^(k+2) = N(j^k g) + M^(k+2), and as both contain
      M^(k+1) they are equal.  P(j^(k+1) g) at degree k+2 keeps every block
      with l <= k+1, and its extra block <lambda^(k+2)> lies in the l = 0 one.
    - the fractional ring is valid: its basis is stable by the leading-form
      lemma of `localalg.standard_basis`, here for one generator."""
    bound = degree_bound(upper_bound)
    for k in range(1, bound + 1):
        g = expand(k)
        if g.is_zero():
            continue
        # work one degree above the jet so the M^(k+1) boundary is visible
        P = high_order_part(g, k + 1)
        if all(P.contains_monomial((k + 1 - i, i)) for i in range(k + 2)):
            return VerifyReport(k)
    return VerifyReport(None, warnings=[INCREASE_BOUND_WARNING])


def verify_ideal(G: List[Jet], upper_bound: Optional[int] = None) -> VerifyReport:
    """Least truncation degree k >= 1 at which the truncated ideal has
    finite codimension, one standard basis per degree with a nonzero jet.
    Its basis is stable by the leading-form lemma of
    `localalg.standard_basis`, so the fractional ring is valid."""
    bound = degree_bound(upper_bound)
    for k in range(1, bound + 1):
        Gk = [f.truncate(k) for f in G]
        Gk = [f for f in Gk if not f.is_zero()]
        if Gk and codimension(Gk, k) is not None:
            return VerifyReport(k)
    return VerifyReport(None, warnings=[INCREASE_BOUND_WARNING])
