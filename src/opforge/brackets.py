"""Brackets and differentials on the direct sum of an instance's components.

The pre-Lie product and Lie bracket live on operadic kinds, the odd bracket
on odd kinds (with the shifted sign rule), the rotation-summed bracket on
(anti-)cyclic and modular kinds, the dioperadic product on bimodule kinds.
Odd self-gluings give the operator Delta, horizontal composition upgrades
the brackets to Gerstenhaber brackets and Delta to a BV operator; both
upgrades are verified here on coinvariants.

Each of these operations is a sum of basis-level gluings: one-edge gluings
for the products and brackets, one-loop self-gluings for Delta, disjoint
union for the horizontal product.  Each lists its gluings as (component,
vector) pairs and `_summed` adds them up, once, into one dict per component.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import KindMismatch, NotAssociativeMultiplication
from .gradedlin import ZERO, GradedVector, Q
from .smodules import (StructureInstance, kind_flavor, kind_has_box,
                       kind_has_self, kind_is_odd)


class SumElement:
    """A finite element of the direct sum of components."""

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        self.parts = {}
        if parts:
            for idx, v in parts.items():
                if not v.is_zero():
                    self.parts[idx] = v

    @classmethod
    def single(cls, idx, v: GradedVector) -> "SumElement":
        return cls({idx: v})

    def __add__(self, other):
        out = dict(self.parts)
        for idx, v in other.parts.items():
            out[idx] = out.get(idx, GradedVector()) + v
        return SumElement(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "SumElement":
        return SumElement({i: v.scale(c) for i, v in self.parts.items()})

    def __eq__(self, other):
        return isinstance(other, SumElement) and self.parts == other.parts

    def __hash__(self):
        return hash(frozenset((i, v) for i, v in self.parts.items()))

    def is_zero(self):
        return not self.parts

    def items(self):
        return sorted(self.parts.items(), key=lambda kv: repr(kv[0]))

    def __repr__(self):
        if not self.parts:
            return "SumElement(0)"
        bits = [f"{idx}: {v}" for idx, v in self.items()]
        return "SumElement{" + "; ".join(bits) + "}"


def _homogeneous_pieces(v: GradedVector):
    by_deg: dict = {}
    for be, c in v.terms.items():
        by_deg.setdefault(be.degree, {})[be] = c
    return [(d, GradedVector(t)) for d, t in sorted(by_deg.items())]


def _summed(o: StructureInstance, placed) -> SumElement:
    """Add up (component, vector) pairs.  A term goes to the component its
    basis element names (`component_of_basis`, for free and nc instances),
    else to the component it is paired with."""
    acc: dict = {}
    for idx, v in placed:
        for be, c in v.terms.items():
            key = o.component_of_basis(be)
            terms = acc.setdefault(idx if key is None else key, {})
            terms[be] = terms.get(be, ZERO) + c
    return SumElement({idx: GradedVector(t) for idx, t in acc.items()})


def _pairs(a: SumElement, b: SumElement):
    for ia, va in a.items():
        for da, ha in _homogeneous_pieces(va):
            for ib, vb in b.items():
                for db, hb in _homogeneous_pieces(vb):
                    yield ia, da, ha, ib, db, hb


# --------------------------------------------------------------------------
# operadic brackets


def prelie(a: SumElement, b: SumElement, o: StructureInstance) -> SumElement:
    """a o b = sum_i a o_i b, the summed insertion."""
    if kind_flavor(o.kind) not in ("operadic", "cyclic"):
        raise KindMismatch(o.kind)
    return _summed(o, ((o.circ_index(ia, ib), o.circ(ia, va, i, ib, vb))
                       for ia, va in a.items() for ib, vb in b.items()
                       for i in range(1, ia + 1)))


def _commutator(product, shift: int, a: SumElement, b: SumElement,
                o: StructureInstance) -> SumElement:
    """a.b - (-1)^{(|a|-shift)(|b|-shift)} b.a on homogeneous pieces, with
    a.b = product(a, b, o)."""
    out = SumElement()
    for ia, da, ha, ib, db, hb in _pairs(a, b):
        sign = -1 if ((da - shift) % 2 and (db - shift) % 2) else 1
        ea, eb = SumElement.single(ia, ha), SumElement.single(ib, hb)
        out = out + product(ea, eb, o) - product(eb, ea, o).scale(sign)
    return out


def lie_bracket(a: SumElement, b: SumElement, o: StructureInstance) -> SumElement:
    """[a o b] = a o b - (-1)^{deg a deg b} b o a on even kinds."""
    if kind_is_odd(o.kind):
        raise KindMismatch("use odd_bracket on odd kinds")
    return _commutator(prelie, 0, a, b, o)


def odd_bracket(a: SumElement, b: SumElement, o: StructureInstance) -> SumElement:
    """{a . b} = a.b - (-1)^{s(a)s(b)} b.a with s the down-shifted degree."""
    if not kind_is_odd(o.kind):
        raise KindMismatch("use lie_bracket on even kinds")
    return _commutator(prelie, 1, a, b, o)


# --------------------------------------------------------------------------
# rotation-summed bracket for cyclic and modular flavors


def cyclic_bracket(a: SumElement, b: SumElement, o: StructureInstance) -> SumElement:
    """[a (.) b] = sum over all flag pairs of the (s, t) gluings."""
    fl = kind_flavor(o.kind)
    if fl not in ("cyclic", "modular", "nc-modular"):
        raise KindMismatch(o.kind)
    glue = o.cyc_st if fl == "cyclic" else o.circ_st
    return _summed(o, ((o.circ_st_index(ia, ib), glue(ia, va, s, ib, vb, t))
                       for ia, va in a.items() for ib, vb in b.items()
                       for s in range(o.arity(ia))
                       for t in range(o.arity(ib))))


@dataclass
class NCompatReport:
    ok: bool
    bracket_identity: bool
    coefficient: Fraction | None
    expected_coefficient: Fraction
    details: str = ""


def n_operator(o: StructureInstance, idx, v: GradedVector) -> GradedVector:
    """N = 1 + T + ... + T^n on cyclic component n, T the rotation of
    `t_rot`; other flavors raise KindMismatch there."""
    total = cur = o.t_rot(idx, v, 0)
    for _ in range(o.arity(idx) - 1):
        cur = o.t_rot(idx, cur)
        total = total + cur
    return total


def cyclic_average(o: StructureInstance, idx, v: GradedVector) -> GradedVector:
    return n_operator(o, idx, v).scale(Q(1, o.arity(idx)))


def n_compat(a: GradedVector, b: GradedVector, o: StructureInstance,
             n: int, m: int) -> NCompatReport:
    """Check [N(a) o N(b)] = N(sum_{i,j} a cyc_{i,j} b) and measure the
    proportionality between the two brackets on cyclic coinvariants."""
    bracket = odd_bracket if kind_is_odd(o.kind) else lie_bracket
    na = n_operator(o, n, a)
    nb = n_operator(o, m, b)
    lhs = bracket(SumElement.single(n, na), SumElement.single(m, nb), o)
    c = GradedVector()
    for i in range(n + 1):
        for j in range(m + 1):
            c = c + o.rotated_circ(n, a, i, m, b, j)
    ridx = o.circ_index(n, m)
    rhs = SumElement.single(ridx, n_operator(o, ridx, c))
    identity = (lhs == rhs)

    # coefficient between p[s[a] o s[b]] and [[a] (.) [b]]
    sa = cyclic_average(o, n, a)
    sb = cyclic_average(o, m, b)
    br = bracket(SumElement.single(n, sa), SumElement.single(m, sb), o)
    left = cyclic_average(o, ridx, br.parts.get(ridx, GradedVector()))
    odot = cyclic_bracket(SumElement.single(n, a), SumElement.single(m, b), o)
    right = cyclic_average(o, ridx, odot.parts.get(ridx, GradedVector()))
    coeff = None
    if right.is_zero():
        coeff = None if not left.is_zero() else Q(0)
    else:
        ratios = set()
        ok = True
        for be, cr in right.terms.items():
            cl = left.coeff(be)
            ratios.add(cl / cr)
        for be, cl in left.terms.items():
            if be not in right.terms and cl:
                ok = False
        if ok and len(ratios) == 1:
            coeff = ratios.pop()
    expected = Q(n + m - 2, (n + 1) * (m + 1))
    return NCompatReport(identity and coeff == expected, identity, coeff, expected)


# --------------------------------------------------------------------------
# dioperadic product


def dioperadic_product(a: SumElement, b: SumElement, o: StructureInstance) -> SumElement:
    """Sum over all input-of-a to output-of-b gluings.

    On odd kinds each term carries (-1)^{|a|}: the odd gluing operator is
    written between the factors, so moving it out front passes all of a.
    """
    if kind_flavor(o.kind) != "bimodule":
        raise KindMismatch(o.kind)
    odd = kind_is_odd(o.kind)
    dressed = [(ia, ha.scale(-1) if da % 2 else ha) for ia, va in a.items()
               for da, ha in (_homogeneous_pieces(va) if odd else [(0, va)])]
    return _summed(o, ((o.circ_st_index(ia, ib),
                        o.circ_st(ia, ha, i, ib, vb, j))
                       for ia, ha in dressed for ib, vb in b.items()
                       for i in range(ia[0]) for j in range(ib[1])))


def dioperadic_bracket(a: SumElement, b: SumElement, o: StructureInstance) -> SumElement:
    return _commutator(dioperadic_product, 1 if kind_is_odd(o.kind) else 0,
                       a, b, o)


# --------------------------------------------------------------------------
# Delta and the horizontal product


def delta(a: SumElement, o: StructureInstance) -> SumElement:
    """Sum of the self-gluings over unordered pairs (in/out pairs for
    wheeled kinds)."""
    if not kind_has_self(o.kind):
        raise KindMismatch(f"{o.kind} has no self-gluings")
    if kind_flavor(o.kind) == "bimodule":
        def loops(ia):
            return itertools.product(range(ia[0]), range(ia[1]))
    else:
        def loops(ia):
            return itertools.combinations(range(ia[1]), 2)
    return _summed(o, ((o.self_index(ia), o.self_glue(ia, va, s, t))
                       for ia, va in a.items() for s, t in loops(ia)))


def boxminus(a: SumElement, b: SumElement, o: StructureInstance) -> SumElement:
    if not kind_has_box(o.kind):
        raise KindMismatch(f"{o.kind} has no horizontal composition")
    return _summed(o, ((o.box_index(ia, ib), o.box(ia, va, ib, vb))
                       for ia, va in a.items() for ib, vb in b.items()))


def project_coinvariants(x: SumElement, o: StructureInstance) -> SumElement:
    """Averaged invariant representative of the coinvariant class: an
    element of the instance again, that the operations can take."""
    return SumElement({idx: o.average(idx, v) for idx, v in x.parts.items()})


def coinvariant_class(x: SumElement, o: StructureInstance) -> SumElement:
    """The coinvariant class of x (`StructureInstance.coinvariant_class`):
    zero exactly when x's class is, equal exactly when the classes are.
    Only for deciding; it need not be an element of the instance."""
    return SumElement({idx: o.coinvariant_class(idx, v)
                       for idx, v in x.parts.items()})


# --------------------------------------------------------------------------
# BV verification


@dataclass
class BvReport:
    ok: bool
    square_zero: bool
    seven_term: bool
    deviation_matches: bool
    failures: list


def deviation_bracket(a: SumElement, b: SumElement, o: StructureInstance) -> SumElement:
    """(-1)^{|a|} Delta(ab) - (-1)^{|a|} Delta(a) b - a Delta(b)."""
    out = SumElement()
    for ia, da, ha, ib, db, hb in _pairs(a, b):
        sa = -1 if da % 2 else 1
        ea, eb = SumElement.single(ia, ha), SumElement.single(ib, hb)
        out = out + delta(boxminus(ea, eb, o), o).scale(sa) \
            - boxminus(delta(ea, o), eb, o).scale(sa) \
            - boxminus(ea, delta(eb, o), o)
    return out


def seven_term_defect(a: SumElement, b: SumElement, c: SumElement,
                      o: StructureInstance) -> SumElement:
    """Delta(abc) minus the six BV correction terms; zero for a BV operator."""
    out = SumElement()
    for ia, da, ha, ib, db, hb in _pairs(a, b):
        for ic, vc in c.items():
            for dc, hc in _homogeneous_pieces(vc):
                ea = SumElement.single(ia, ha)
                eb = SumElement.single(ib, hb)
                ec = SumElement.single(ic, hc)
                ab = boxminus(ea, eb, o)
                bc = boxminus(eb, ec, o)
                ac = boxminus(ea, ec, o)
                abc = boxminus(ab, ec, o)
                s_a = -1 if da % 2 else 1
                s_ab = -1 if (da + db) % 2 else 1
                s_b_shift = -1 if ((da - 1) % 2 and db % 2) else 1
                term = delta(abc, o)
                term = (term
                        - boxminus(delta(ab, o), ec, o)
                        - boxminus(ea, delta(bc, o), o).scale(s_a)
                        - boxminus(eb, delta(ac, o), o).scale(s_b_shift)
                        + boxminus(boxminus(delta(ea, o), eb, o), ec, o)
                        + boxminus(boxminus(ea, delta(eb, o), o), ec, o).scale(s_a)
                        + boxminus(ab, delta(ec, o), o).scale(s_ab))
                out = out + term
    return out


def bv_verify(o: StructureInstance, elements: list[SumElement]) -> BvReport:
    """Check Delta^2 = 0, the seven-term identity, and that the deviation
    bracket of the horizontal product equals the rotation-summed bracket,
    all on coinvariant representatives of the supplied elements.

    The inputs are averaged (`project_coinvariants`), as they are glued
    again; the seven-term defect and the two brackets are only tested for
    zero and equality, so they are compared by `coinvariant_class`, which
    on a free construction applies no element of S_n."""
    if not (kind_has_self(o.kind) and kind_has_box(o.kind)):
        raise KindMismatch(f"{o.kind} is not an nc kind with self-gluings")
    failures = []
    reps = [project_coinvariants(x, o) for x in elements]

    sq = True
    for x in reps:
        d2 = delta(delta(x, o), o)
        if not d2.is_zero():
            sq = False
            failures.append({"check": "delta-square", "input": repr(x)})
            break

    seven = True
    for a, b, c in itertools.islice(itertools.product(reps, repeat=3), 27):
        defect = coinvariant_class(seven_term_defect(a, b, c, o), o)
        if not defect.is_zero():
            seven = False
            failures.append({"check": "seven-term", "inputs": (repr(a), repr(b), repr(c))})
            break

    dev_ok = True
    reference = (dioperadic_bracket if kind_flavor(o.kind) == "bimodule"
                 else cyclic_bracket)
    for a, b in itertools.islice(itertools.product(reps, repeat=2), 16):
        dev = coinvariant_class(deviation_bracket(a, b, o), o)
        br = coinvariant_class(reference(a, b, o), o)
        if dev != br:
            dev_ok = False
            failures.append({"check": "deviation-vs-bracket",
                             "inputs": (repr(a), repr(b))})
            break

    return BvReport(sq and seven and dev_ok, sq, seven, dev_ok, failures)


# --------------------------------------------------------------------------
# internal multiplication


def check_square_zero_multiplication(o: StructureInstance, mu: GradedVector) -> None:
    """mu in component 2 must square associatively: {mu . mu} = 0."""
    sq = odd_bracket(SumElement.single(2, mu), SumElement.single(2, mu), o)
    if not sq.is_zero():
        raise NotAssociativeMultiplication("mu o_1 mu != mu o_2 mu")


def internal_mult_differential(o: StructureInstance, mu: GradedVector,
                               a: SumElement) -> SumElement:
    """d a = {a . mu} for an odd operadic kind with associative mu."""
    if not kind_is_odd(o.kind) or kind_flavor(o.kind) not in ("operadic", "cyclic"):
        raise KindMismatch("internal multiplication needs an odd operadic kind")
    check_square_zero_multiplication(o, mu)
    return odd_bracket(a, SumElement.single(2, mu), o)

