"""S-modules and concrete operad-like structure instances.

Components are stored biased (indexed by integers or integer pairs); the
set-indexed gluings go through explicit position bookkeeping.  After a gluing
the surviving positions of the first factor are listed starting at the
successor of the removed position, then those of the second factor likewise;
this is a storage convention only and is quotiented away in coinvariant
computations.

Concrete instances: endomorphism operads End(V), cyclic/anti-cyclic End(V)
with a nondegenerate form, the endomorphism PROP, the modular endomorphism
instance E(V) with form-contraction gluings, suspensions and shifts of all
of these, and tensor products.  Sign-twisted composition tables are always
generated mechanically from the even tables plus the twist line data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (DegenerateForm, FlavorMismatch, KindMismatch,
                     TruncationExceeded, UnsupportedKind)
from .gradedlin import (BE, ONE, ZERO, GradedVector, GroupAction, Perm, Q,
                        all_perms, average, invert, koszul_sign, long_cycle,
                        perm_sign, permute_factors, rank_of)

# --------------------------------------------------------------------------
# kinds

KINDS = (
    "operad", "odd-operad",
    "cyclic", "anti-cyclic", "odd-cyclic",
    "dioperad", "odd-dioperad", "nc-dioperad",
    "properad", "prop", "odd-prop",
    "wheeled-prop", "odd-wheeled-prop",
    "modular", "k-modular", "nc-modular", "nc-k-modular",
    "nc-cyclic", "odd-nc-cyclic", "nc-operad",
)

_FLAVOR = {
    "operad": "operadic", "odd-operad": "operadic", "nc-operad": "nc-operadic",
    "cyclic": "cyclic", "anti-cyclic": "cyclic", "odd-cyclic": "cyclic",
    "nc-cyclic": "nc-cyclic", "odd-nc-cyclic": "nc-cyclic",
    "dioperad": "bimodule", "odd-dioperad": "bimodule",
    "nc-dioperad": "bimodule", "properad": "bimodule", "prop": "bimodule",
    "odd-prop": "bimodule", "wheeled-prop": "bimodule",
    "odd-wheeled-prop": "bimodule",
    "modular": "modular", "k-modular": "modular",
    "nc-modular": "nc-modular", "nc-k-modular": "nc-modular",
}

_ODD = {"odd-operad", "odd-cyclic", "odd-dioperad", "odd-prop",
        "odd-wheeled-prop", "k-modular", "nc-k-modular", "odd-nc-cyclic",
        "nc-operad"}  # nc-operad parity is set per instance

_HAS_SELF = {"wheeled-prop", "odd-wheeled-prop", "modular", "k-modular",
             "nc-modular", "nc-k-modular"}

_HAS_BOX = {"prop", "odd-prop", "nc-dioperad", "wheeled-prop",
            "odd-wheeled-prop", "nc-modular", "nc-k-modular", "nc-cyclic",
            "odd-nc-cyclic", "nc-operad"}


def kind_flavor(kind: str) -> str:
    return _FLAVOR[kind]


def kind_is_odd(kind: str) -> bool:
    return kind in _ODD


def kind_has_self(kind: str) -> bool:
    return kind in _HAS_SELF


def kind_has_box(kind: str) -> bool:
    return kind in _HAS_BOX


def tensor_kind(k1: str, k2: str) -> str:
    if kind_flavor(k1) != kind_flavor(k2):
        raise FlavorMismatch(f"cannot tensor {k1} with {k2}")
    pair = {k1, k2}
    if k1 == k2 == "operad":
        return "operad"
    if pair <= {"cyclic", "anti-cyclic"}:
        return "anti-cyclic" if pair == {"cyclic", "anti-cyclic"} else "cyclic"
    if k1 == k2:
        return k1
    raise UnsupportedKind(f"no tensor rule for {k1} (x) {k2}")


# --------------------------------------------------------------------------
# S-modules


@dataclass
class SModule:
    """Arity-indexed graded components with group actions."""

    flavor: str
    components: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)

    def component(self, idx) -> list[BE]:
        return self.components.get(idx, [])

    def action(self, idx) -> GroupAction:
        return self.actions[idx]


# --------------------------------------------------------------------------
# position bookkeeping for the rotation storage convention


def rotation_order(n: int, removed: int) -> list[int]:
    """Positions 0..n-1 minus `removed`, starting at its cyclic successor."""
    return [(removed + 1 + k) % n for k in range(n - 1)]


def rotation_order2(n: int, removed1: int, removed2: int) -> list[int]:
    """Positions minus two removed ones, starting after the first-named."""
    out = []
    for k in range(1, n):
        p = (removed1 + k) % n
        if p != removed2:
            out.append(p)
    return out


# --------------------------------------------------------------------------
# structure instances


class StructureInstance:
    """An S-module with composition tables and a kind tag.

    Subclasses implement the basis-level primitives their kind supports;
    the vector-level wrappers extend bilinearly.  Instances are immutable
    after construction and safe for concurrent reads.
    """

    kind: str = ""
    twist_tag: str = "1"
    unit = None  # (index, GradedVector) or None

    def __init__(self):
        self.module = SModule(kind_flavor(self.kind))
        self._comp_cache: dict = {}

    # -- component access ------------------------------------------------

    def component(self, idx) -> list[BE]:
        if idx not in self.module.components:
            self.module.components[idx] = self._build_component(idx)
        return self.module.components[idx]

    def action(self, idx) -> GroupAction:
        if idx not in self.module.actions:
            self.module.actions[idx] = self._build_action(idx)
        return self.module.actions[idx]

    def _build_component(self, idx) -> list[BE]:
        raise NotImplementedError

    def _build_action(self, idx) -> GroupAction:
        raise NotImplementedError

    # -- index arithmetic --------------------------------------------------

    def arity(self, idx) -> int:
        """Number of gluable positions of a component index."""
        fl = kind_flavor(self.kind)
        if fl in ("operadic", "nc-operadic"):
            return idx
        if fl == "cyclic":
            return idx + 1
        if fl == "bimodule":
            return idx[0] + idx[1]
        return idx[1]

    def circ_index(self, ai, bi):
        return ai + bi - 1

    def circ_st_index(self, ai, bi):
        fl = kind_flavor(self.kind)
        if fl == "cyclic":
            return ai + bi - 1
        if fl == "modular" or fl == "nc-modular":
            return (ai[0] + bi[0], ai[1] + bi[1] - 2)
        if fl == "bimodule":
            return (ai[0] + bi[0] - 1, ai[1] + bi[1] - 1)
        raise KindMismatch(self.kind)

    def self_index(self, ai):
        fl = kind_flavor(self.kind)
        if fl in ("modular", "nc-modular"):
            return (ai[0] + 1, ai[1] - 2)
        if fl == "bimodule":
            return (ai[0] - 1, ai[1] - 1)
        raise KindMismatch(self.kind)

    def component_of_basis(self, be: BE):
        """Component index a basis element belongs to, when the identifier
        carries it (free and nc instances); None means positional bookkeeping
        is exact."""
        return None

    def box_index(self, ai, bi):
        fl = kind_flavor(self.kind)
        if fl == "nc-operadic":
            return ai + bi
        if fl == "nc-modular":
            return (ai[0] + bi[0], ai[1] + bi[1])
        if fl == "bimodule":
            return (ai[0] + bi[0], ai[1] + bi[1])
        raise KindMismatch(self.kind)

    # -- basis-level primitives -------------------------------------------

    def circ_basis(self, ai, a: BE, i: int, bi, b: BE) -> GradedVector:
        raise KindMismatch(f"{self.kind} has no circ_i")

    def circ_st_basis(self, ai, a: BE, s: int, bi, b: BE, t: int) -> GradedVector:
        raise KindMismatch(f"{self.kind} has no circ_st")

    def self_basis(self, ai, a: BE, s: int, t: int) -> GradedVector:
        raise KindMismatch(f"{self.kind} has no self-gluing")

    def box_basis(self, ai, a: BE, bi, b: BE) -> GradedVector:
        raise KindMismatch(f"{self.kind} has no horizontal composition")

    def act_basis(self, idx, g, a: BE) -> GradedVector:
        return self.action(idx).apply_basis(g, a)

    # -- bilinear wrappers --------------------------------------------------

    def _bilinear(self, f, a: GradedVector, b: GradedVector) -> GradedVector:
        out = GradedVector()
        for x, cx in a.terms.items():
            for y, cy in b.terms.items():
                out = out + f(x, y).scale(cx * cy)
        return out

    def circ(self, ai, a, i, bi, b) -> GradedVector:
        return self._bilinear(lambda x, y: self.circ_basis(ai, x, i, bi, y), a, b)

    def circ_st(self, ai, a, s, bi, b, t) -> GradedVector:
        return self._bilinear(lambda x, y: self.circ_st_basis(ai, x, s, bi, y, t), a, b)

    def self_glue(self, ai, a, s, t) -> GradedVector:
        return a.map_basis(lambda x: self.self_basis(ai, x, s, t))

    def box(self, ai, a, bi, b) -> GradedVector:
        return self._bilinear(lambda x, y: self.box_basis(ai, x, bi, y), a, b)

    def act(self, idx, g, v) -> GradedVector:
        return v.map_basis(lambda x: self.act_basis(idx, g, x))

    def t_rot(self, idx, v, k: int = 1) -> GradedVector:
        """Apply the distinguished long-cycle generator k times (cyclic flavor)."""
        act = self.action(idx)
        if act.t is None:
            raise KindMismatch("no cyclic generator on this component")
        n = self.arity(idx)
        k %= n
        out = v
        for _ in range(k):
            out = out.map_basis(lambda x: act.apply_basis(act.t, x))
        return out

    # derived set-indexed gluing for cyclic flavors: glue flag s of a to
    # flag t of b through rotations and the basic slot-1 composition
    def cyc_st(self, ai, a, s, bi, b, t) -> GradedVector:
        m = bi
        x = self.t_rot(ai, a, (s - 1) % (ai + 1))
        y = self.t_rot(bi, b, t % (bi + 1))
        z = self.circ(ai, x, 1, bi, y)
        return self.t_rot(self.circ_index(ai, bi), z, (-(m + 1)) % (ai + bi))

    def average(self, idx, v) -> GradedVector:
        return average(self.action(idx), v)


# --------------------------------------------------------------------------
# tensor word contraction helper


def contract_word(factors: Sequence[BE], p: int, q: int,
                  pairing: Callable[[BE, BE], Fraction],
                  rest_order: Sequence[int]):
    """Contract factors p and q (in this order) of a tensor word.

    Returns a list of (coefficient, remaining word) pairs; the remaining word
    lists the factors at the original positions given by rest_order.  The
    sign is the Koszul sign of the rearrangement (p, q, *rest_order).
    """
    target = [p, q] + list(rest_order)
    perm = tuple(target.index(i) for i in range(len(factors)))
    sign = koszul_sign(perm, [f.degree for f in factors])
    c = pairing(factors[p], factors[q])
    if not c:
        return []
    word = tuple(factors[i] for i in rest_order)
    return [(sign * c, word)]


# --------------------------------------------------------------------------
# endomorphism operad


def _tensor_ident(word: Sequence[BE]) -> tuple:
    return tuple((f.ident, f.degree) for f in word)


class EndOperad(StructureInstance):
    """End(V)(n) = Hom(V^(x)n, V) with substitution compositions."""

    kind = "operad"

    def __init__(self, space: Sequence[BE], max_arity: int = 4):
        self.space = list(space)
        self.max_arity = max_arity
        super().__init__()
        uvec = GradedVector()
        for x in self.space:
            uvec = uvec + GradedVector.unit(self._be(x, (x,)))
        self.unit = (1, uvec)

    def _be(self, out: BE, ins: Sequence[BE]) -> BE:
        deg = out.degree - sum(f.degree for f in ins)
        return BE(("E", (out.ident, out.degree), _tensor_ident(ins)), deg)

    def _split(self, a: BE):
        _, (oid, odeg), ins = a.ident
        return BE(oid, odeg), tuple(BE(i, d) for i, d in ins)

    def _build_component(self, n) -> list[BE]:
        if n > self.max_arity:
            raise TruncationExceeded(f"arity {n} beyond bound {self.max_arity}")
        out = []
        for o in self.space:
            for ins in itertools.product(self.space, repeat=n):
                out.append(self._be(o, ins))
        return out

    def _build_action(self, n) -> GroupAction:
        def apply_basis(p: Perm, a: BE) -> GradedVector:
            o, ins = self._split(a)
            sign, permuted = permute_factors(p, ins)
            return GradedVector.unit(self._be(o, permuted), sign)

        return GroupAction(all_perms(n), apply_basis)

    def circ_basis(self, ai, a, i, bi, b) -> GradedVector:
        if self.circ_index(ai, bi) > self.max_arity:
            raise TruncationExceeded("composition leaves the arity bound")
        of, ins_f = self._split(a)
        og, ins_g = self._split(b)
        if ins_f[i - 1] != og:
            return GradedVector()
        sign = 1
        if b.degree % 2 and sum(x.degree for x in ins_f[:i - 1]) % 2:
            sign = -1
        new_ins = ins_f[:i - 1] + ins_g + ins_f[i:]
        return GradedVector.unit(self._be(of, new_ins), sign)


# --------------------------------------------------------------------------
# bilinear forms


class BilinearForm:
    """A nondegenerate graded bilinear form on a finite basis.

    `symmetry` is "sym" or "antisym"; `degree` l means B(x, y) vanishes
    unless deg x + deg y = -l.
    """

    def __init__(self, space: Sequence[BE], entries: dict, degree: int = 0,
                 symmetry: str = "sym"):
        self.space = list(space)
        self.degree = degree
        self.symmetry = symmetry
        self.entries = {}
        for (xi, yi), c in entries.items():
            self.entries[(xi, yi)] = Q(c)
        for x in self.space:
            for y in self.space:
                have = self.entries.get((x.ident, y.ident), ZERO)
                if have and x.degree + y.degree != -degree:
                    raise DegenerateForm("form entry violates its degree")
                mirror = self.entries.get((y.ident, x.ident), ZERO)
                swap_sign = 1 if symmetry == "sym" else -1
                kos = -1 if (x.degree % 2 and y.degree % 2) else 1
                expect = swap_sign * kos * have
                if mirror != expect:
                    if (y.ident, x.ident) not in self.entries:
                        self.entries[(y.ident, x.ident)] = expect
                    elif mirror != expect:
                        raise DegenerateForm("form symmetry violated")
        rows = []
        for x in self.space:
            rows.append({y.ident: self.entries.get((x.ident, y.ident), ZERO)
                         for y in self.space})
        if rank_of(rows) != len(self.space):
            raise DegenerateForm("form is degenerate")
        self._minv = self._invert(rows)

    def _invert(self, rows):
        n = len(self.space)
        idents = [x.ident for x in self.space]
        mat = [[rows[i][idents[j]] for j in range(n)] + [Q(1) if k == i else Q(0) for k in range(n)]
               for i in range(n)]
        from .gradedlin import rref
        red, pivots = rref(mat)
        inv = [[red[i][n + j] for j in range(n)] for i in range(n)]
        return {(idents[i], idents[j]): inv[i][j] for i in range(n) for j in range(n)}

    def value(self, x: BE, y: BE) -> Fraction:
        return self.entries.get((x.ident, y.ident), ZERO)

    def inv_entry(self, xi, yi) -> Fraction:
        return self._minv[(xi, yi)]


# --------------------------------------------------------------------------
# cyclic endomorphism operad


class CyclicEnd(EndOperad):
    """End(V) with the extended rotation action transferred through a form.

    A symmetric degree-0 form gives a cyclic operad, an antisymmetric one an
    anti-cyclic operad.
    """

    def __init__(self, space, form: BilinearForm, max_arity=4):
        self.form = form
        self.kind = "cyclic" if form.symmetry == "sym" else "anti-cyclic"
        super().__init__(space, max_arity)

    def _build_action(self, n) -> GroupAction:
        space = {x.ident: x for x in self.space}

        def apply_basis(p: Perm, a: BE) -> GradedVector:
            # realize the map as a dual tensor on slots 0..n, permute, convert
            o, ins = self._split(a)
            out = GradedVector()
            for x in self.space:
                cb = self.form.value(x, o)
                if not cb:
                    continue
                duals = tuple(BE(("d", f.ident), -f.degree)
                              for f in (x,) + ins)
                sign, permuted = permute_factors(p, duals)
                head = permuted[0]
                new_ins = tuple(space[f.ident[1]] for f in permuted[1:])
                y = space[head.ident[1]]
                for o2 in self.space:
                    ci = self.form.inv_entry(o2.ident, y.ident)
                    if not ci:
                        continue
                    out = out + GradedVector.unit(
                        self._be(o2, new_ins), cb * sign * ci)
            return out

        # the transferred rotation moves the functional at slot j to slot j-1
        return GroupAction(all_perms(n + 1), apply_basis,
                           t=invert(long_cycle(n + 1)))


# --------------------------------------------------------------------------
# modular endomorphism instance


class ModularE(StructureInstance):
    """E(V)((g, n)) = V^(x)n with form-contraction gluings.

    The kind tag follows the form: symmetric of degree l is K^l twisted,
    antisymmetric of degree l is K^(l-2) L twisted; the structure is odd
    exactly when l is odd.
    """

    def __init__(self, space, form: BilinearForm, max_flags: int = 6,
                 max_genus: int = 3):
        l = form.degree
        self.kind = "k-modular" if l % 2 else "modular"
        if form.symmetry == "sym":
            self.twist_tag = f"K^{l}"
        else:
            self.twist_tag = f"K^{l - 2}*L"
        self.space = list(space)
        self.form = form
        self.max_flags = max_flags
        self.max_genus = max_genus
        super().__init__()

    def _be(self, word: Sequence[BE], g: int, n: int) -> BE:
        return BE(("T", g, _tensor_ident(word)),
                  sum(f.degree for f in word))

    def _split(self, a: BE):
        _, g, word = a.ident
        return tuple(BE(i, d) for i, d in word)

    def _build_component(self, idx) -> list[BE]:
        g, n = idx
        if n > self.max_flags or g > self.max_genus:
            raise TruncationExceeded(f"component {idx} beyond bounds")
        return [self._be(w, g, n) for w in itertools.product(self.space, repeat=n)]

    def _build_action(self, idx) -> GroupAction:
        g, n = idx

        def apply_basis(p: Perm, a: BE) -> GradedVector:
            word = self._split(a)
            sign, permuted = permute_factors(p, word)
            return GradedVector.unit(self._be(permuted, g, n), sign)

        return GroupAction(all_perms(n), apply_basis)

    def circ_st_basis(self, ai, a, s, bi, b, t) -> GradedVector:
        gi, n = ai
        gj, m = bi
        ridx = self.circ_st_index(ai, bi)
        if ridx[1] > self.max_flags or ridx[0] > self.max_genus:
            raise TruncationExceeded("gluing leaves the component bounds")
        wa, wb = self._split(a), self._split(b)
        word = wa + wb
        rest = ([(s + 1 + k) % n for k in range(n - 1)]
                + [n + (t + 1 + k) % m for k in range(m - 1)])
        out = GradedVector()
        for c, w in contract_word(word, s, n + t,
                                  lambda x, y: self.form.value(x, y), rest):
            out = out + GradedVector.unit(self._be(w, *ridx), c)
        return out

    def self_basis(self, ai, a, s, t) -> GradedVector:
        g, n = ai
        ridx = self.self_index(ai)
        if ridx[0] > self.max_genus:
            raise TruncationExceeded("self-gluing leaves the genus bound")
        wa = self._split(a)
        rest = rotation_order2(n, s, t)
        out = GradedVector()
        for c, w in contract_word(wa, s, t,
                                  lambda x, y: self.form.value(x, y), rest):
            out = out + GradedVector.unit(self._be(w, *ridx), c)
        return out


# --------------------------------------------------------------------------
# endomorphism PROP


class EndProp(StructureInstance):
    """End(V)(n, m) = Hom(V^(x)n, V^(x)m) with dioperadic and wheel gluings."""

    kind = "prop"

    def __init__(self, space, max_in: int = 3, max_out: int = 3,
                 wheeled: bool = False):
        self.space = list(space)
        self.max_in = max_in
        self.max_out = max_out
        if wheeled:
            self.kind = "wheeled-prop"
        super().__init__()
        uvec = GradedVector()
        for x in self.space:
            uvec = uvec + GradedVector.unit(self._be((x,), (x,)))
        self.unit = ((1, 1), uvec)

    def _be(self, ins: Sequence[BE], outs: Sequence[BE]) -> BE:
        deg = sum(f.degree for f in outs) - sum(f.degree for f in ins)
        return BE(("P", _tensor_ident(ins), _tensor_ident(outs)), deg)

    def _split(self, a: BE):
        _, ins, outs = a.ident
        return (tuple(BE(i, d) for i, d in ins),
                tuple(BE(i, d) for i, d in outs))

    def _dual_word(self, ins, outs):
        # factor word: dual input slots then output slots
        return tuple(BE(("d", f.ident), -f.degree) for f in ins) + tuple(outs)

    def _build_component(self, idx) -> list[BE]:
        n, m = idx
        if n > self.max_in or m > self.max_out:
            raise TruncationExceeded(f"component {idx} beyond bounds")
        return [self._be(i, o)
                for i in itertools.product(self.space, repeat=n)
                for o in itertools.product(self.space, repeat=m)]

    def _build_action(self, idx) -> GroupAction:
        n, m = idx

        def apply_basis(g, a: BE):
            p, q = g
            ins, outs = self._split(a)
            s1, pins = permute_factors(p, ins)
            s2, pouts = permute_factors(q, outs)
            return GradedVector.unit(self._be(pins, pouts), s1 * s2)

        elements = [(p, q) for p in all_perms(n) for q in all_perms(m)]
        return GroupAction(elements, apply_basis)

    def circ_st_basis(self, ai, a, i, bi, b, j) -> GradedVector:
        """Glue input i of a (0-based) to output j of b."""
        na, ma = ai
        nb, mb = bi
        ridx = self.circ_st_index(ai, bi)
        if ridx[0] > self.max_in or ridx[1] > self.max_out:
            raise TruncationExceeded("gluing leaves the component bounds")
        ins_a, outs_a = self._split(a)
        ins_b, outs_b = self._split(b)
        word = self._dual_word(ins_a, outs_a) + self._dual_word(ins_b, outs_b)
        # positions: a-duals 0..na-1, a-outs na..na+ma-1,
        #            b-duals na+ma..na+ma+nb-1, b-outs ...
        p_dual = i
        p_out = na + ma + nb + j
        rest = ([k for k in range(na) if k != i]
                + [na + ma + k for k in range(nb)]
                + [na + ma + nb + k for k in range(mb) if k != j]
                + [na + k for k in range(ma)])
        # result order: ins (a minus i, then b ins), outs (b outs minus j, a outs)
        rest = ([k for k in range(i)]
                + [na + ma + k for k in range(nb)]
                + [k for k in range(i + 1, na)]
                + [na + ma + nb + k for k in range(j)]
                + [na + k for k in range(ma)]
                + [na + ma + nb + k for k in range(j + 1, mb)])
        out = GradedVector()
        for c, w in contract_word(word, p_dual, p_out, self._eval_dual, rest):
            nins = ridx[0]
            ins = tuple(BE(f.ident[1], -f.degree) for f in w[:nins])
            outs = tuple(w[nins:])
            out = out + GradedVector.unit(self._be(ins, outs), c)
        return out

    @staticmethod
    def _eval_dual(fp: BE, fq: BE) -> Fraction:
        tag = fp.ident[0] if isinstance(fp.ident, tuple) else None
        if tag == "d" and fp.ident[1] == fq.ident:
            return ONE
        return ZERO

    def self_basis(self, ai, a, s, t) -> GradedVector:
        """Trace: glue input s to output t of the same element."""
        if self.kind not in ("wheeled-prop", "odd-wheeled-prop"):
            raise KindMismatch("self-gluing needs a wheeled kind")
        na, ma = ai
        ins_a, outs_a = self._split(a)
        word = self._dual_word(ins_a, outs_a)
        rest = ([k for k in range(na) if k != s]
                + [na + k for k in range(ma) if k != t])
        out = GradedVector()
        for c, w in contract_word(word, s, na + t, self._eval_dual, rest):
            nins = na - 1
            ins = tuple(BE(f.ident[1], -f.degree) for f in w[:nins])
            outs = tuple(w[nins:])
            out = out + GradedVector.unit(self._be(ins, outs), c)
        return out

    def box_basis(self, ai, a, bi, b) -> GradedVector:
        na, ma = ai
        nb, mb = bi
        ridx = self.box_index(ai, bi)
        if ridx[0] > self.max_in or ridx[1] > self.max_out:
            raise TruncationExceeded("product leaves the component bounds")
        ins_a, outs_a = self._split(a)
        ins_b, outs_b = self._split(b)
        # sign: move b's dual inputs past a's outputs
        d1 = sum(f.degree for f in outs_a)
        d2 = sum(f.degree for f in ins_b)
        sign = -1 if (d1 % 2 and d2 % 2) else 1
        return GradedVector.unit(
            self._be(ins_a + ins_b, outs_a + outs_b), sign)


# --------------------------------------------------------------------------
# suspensions and shifts


class Transported(StructureInstance):
    """A sign-twisted re-grading of a base instance.

    marker_degree(idx) shifts component degrees, marker_char(idx, g) twists
    the action, and the composition transports are the Koszul signs of the
    one-dimensional marker lines written to the left of the elements.
    """

    def __init__(self, base: StructureInstance, kind: str,
                 marker_degree, marker_char, circ_sign=None,
                 circ_st_sign=None, self_sign=None, box_sign=None,
                 tag: str = "1"):
        self.base = base
        self.kind = kind
        self.twist_tag = tag
        self._mdeg = marker_degree
        self._mchar = marker_char
        self._circ_sign = circ_sign
        self._circ_st_sign = circ_st_sign
        self._self_sign = self_sign
        self._box_sign = box_sign
        super().__init__()
        if base.unit is not None:
            ui, uv = base.unit
            self.unit = (ui, self._wrap_vec(ui, uv))

    def _wrap(self, idx, a: BE) -> BE:
        return BE(("sh", a.ident), a.degree + self._mdeg(idx))

    def _unwrap(self, idx, a: BE) -> BE:
        return BE(a.ident[1], a.degree - self._mdeg(idx))

    def _wrap_vec(self, idx, v: GradedVector) -> GradedVector:
        return GradedVector({self._wrap(idx, x): c for x, c in v.terms.items()})

    def _build_component(self, idx):
        return [self._wrap(idx, a) for a in self.base.component(idx)]

    def _build_action(self, idx) -> GroupAction:
        bact = self.base.action(idx)

        def apply_basis(g, a: BE) -> GradedVector:
            inner = bact.apply_basis(g, self._unwrap(idx, a))
            return self._wrap_vec(idx, inner).scale(self._mchar(idx, g))

        return GroupAction(bact.elements, apply_basis, t=bact.t)

    def circ_basis(self, ai, a, i, bi, b) -> GradedVector:
        if self._circ_sign is None:
            raise KindMismatch(f"{self.kind} has no circ_i")
        x, y = self._unwrap(ai, a), self._unwrap(bi, b)
        sign = self._circ_sign(ai, x, i, bi, y)
        inner = self.base.circ_basis(ai, x, i, bi, y)
        return self._wrap_vec(self.circ_index(ai, bi), inner).scale(sign)

    def circ_st_basis(self, ai, a, s, bi, b, t) -> GradedVector:
        if self._circ_st_sign is None:
            raise KindMismatch(f"{self.kind} has no circ_st")
        x, y = self._unwrap(ai, a), self._unwrap(bi, b)
        sign = self._circ_st_sign(ai, x, s, bi, y, t)
        inner = self.base.circ_st_basis(ai, x, s, bi, y, t)
        return self._wrap_vec(self.circ_st_index(ai, bi), inner).scale(sign)

    def self_basis(self, ai, a, s, t) -> GradedVector:
        if self._self_sign is None:
            raise KindMismatch(f"{self.kind} has no self-gluing")
        x = self._unwrap(ai, a)
        sign = self._self_sign(ai, x, s, t)
        inner = self.base.self_basis(ai, x, s, t)
        return self._wrap_vec(self.self_index(ai), inner).scale(sign)

    def box_basis(self, ai, a, bi, b) -> GradedVector:
        if self._box_sign is None:
            raise KindMismatch(f"{self.kind} has no horizontal composition")
        x, y = self._unwrap(ai, a), self._unwrap(bi, b)
        sign = self._box_sign(ai, x, bi, y)
        inner = self.base.box_basis(ai, x, bi, y)
        return self._wrap_vec(self.box_index(ai, bi), inner).scale(sign)


def operadic_suspension(o: StructureInstance) -> StructureInstance:
    """The suspension s: degrees shift by arity data, actions twist by sign.

    Operads stay operads (for the shifted grading), cyclic and anti-cyclic
    swap, the PROP family keeps its kind.
    """
    fl = kind_flavor(o.kind)
    if fl == "operadic":
        if o.kind != "operad":
            raise UnsupportedKind("suspend the even structure, then shift")
        kind = "operad"

        def mdeg(n):
            return n - 1

        def mchar(n, g):
            return perm_sign(g)

        def circ_sign(ai, x, i, bi, y):
            e = (i - 1) * (bi - 1) + (bi - 1) * (x.degree % 2)
            return -1 if e % 2 else 1

        return Transported(o, kind, mdeg, mchar, circ_sign=circ_sign,
                           tag="D[s]")
    if fl == "cyclic":
        if o.kind == "cyclic":
            kind = "anti-cyclic"
        elif o.kind == "anti-cyclic":
            kind = "cyclic"
        else:
            raise UnsupportedKind("suspend the unshifted structure first")

        def mdeg(n):
            return n - 1

        def mchar(n, g):
            return perm_sign(g)

        def circ_sign(ai, x, i, bi, y):
            e = (i - 1) * (bi - 1) + (bi - 1) * (x.degree % 2)
            return -1 if e % 2 else 1

        return Transported(o, kind, mdeg, mchar, circ_sign=circ_sign,
                           tag="D[s]")
    if fl == "bimodule":
        if o.kind not in ("prop", "wheeled-prop", "dioperad", "properad"):
            raise UnsupportedKind(o.kind)
        inner = naive_shift(o, "out-inv")
        outer = naive_shift(inner, "in")
        outer.kind = o.kind
        return outer
    raise UnsupportedKind(o.kind)


def _u_word_transport(side: str):
    """Dioperadic and wheel transports for one odd marker per output (or input).

    Marker words are written left of the element, ascending; the glued
    marker moves to the front of the combined word and is deleted, and the
    remaining word is reordered to the result storage order.
    """

    def circ_st_sign(ai, x, i, bi, y, j, inverse=False):
        na, ma = ai
        nb, mb = bi
        if side == "out":
            k = mb  # marker length of the right factor
            e = k * (x.degree % 2)
            e += ma + j  # move u^b_j to the front: past ma a-markers and j b-markers
            e += ma * j  # reorder: a-block past the first j b-markers
        else:
            k = nb
            e = k * (x.degree % 2)
            # gluing kills the marker of input i of a
            e += i
            e += (na - 1 - i) * 0 + 0
            # reorder remaining a-markers (i removed) + b-markers to result
            # order (a: 0..i-1, b-markers, a: i+1..): move b-block before tail
            e += nb * (na - 1 - i)
        return -1 if e % 2 else 1

    def self_sign(ai, x, s, t):
        # kill one marker of the element itself
        if side == "out":
            e = t
        else:
            e = s
        return -1 if e % 2 else 1

    def box_sign(ai, x, bi, y):
        if side == "out":
            e = bi[1] * (x.degree % 2)
            # interleave: b's markers stay after a's
        else:
            e = bi[0] * (x.degree % 2)
        return -1 if e % 2 else 1

    return circ_st_sign, self_sign, box_sign


def naive_shift(o: StructureInstance, direction: str = "sigma") -> StructureInstance:
    """Naive shifts: plain degree shift for operadic kinds, in/out-weighted
    sign shifts for the bimodule family.  The kind toggles even <-> odd."""
    fl = kind_flavor(o.kind)
    if fl in ("operadic", "cyclic") and direction in ("sigma", "sigma-inv"):
        shift = 1 if direction == "sigma" else -1
        toggles = {"operad": "odd-operad", "odd-operad": "operad",
                   "cyclic": "odd-cyclic", "anti-cyclic": "odd-cyclic",
                   "odd-cyclic": "anti-cyclic"}
        if o.kind == "cyclic":
            raise UnsupportedKind("the odd cyclic shift starts anti-cyclic")
        kind = toggles[o.kind]

        def mdeg(n):
            return shift

        def mchar(n, g):
            return 1

        def plain(ai, x, i, bi, y):
            return 1

        return Transported(o, kind, mdeg, mchar, circ_sign=plain,
                           tag="D[Sigma]" if shift == 1 else "inv(D[Sigma])")
    if fl == "bimodule" and direction in ("out", "out-inv", "in", "in-inv"):
        side = "out" if direction.startswith("out") else "in"
        inverse = direction.endswith("-inv")
        toggles = {"prop": "odd-prop", "odd-prop": "prop",
                   "dioperad": "odd-dioperad", "odd-dioperad": "dioperad",
                   "wheeled-prop": "odd-wheeled-prop",
                   "odd-wheeled-prop": "wheeled-prop",
                   "properad": "odd-dioperad"}
        kind = toggles.get(o.kind, o.kind)
        sgn = -1 if inverse else 1

        def mdeg(idx):
            n, m = idx
            return sgn * (m if side == "out" else n)

        def mchar(idx, g):
            p, q = g
            return perm_sign(q if side == "out" else p)

        circ_st_sign, self_sign, box_sign = _u_word_transport(side)
        return Transported(o, kind, mdeg, mchar,
                           circ_st_sign=circ_st_sign, self_sign=self_sign,
                           box_sign=box_sign,
                           tag=f"D[s_{side}]" + ("^-1" if inverse else ""))
    raise UnsupportedKind(f"{o.kind} does not support shift {direction!r}")


# --------------------------------------------------------------------------
# tensor products


class TensorInstance(StructureInstance):
    """Componentwise tensor with the diagonal action; twist tags multiply."""

    def __init__(self, o1: StructureInstance, o2: StructureInstance):
        if kind_flavor(o1.kind) != kind_flavor(o2.kind):
            raise FlavorMismatch(f"{o1.kind} (x) {o2.kind}")
        self.kind = tensor_kind(o1.kind, o2.kind)
        self.o1 = o1
        self.o2 = o2
        super().__init__()

    def _be(self, x: BE, y: BE) -> BE:
        return BE(("tt", (x.ident, x.degree), (y.ident, y.degree)),
                  x.degree + y.degree)

    def _split(self, a: BE):
        _, (xi, xd), (yi, yd) = a.ident
        return BE(xi, xd), BE(yi, yd)

    def _build_component(self, idx):
        return [self._be(x, y) for x in self.o1.component(idx)
                for y in self.o2.component(idx)]

    def _build_action(self, idx) -> GroupAction:
        a1, a2 = self.o1.action(idx), self.o2.action(idx)

        def apply_basis(g, a: BE) -> GradedVector:
            x, y = self._split(a)
            v1 = a1.apply_basis(g, x)
            v2 = a2.apply_basis(g, y)
            out = GradedVector()
            for bx, cx in v1.terms.items():
                for by, cy in v2.terms.items():
                    out = out + GradedVector.unit(self._be(bx, by), cx * cy)
            return out

        return GroupAction(a1.elements, apply_basis, t=a1.t)

    def _pairwise(self, f1, f2, ai, a, bi, b, ridx):
        x1, x2 = self._split(a)
        y1, y2 = self._split(b)
        sign = -1 if (x2.degree % 2 and y1.degree % 2) else 1
        v1 = f1(x1, y1)
        v2 = f2(x2, y2)
        out = GradedVector()
        for bx, cx in v1.terms.items():
            for by, cy in v2.terms.items():
                out = out + GradedVector.unit(self._be(bx, by), sign * cx * cy)
        return out

    def circ_basis(self, ai, a, i, bi, b):
        return self._pairwise(
            lambda x, y: self.o1.circ_basis(ai, x, i, bi, y),
            lambda x, y: self.o2.circ_basis(ai, x, i, bi, y),
            ai, a, bi, b, self.circ_index(ai, bi))

    def circ_st_basis(self, ai, a, s, bi, b, t):
        return self._pairwise(
            lambda x, y: self.o1.circ_st_basis(ai, x, s, bi, y, t),
            lambda x, y: self.o2.circ_st_basis(ai, x, s, bi, y, t),
            ai, a, bi, b, self.circ_st_index(ai, bi))


def tensor_structures(o1: StructureInstance, o2: StructureInstance) -> StructureInstance:
    return TensorInstance(o1, o2)


# --------------------------------------------------------------------------
# one-dimensional trivial instances (Comm-like)


class TrivialCyclic(StructureInstance):
    """One-dimensional trivial cyclic operad: every component is k in degree 0."""

    kind = "cyclic"

    def __init__(self, max_arity=4):
        self.max_arity = max_arity
        super().__init__()
        self.unit = (1, GradedVector.unit(BE(("one", 1), 0)))

    def _build_component(self, n):
        if n > self.max_arity:
            raise TruncationExceeded(str(n))
        return [BE(("one", n), 0)]

    def _build_action(self, n):
        def apply_basis(g, a):
            return GradedVector.unit(a)

        return GroupAction(all_perms(n + 1), apply_basis,
                           t=invert(long_cycle(n + 1)))

    def circ_basis(self, ai, a, i, bi, b):
        if self.circ_index(ai, bi) > self.max_arity:
            raise TruncationExceeded("composition leaves the arity bound")
        return GradedVector.unit(BE(("one", ai + bi - 1), 0))


# --------------------------------------------------------------------------
# decoration of a graph by an S-module


def local_index(flavor: str, graph, v):
    fl = graph.vertex_flags(v)
    if flavor == "operadic":
        ins = [f for f in fl if graph.orientation[f] == "in"]
        return len(ins)
    if flavor == "cyclic":
        return len(fl) - 1
    if flavor == "modular":
        return (graph.g_of(v), len(fl))
    if flavor == "nc-modular":
        return (graph.gamma_of(v), len(fl))
    if flavor == "bimodule":
        ins = [f for f in fl if graph.orientation[f] == "in"]
        return (len(ins), len(fl) - len(ins))
    raise FlavorMismatch(flavor)


def local_flag_order(flavor: str, graph, v) -> list:
    fl = sorted(graph.vertex_flags(v))
    if flavor == "bimodule" or flavor == "operadic":
        ins = [f for f in fl if graph.orientation[f] == "in"]
        outs = [f for f in fl if graph.orientation[f] == "out"]
        return ins + outs
    return fl


def decorate(src: StructureInstance, graph):
    """Tensor of components over the vertices, with the automorphism action.

    Returns (basis, action, vertex_order) where basis elements are tuples of
    per-vertex basis elements in the fixed vertex order.
    """
    from . import graphs as G
    flavor = kind_flavor(src.kind)
    vorder = list(graph.vertices)
    locs = [local_index(flavor, graph, v) for v in vorder]
    per_vertex = [src.component(ix) for ix in locs]

    def be_of(combo):
        return BE(("dec", tuple((x.ident, x.degree) for x in combo)),
                  sum(x.degree for x in combo))

    basis = [be_of(c) for c in itertools.product(*per_vertex)]

    def split(a):
        return tuple(BE(i, d) for i, d in a.ident[1])

    auts = G.automorphisms(graph)
    vpos = {v: i for i, v in enumerate(vorder)}
    orders = {v: local_flag_order(flavor, graph, v) for v in vorder}

    def apply_basis(phi, a):
        vmap, fmap = phi
        combo = split(a)
        vperm = tuple(vpos[vmap[v]] for v in vorder)
        sign, moved = permute_factors(vperm, combo)
        out_terms = [(Q(sign), list(moved))]
        # local position permutations act inside each factor
        for i, v in enumerate(vorder):
            w = vmap[v]
            src_order = orders[v]
            dst_order = orders[w]
            if flavor in ("bimodule", "operadic"):
                ins_src = [f for f in src_order if graph.orientation[f] == "in"]
                outs_src = [f for f in src_order if graph.orientation[f] == "out"]
                ins_dst = [f for f in dst_order if graph.orientation[f] == "in"]
                outs_dst = [f for f in dst_order if graph.orientation[f] == "out"]
                pin = tuple(ins_dst.index(fmap[f]) for f in ins_src)
                pout = tuple(outs_dst.index(fmap[f]) for f in outs_src)
                g = pin if flavor == "operadic" else (pin, pout)
            else:
                g = tuple(dst_order.index(fmap[f]) for f in src_order)
            act = src_action_for(src, locs[vpos[w]])
            new_terms = []
            for c, factors in out_terms:
                img = act.apply_basis(g, factors[vpos[w]])
                for be2, c2 in img.terms.items():
                    nf = list(factors)
                    nf[vpos[w]] = be2
                    new_terms.append((c * c2, nf))
            out_terms = new_terms
        out = GradedVector()
        for c, factors in out_terms:
            out = out + GradedVector.unit(be_of(tuple(factors)), c)
        return out

    action = GroupAction(auts, apply_basis)
    return basis, action, vorder


def src_action_for(src: StructureInstance, idx) -> GroupAction:
    return src.action(idx)


# --------------------------------------------------------------------------
# axiom verification


@dataclass
class Report:
    ok: bool
    checked: int
    failures: list

    def first_failure(self):
        return self.failures[0] if self.failures else None


def block_insert(sigma: Perm, i: int, tau: Perm) -> Perm:
    """The permutation induced on a composite with tau inserted at slot i.

    sigma permutes n blocks (all of size one except block sigma^{-1}(i),
    which has size len(tau)); tau permutes inside that block.  Slots are
    1-based on the outside, the returned permutation is 0-based.
    """
    n = len(sigma)
    m = len(tau)
    i0 = invert(sigma)[i - 1]  # 0-based source block carrying tau
    sizes = [m if j == i0 else 1 for j in range(n)]
    # source offsets
    src_off = [0] * n
    run = 0
    for j in range(n):
        src_off[j] = run
        run += sizes[j]
    # target offsets: blocks land ordered by sigma
    tgt_off = [0] * n
    run = 0
    for pos in range(n):
        j = invert(sigma)[pos]
        tgt_off[j] = run
        run += sizes[j]
    total = n + m - 1
    out = [0] * total
    for j in range(n):
        for k in range(sizes[j]):
            kk = tau[k] if j == i0 else k
            out[src_off[j] + k] = tgt_off[j] + kk
    return tuple(out)


def check_axioms(o: StructureInstance, max_arity: int = 3,
                 stop_early: bool = True) -> Report:
    """Exhaustive verification of the kind's defining identities on basis
    elements up to the arity bound.  Returns the first counterexample found
    unless stop_early is false."""
    fl = kind_flavor(o.kind)
    odd = kind_is_odd(o.kind)
    failures = []
    checked = 0

    def note(kind, **data):
        failures.append({"check": kind, **data})

    def shift_deg(x):
        return x.degree - 1 if odd else x.degree

    if fl in ("operadic", "cyclic"):
        arities = range(1, max_arity + 1)
        # associativity
        for n in arities:
            for m in arities:
                for l in arities:
                    if n + m - 1 > max_arity or n + m + l - 2 > max_arity:
                        continue
                    for a in o.component(n):
                        for b in o.component(m):
                            for c in o.component(l):
                                for i in range(1, n + 1):
                                    for j in range(1, n + m):
                                        checked += 1
                                        lhs = _assoc_lhs(o, n, a, i, m, b, j, l, c)
                                        rhs = _assoc_rhs(o, n, a, i, m, b, j, l, c,
                                                         shift_deg)
                                        if lhs != rhs:
                                            note("associativity", a=a.ident,
                                                 b=b.ident, c=c.ident, i=i, j=j)
                                            if stop_early:
                                                return Report(False, checked, failures)
        # units
        if o.unit is not None:
            ui, uvec = o.unit
            for n in arities:
                for a in o.component(n):
                    va = GradedVector.unit(a)
                    if o.circ(ui, uvec, 1, n, va) != va:
                        note("left-unit", a=a.ident)
                        if stop_early:
                            return Report(False, checked, failures)
                    for i in range(1, n + 1):
                        if o.circ(n, va, i, ui, uvec) != va:
                            note("right-unit", a=a.ident, i=i)
                            if stop_early:
                                return Report(False, checked, failures)
                    checked += n + 1
        # equivariance
        for n in arities:
            for m in arities:
                if n + m - 1 > max_arity:
                    continue
                perms_n = all_perms(n)
                perms_m = all_perms(m)
                for a in o.component(n):
                    for b in o.component(m):
                        for sg in perms_n:
                            for tg in perms_m:
                                for i in range(1, n + 1):
                                    checked += 1
                                    sg_full, tg_full = _lift_perm(o, fl, n, sg), _lift_perm(o, fl, m, tg)
                                    lhs = o.circ(n, o.act(n, sg_full, GradedVector.unit(a)), i,
                                                 m, o.act(m, tg_full, GradedVector.unit(b)))
                                    i0 = invert(sg)[i - 1] + 1
                                    inner = o.circ_basis(n, a, i0, m, b)
                                    pi = block_insert(sg, i, tg)
                                    pi_full = _lift_perm(o, fl, n + m - 1, pi)
                                    rhs = o.act(n + m - 1, pi_full, inner)
                                    if lhs != rhs:
                                        note("equivariance", a=a.ident, b=b.ident,
                                             i=i, sigma=sg, tau=tg)
                                        if stop_early:
                                            return Report(False, checked, failures)
    if fl == "cyclic":
        # rotation compatibility
        sign_flip = {"cyclic": 1, "anti-cyclic": -1, "odd-cyclic": -1}[o.kind]
        if o.unit is not None:
            ui, uvec = o.unit
            tu = o.t_rot(ui, uvec)
            if tu != uvec.scale(sign_flip):
                note("unit-rotation")
                if stop_early:
                    return Report(False, checked, failures)
        for n in range(1, max_arity + 1):
            for m in range(1, max_arity + 1):
                if n + m - 1 > max_arity:
                    continue
                for a in o.component(n):
                    for b in o.component(m):
                        checked += 1
                        lhs = o.t_rot(n + m - 1,
                                      o.circ_basis(n, a, 1, m, b))
                        da = a.degree - 1 if o.kind == "odd-cyclic" else a.degree
                        db = b.degree - 1 if o.kind == "odd-cyclic" else b.degree
                        sgn = sign_flip * (-1 if (da % 2 and db % 2) else 1)
                        rhs = o.circ(m, o.t_rot(m, GradedVector.unit(b)), m,
                                     n, o.t_rot(n, GradedVector.unit(a))).scale(sgn)
                        if lhs != rhs:
                            note("rotation", a=a.ident, b=b.ident)
                            if stop_early:
                                return Report(False, checked, failures)
    if fl == "modular":
        failures_before = len(failures)
        checked = _check_modular(o, max_arity, checked, note, odd)
        if stop_early and len(failures) > failures_before:
            return Report(False, checked, failures)
    return Report(not failures, checked, failures)


def _lift_perm(o, fl, n, p):
    """Lift a permutation of inputs to whatever the component group uses."""
    if fl == "cyclic":
        return tuple([0] + [x + 1 for x in p])
    return p


def _assoc_lhs(o, n, a, i, m, b, j, l, c):
    inner = o.circ_basis(n, a, i, m, b)
    return o.circ(n + m - 1, inner, j, l, GradedVector.unit(c))


def _assoc_rhs(o, n, a, i, m, b, j, l, c, shift_deg):
    eps = -1 if (shift_deg(b) % 2 and shift_deg(c) % 2) else 1
    if j < i:
        inner = o.circ_basis(n, a, j, l, c)
        return o.circ(n + l - 1, inner, i + l - 1, m,
                      GradedVector.unit(b)).scale(eps)
    if j <= i + m - 1:
        inner = o.circ_basis(m, b, j - i + 1, l, c)
        return o.circ(n, GradedVector.unit(a), i, m + l - 1, inner)
    inner = o.circ_basis(n, a, j - m + 1, l, c)
    return o.circ(n + l - 1, inner, i, m, GradedVector.unit(b)).scale(eps)


def _check_modular(o, max_flags, checked, note, odd):
    """Gluings commute (even kinds) or anticommute (odd kinds)."""
    sgn = -1 if odd else 1
    idxs = [(g, n) for g in range(0, 2) for n in range(2, max_flags + 1)]
    for ai in idxs:
        g, n = ai
        if n < 4:
            continue
        try:
            comp = o.component(ai)
        except TruncationExceeded:
            continue
        for a in comp:
            for (s, t, u, v) in itertools.permutations(range(4), 4):
                if s > t or u > v or (s, t) >= (u, v):
                    continue
                checked += 1
                ri = o.self_index(ai)
                try:
                    first = o.self_glue(ri, o.self_basis(ai, a, s, t),
                                        *_renumber_pair(n, s, t, u, v))
                    second = o.self_glue(ri, o.self_basis(ai, a, u, v),
                                         *_renumber_pair(n, u, v, s, t))
                except TruncationExceeded:
                    continue
                if first != second.scale(sgn):
                    note("self-gluing-exchange", a=a.ident, pairs=((s, t), (u, v)))
                    return checked
    return checked


def _renumber_pair(n, s, t, u, v):
    """Positions of u, v after the (s, t) self-gluing renumbering."""
    order = rotation_order2(n, s, t)
    return order.index(u), order.index(v)


# --------------------------------------------------------------------------
# endomorphism factory


def end_operad(space: Sequence[BE], flavor: str, form: BilinearForm | None = None,
               **bounds) -> StructureInstance:
    """The canonical endomorphism instances, one per flavor."""
    if flavor == "operadic":
        return EndOperad(space, **bounds)
    if flavor == "cyclic":
        if form is None:
            raise DegenerateForm("cyclic flavor needs a nondegenerate form")
        return CyclicEnd(space, form, **bounds)
    if flavor == "modular":
        if form is None:
            raise DegenerateForm("modular flavor needs a nondegenerate form")
        return ModularE(space, form, **bounds)
    if flavor in ("bimodule", "prop"):
        return EndProp(space, **bounds)
    if flavor == "wheeled":
        return EndProp(space, wheeled=True, **bounds)
    raise FlavorMismatch(flavor)


# --------------------------------------------------------------------------
# serialization


def _ident_to_str(ident) -> str:
    import json as _json

    def conv(x):
        if isinstance(x, tuple):
            return [conv(y) for y in x]
        return x

    return _json.dumps(conv(ident), separators=(",", ":"), sort_keys=True)


def _idx_to_str(idx) -> str:
    return _ident_to_str(idx)


def _perm_word(p: Perm) -> list:
    """Decompose a permutation into adjacent transposition indices."""
    arr = list(p)
    word = []
    for i in range(len(arr)):
        for j in range(len(arr) - 1, i, -1):
            if arr[j - 1] > arr[j]:
                arr[j - 1], arr[j] = arr[j], arr[j - 1]
                word.append(j - 1)
    word.reverse()
    return word


def dump_instance(o: StructureInstance, indices, max_slot=None) -> dict:
    """Serialize components, actions and composition tables to JSON data."""
    fl = kind_flavor(o.kind)
    comps = {}
    for idx in indices:
        basis = o.component(idx)
        act = o.action(idx)
        gens = _action_generators(o, idx)
        gen_data = []
        for g in gens:
            matrix = {}
            for be in basis:
                img = act.apply_basis(g, be)
                matrix[_ident_to_str(be.ident)] = sorted(
                    [[_ident_to_str(b.ident), str(c)] for b, c in img.terms.items()])
            gen_data.append({"element": _ident_to_str(g), "matrix": matrix})
        comps[_idx_to_str(idx)] = {
            "basis": sorted([{"id": _ident_to_str(b.ident), "degree": b.degree}
                             for b in basis], key=lambda r: r["id"]),
            "generators": gen_data,
        }
    compositions = []
    for ia in indices:
        for ib in indices:
            if fl in ("operadic", "cyclic"):
                ridx = o.circ_index(ia, ib)
                if ridx not in indices:
                    continue
                for a in o.component(ia):
                    for b in o.component(ib):
                        for i in range(1, o.arity(ia) + 1):
                            res = o.circ_basis(ia, a, i, ib, b)
                            if res.is_zero():
                                continue
                            compositions.append({
                                "op": "circ_i",
                                "a": [_idx_to_str(ia), _ident_to_str(a.ident)],
                                "i": i,
                                "b": [_idx_to_str(ib), _ident_to_str(b.ident)],
                                "result": sorted([[_ident_to_str(x.ident), str(c)]
                                                  for x, c in res.terms.items()]),
                            })
    unit = None
    if o.unit is not None:
        ui, uv = o.unit
        unit = {"index": _idx_to_str(ui),
                "vector": sorted([[_ident_to_str(b.ident), str(c)]
                                  for b, c in uv.terms.items()])}
    return {"flavor": fl, "kind": o.kind,
            "components": comps, "compositions": compositions, "unit": unit}


def _action_generators(o, idx):
    fl = kind_flavor(o.kind)
    n = o.arity(idx)
    if fl == "cyclic":
        gens = []
        base = n  # inputs; group acts on n+1 positions
        for i in range(n):
            p = list(range(n + 1))
            p[i], p[i + 1] = p[i + 1], p[i]
            gens.append(tuple(p))
        gens.append(invert(long_cycle(n + 1)))
        return gens
    if fl == "operadic":
        gens = []
        for i in range(n - 1):
            p = list(range(n))
            p[i], p[i + 1] = p[i + 1], p[i]
            gens.append(tuple(p))
        return gens or [tuple(range(n))]
    raise UnsupportedKind(o.kind)


class TableInstance(StructureInstance):
    """An instance backed by explicit serialized tables."""

    def __init__(self, data: dict):
        self.kind = data["kind"]
        self._data = data
        self._basis = {}
        self._gen_matrices = {}
        for idxs, comp in data["components"].items():
            idx = self._parse_idx(idxs)
            self._basis[idx] = [BE(r["id"], r["degree"])
                                for r in comp["basis"]]
            self._gen_matrices[idx] = comp["generators"]
        self._tables = {}
        for rec in data["compositions"]:
            if rec["op"] == "circ_i":
                key = ("circ", self._parse_idx(rec["a"][0]), rec["a"][1],
                       rec["i"], self._parse_idx(rec["b"][0]), rec["b"][1])
                self._tables[key] = rec["result"]
        super().__init__()
        if data.get("unit"):
            ui = self._parse_idx(data["unit"]["index"])
            uv = GradedVector({self._find_be(ui, i): Q(c)
                               for i, c in data["unit"]["vector"]})
            self.unit = (ui, uv)

    @staticmethod
    def _parse_idx(s):
        import json as _json
        v = _json.loads(s)
        return tuple(v) if isinstance(v, list) else v

    def _find_be(self, idx, ident_str) -> BE:
        for b in self._basis[idx]:
            if b.ident == ident_str:
                return b
        raise KeyError(ident_str)

    def _build_component(self, idx):
        if idx not in self._basis:
            raise TruncationExceeded(str(idx))
        return self._basis[idx]

    def _build_action(self, idx):
        fl = kind_flavor(self.kind)
        n = self.arity(idx)
        size = n + 1 if fl == "cyclic" else n
        gens = self._gen_matrices[idx]

        def matrix_apply(gen_rec, be):
            rows = gen_rec["matrix"].get(_ident_to_str(be.ident) if not
                                         isinstance(be.ident, str) else be.ident, [])
            out = GradedVector()
            for ident, c in rows:
                out = out + GradedVector.unit(self._find_be(idx, ident), Q(c))
            return out

        trans = {i: gens[i] for i in range(max(0, size - 1))}
        rot = gens[-1] if fl == "cyclic" else None

        def apply_basis(p, be):
            word = _perm_word(p)
            v = GradedVector.unit(be)
            for i in word:
                v = v.map_basis(lambda b: matrix_apply(trans[i], b))
            return v

        elements = all_perms(size)
        act = GroupAction(elements, apply_basis)
        if fl == "cyclic":
            t = invert(long_cycle(size))
            base_apply = apply_basis

            def apply_with_rot(p, be):
                # decompose p = t^k s with s fixing nothing special; since
                # the full group is generated by transpositions alone, the
                # transposition word already covers every element
                return base_apply(p, be)

            act = GroupAction(elements, apply_with_rot, t=t)
        return act

    def circ_basis(self, ai, a, i, bi, b) -> GradedVector:
        key = ("circ", ai, a.ident, i, bi, b.ident)
        rows = self._tables.get(key, [])
        ridx = self.circ_index(ai, bi)
        out = GradedVector()
        for ident, c in rows:
            out = out + GradedVector.unit(self._find_be(ridx, ident), Q(c))
        return out
