"""A hand-written dg-morphism check for master-equation series.

It sums the loop and bridge contractions of the series terms directly and
never builds a Feynman transform, so it is an oracle for
`transform.morphism_defects`, which evaluates the series on the transform
itself.
"""

import itertools

from opforge.gradedlin import BE, GradedVector, Q
from opforge.smodules import contract_word, rotation_order, rotation_order2
from opforge.transform import MasterSeries, _unzip_sign


class MorphismChecker:
    """Checks that the structure maps extracted from a series commute with
    the differentials on every generator in the window.

    The edge part of the differential acts on a generator as a sum over
    unbiased gluing data; each datum contracts series terms and pairs the
    W-half of the result against the generator, while the right-hand side
    pushes the extracted map through the V-differential.  None of the
    direct left-hand side's component assembly (delta, bracket, genus
    bookkeeping) is reused.
    """

    def __init__(self, w_space, v_space, v_diff, window, u_form):
        self.wdeg = {w.ident: w.degree for w in w_space}
        self.vdeg = {v.ident: v.degree for v in v_space}
        self.w_space = list(w_space)
        self.bu = u_form
        self.v_diff = v_diff
        self.window = list(window)

    # -- structure map on one dual generator

    def _unzip(self, uword):
        ws = tuple(BE(u.ident[1], self.wdeg[u.ident[1]]) for u in uword)
        vs = tuple(BE(u.ident[2], self.vdeg[u.ident[2]]) for u in uword)
        return ws, vs, _unzip_sign(list(ws), list(vs))

    def m_hat(self, series: MasterSeries, idx, psi_ident):
        """Pair a dual W-tensor against the series term: a V-tensor table."""
        m = series.term(idx)
        out = {}
        for be, c in m.terms.items():
            word = tuple(BE(i, d) for i, d in be.ident[2])
            ws, vs, sign = self._unzip(word)
            if tuple(w.ident for w in ws) != tuple(i for i, _ in psi_ident):
                continue
            key = tuple((v.ident, v.degree) for v in vs)
            out[key] = out.get(key, Q(0)) + c * sign
        return {k: v for k, v in out.items() if v}

    def _match_and_store(self, out, ures, phi_ident, coeff):
        for cu, uword in ures:
            ws, vs, sign = self._unzip(uword)
            if tuple(w.ident for w in ws) != tuple(i for i, _ in phi_ident):
                continue
            key = tuple((v.ident, v.degree) for v in vs)
            out[key] = out.get(key, Q(0)) + coeff * cu * sign

    def _loop_part(self, series, idx, phi_ident):
        g, n = idx
        if g == 0:
            return {}
        out = {}
        for be, c in series.term((g - 1, n + 2)).terms.items():
            word = tuple(BE(i, d) for i, d in be.ident[2])
            for s, t in itertools.combinations(range(n + 2), 2):
                rest = rotation_order2(n + 2, s, t)
                ures = contract_word(word, s, t,
                                     lambda a, b: self.bu.value(a, b), rest)
                self._match_and_store(out, ures, phi_ident, c)
        return {k: v for k, v in out.items() if v}

    def _glue_part(self, series, idx, phi_ident):
        g, n = idx
        out = {}
        for g1 in range(g + 1):
            g2 = g - g1
            for n1 in range(1, n + 2):
                n2 = n + 2 - n1
                m1 = series.term((g1, n1))
                m2 = series.term((g2, n2))
                if m1.is_zero() or m2.is_zero():
                    continue
                for be1, c1 in m1.terms.items():
                    w1 = tuple(BE(i, d) for i, d in be1.ident[2])
                    for be2, c2 in m2.terms.items():
                        w2 = tuple(BE(i, d) for i, d in be2.ident[2])
                        word = w1 + w2
                        for s in range(n1):
                            for t in range(n2):
                                rest = (rotation_order(n1, s)
                                        + [n1 + k
                                           for k in rotation_order(n2, t)])
                                ures = contract_word(
                                    word, s, n1 + t,
                                    lambda a, b: self.bu.value(a, b), rest)
                                self._match_and_store(out, ures, phi_ident,
                                                      Q(1, 2) * c1 * c2)
        return {k: v for k, v in out.items() if v}

    def d_v_tensor(self, table: dict) -> dict:
        """Derivation extension of the V-differential on tail tensors."""
        out: dict = {}
        for key, c in table.items():
            word = tuple(BE(i, d) for i, d in key)
            for i, f in enumerate(word):
                img = self.v_diff.get(f.ident, GradedVector())
                for nf, c2 in img.terms.items():
                    sign = -1 if sum(x.degree for x in word[:i]) % 2 else 1
                    nw = word[:i] + (nf,) + word[i + 1:]
                    k2 = tuple((x.ident, x.degree) for x in nw)
                    out[k2] = out.get(k2, Q(0)) + c * c2 * sign
        return {k: v for k, v in out.items() if v}

    def generator_defects(self, series: MasterSeries):
        """d_V(m(phi)) + edge terms, per dual W-basis generator."""
        defects = {}
        for idx in self.window:
            g, n = idx
            for combo in itertools.product(self.w_space, repeat=n):
                phi_ident = tuple((w.ident, w.degree) for w in combo)
                mphi = self.m_hat(series, idx, phi_ident)
                rhs = self.d_v_tensor(mphi)
                defect = dict(rhs)
                for k, v in self._loop_part(series, idx, phi_ident).items():
                    defect[k] = defect.get(k, Q(0)) + v
                for k, v in self._glue_part(series, idx, phi_ident).items():
                    defect[k] = defect.get(k, Q(0)) + v
                defect = {k: v for k, v in defect.items() if v}
                if defect:
                    defects[(idx, phi_ident)] = defect
        return defects
