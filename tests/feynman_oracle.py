"""A scanning oracle for the edge differential of `FeynmanTransform`.

`scan_d_edge_basis` finds the contractions by brute force: for one basis
element it visits every block of the component with one more edge and
every edge of that block, contracts it, and keeps the contractions whose
graph is the element's own.  `FeynmanTransform._d_edge_basis` looks the
same contractions up in an index by target block instead.
"""

from opforge.gradedlin import BE, GradedVector, Q


def scan_d_edge_basis(ft, idx, be, contractions: dict) -> dict:
    """d_edge of the basis element `be` of component idx, as a dict.

    `contractions` caches `ft._contract_data` by (block key, edge) across
    calls, so a whole component can be scanned.
    """
    F = ft.free
    block, raw = F.expand(idx, be)
    phi_coeffs = {}
    for dec, c in raw.terms.items():
        primal = tuple((i[1], -d) for i, d in dec.ident[1])
        phi_coeffs[primal] = c
    out = GradedVector()
    for bhat in F.blocks(idx):
        if len(bhat.graph.edges()) != len(block.graph.edges()) + 1:
            continue
        for e in bhat.graph.edges():
            if (bhat.key, e) not in contractions:
                contractions[(bhat.key, e)] = ft._contract_data(bhat, e)
            canon, word_sign, raw_map = contractions[(bhat.key, e)]
            if canon.canonical_key() != block.key:
                continue
            psi = GradedVector()
            for xident, vec in raw_map.items():
                coeff = Q(0)
                for pbe, pc in vec.terms.items():
                    key = pbe.ident[1]
                    if key in phi_coeffs:
                        coeff += pc * phi_coeffs[key]
                if coeff:
                    dual = tuple((("dl", i), -d) for i, d in xident)
                    dbe = BE(("dec", dual), -sum(d for _, d in xident))
                    psi = psi + GradedVector.unit(dbe, coeff)
            if not psi.is_zero():
                out = out + F.project_raw(bhat, psi.scale(word_sign))
    return dict(out.terms)
