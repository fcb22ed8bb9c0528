"""The annihilator of a module, formed in full: the independent reference that
the library's support tests (`radical_membership`, `supported_on`,
`ResolutionInput.verify`), which form no annihilator, are checked against."""

from koszul_lab.groebner import IdealBasis, ideal_intersection, module_quotient
from koszul_lab.modcalc import FPModule, _kills


def annihilator(M: FPModule) -> IdealBasis:
    """ann(M) = ∩_i (relations : e_i); each generator re-verified against M."""
    ring = M.ring
    if M.rank == 0:
        return IdealBasis(ring, [ring.one()])
    acc = None
    for i in range(M.rank):
        quot = module_quotient(M.relations, {i: ring.one()})
        acc = quot if acc is None else ideal_intersection(acc, quot)
    assert all(_kills(a, M) for a in acc.generators), "annihilator generator fails to kill M"
    return acc
