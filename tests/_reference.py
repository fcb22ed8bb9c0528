"""Independent references for the library's shortcuts.

The annihilator of a module, formed in full: the reference that the
library's support tests (`radical_membership`, `supported_on`,
`ResolutionInput.verify`), which form no annihilator, are checked against.

Regular and A-sequences by the definition: every step of every order asks
whether (I : f) = I afresh, with no memo and no height count, the reference
for `is_regular_sequence` and `is_A_sequence`."""

from itertools import permutations

from koszul_lab.arith import is_unit
from koszul_lab.groebner import IdealBasis, ideal_intersection, ideal_quotient, module_quotient
from koszul_lab.koszul import SequenceReport
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


def is_nonzerodivisor_modulo(f, I: IdealBasis) -> bool:
    """f is a nonzerodivisor modulo I iff (I : f) = I."""
    return ideal_quotient(I, f) == I


def _regular_walk(fs, order):
    """(ok, failing position 1-based, witness) for fs taken in `order`; the
    witness is the first element of the reduced basis of (I : f_i) outside
    I, as `SequenceReport` documents."""
    for pos, i in enumerate(order, start=1):
        if is_unit(fs[i]):
            return False, pos, None
        prefix = IdealBasis(fs[i].ring, [fs[j] for j in order[:pos - 1]])
        if not is_nonzerodivisor_modulo(fs[i], prefix):
            quotient = ideal_quotient(prefix, fs[i])
            return False, pos, next(g for g in quotient.reduced_gb if not prefix.contains(g))
    return True, None, None


def sequence_reports(fs):
    """(is_regular_sequence report, is_A_sequence report) of fs, each order
    walked afresh in itertools.permutations order."""
    fs = tuple(fs)
    ok, idx, wit = _regular_walk(fs, range(len(fs)))
    regular = SequenceReport(fs, ok, failing_index=idx, witness=wit)
    if not ok:
        return regular, SequenceReport(fs, False, False, fs, idx, wit)
    for perm in permutations(range(len(fs))):
        ok, idx, wit = _regular_walk(fs, perm)
        if not ok:
            return regular, SequenceReport(fs, True, False, tuple(fs[i] for i in perm), idx, wit)
    return regular, SequenceReport(fs, True, True)
