"""One linear-solve predicate: `Ring.linear_solve`, which
`rings._derive_capabilities` sets, against the elimination engines.

- On fifteen ring specs, one per ring tier and its edge cases, the flag is
  True exactly when `linalg._engine` accepts the ring, and it takes the
  value the tier gives it.
- Each check that reads the flag before it eliminates still refuses a ring
  without it, by its own `CapabilityMissing`.
"""

import pytest

from koszulkit import complexes as cx
from koszulkit import descent as ds
from koszulkit import duality as du
from koszulkit import linalg
from koszulkit.errors import CapabilityMissing
from koszulkit.koszul import koszul
from koszulkit.rings import make_ring


def quotient(coeff, variables, ideal=""):
    return f"polyquot coeff={coeff} vars={variables} order=degrevlex ideal=[{ideal}]"


SPECS = {  # name -> (ring spec, linear_solve)
    "Z": ("integers", True),
    "Q": ("rationals", True),
    "Z/2": ("zmod 2", True),
    "Z/12": ("zmod 12", True),
    "Z/27": ("zmod 27", True),
    "F7": ("primefield 7", True),
    "F2[x]": (quotient("F2", "x"), True),
    "Q[x]": (quotient("Q", "x"), False),
    "Q[x]/(x^2)": (quotient("Q", "x", "x^2"), False),
    "F3[x]/(x^2+1)": (quotient("F3", "x", "x^2 + 1"), True),
    "F2[x,y]": (quotient("F2", "x,y"), False),
    "F2[x,y]/(xy)": (quotient("F2", "x,y", "x*y"), False),
    "F2[x,y]/(x,y)^2": (quotient("F2", "x,y", "x^2, x*y, y^2"), True),
    "Q[x,y]/(x^2,y^2)": (quotient("Q", "x,y", "x^2, y^2"), False),
    "F5[x,y,z]/(x^2,y^3,z)": (quotient("F5", "x,y,z", "x^2, y^3, z"), True),
}


def engine_accepts(ring):
    try:
        linalg._engine(ring)
    except CapabilityMissing:
        return False
    return True


@pytest.mark.parametrize("name", list(SPECS))
def test_the_flag_is_the_engines_verdict(name):
    spec, expected = SPECS[name]
    ring = make_ring(spec)
    assert ring.linear_solve is expected
    assert engine_accepts(ring) is expected


def test_each_check_refuses_a_ring_without_linear_solve():
    R = make_ring(SPECS["F2[x,y]/(xy)"][0])
    assert not R.linear_solve
    M = cx.free_module_complex(R, 1)
    with pytest.raises(CapabilityMissing, match="homology needs linear solving"):
        cx.sup_inf(M)
    with pytest.raises(CapabilityMissing, match="resolution needs linear solving"):
        cx.augment_by_resolution(M, 0)
    with pytest.raises(CapabilityMissing, match="truncate_extend needs linear solving"):
        ds.truncate_extend(koszul(R, [R.variable("x")]), M, 0)
    Qx = make_ring(SPECS["Q[x]"][0])
    with pytest.raises(CapabilityMissing, match="cannot resolve over"):
        du.resolve(du.ModulePresentation.cyclic(Qx, [Qx.variable("x")]), 2)
    # certified local, but neither finite nor linear_solve
    Qe = make_ring(SPECS["Q[x]/(x^2)"][0])
    assert Qe.local and not Qe.linear_solve
    with pytest.raises(CapabilityMissing, match="finite linear_solve ring"):
        du.homothety_check(du.ModulePresentation.residue_field(Qe), 1)
