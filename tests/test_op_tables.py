"""The operation tables of finite F_p-algebras against the untabled ops.

Every pair of elements is asked twice: the first call misses and stores
its result while the table has room, the second reads the stored result.
The reference is the polynomial arithmetic itself, which never goes
through the ring's bound ops.
"""

import pytest

from koszulkit.rings import (
    OP_TABLE_CAP, GF, QQ, ZZ, Zmod, _poly_add, _poly_mul, _poly_neg, poly_quotient,
)

ALGEBRAS = [
    ("F2", ["x"], ["x^2"]),
    ("F2", ["x", "y"], ["x^2", "x*y", "y^2"]),
    ("F2", ["x"], ["x^4"]),
    ("F3", ["x"], ["x^3"]),
    ("F3", ["x", "y"], ["x^2", "y^2"]),  # 81 elements: 6,561 pairs run past the cap
]

MARK = ("read from the table",)


def ask_twice(R, name, bound, key, reference):
    """Call R's `name` op on the operands `key` twice and check the part
    of its table, which holds at most `bound` results, in it."""
    op, table = getattr(R, f"{name}_payload"), R._op_tables[name]
    assert key not in table  # nothing stored yet, so the first call misses
    room = len(table) < bound
    assert op(*key) == reference
    assert (key in table) == room and len(table) <= bound
    if room:
        assert table[key] == reference
        # the second call returns the stored result, not a recomputed one
        stored, table[key] = table[key], MARK
        assert op(*key) is MARK
        table[key] = stored
    else:
        assert op(*key) == reference and key not in table


@pytest.mark.parametrize("coeff, variables, ideal", ALGEBRAS, ids=[
    "F2[x]/(x^2)", "F2[x,y]/(x,y)^2", "F2[x]/(x^4)", "F3[x]/(x^3)", "F3[x,y]/(x^2,y^2)"])
def test_tables_agree_with_the_polynomial_ops(coeff, variables, ideal):
    R = poly_quotient(coeff, variables, ideal)
    cf, key = R.coeff, R._key
    size = R.cardinality()
    bounds = {"add": min(size * size, OP_TABLE_CAP), "neg": min(size, OP_TABLE_CAP),
              "mul": min(size * size, OP_TABLE_CAP)}
    assert R._op_tables == {"add": {}, "neg": {}, "mul": {}}  # filled on first use
    elements = [a.payload for a in R.elements()]
    assert len(elements) == size
    for a in elements:
        ask_twice(R, "neg", bounds["neg"], (a,), _poly_neg(a, cf, key))
        for b in elements:
            ask_twice(R, "add", bounds["add"], (a, b), _poly_add(a, b, cf, key))
            ask_twice(R, "mul", bounds["mul"], (a, b),
                      R.normal_form_payload(_poly_mul(a, b, cf, key)))
    for name, table in R._op_tables.items():
        calls = size if name == "neg" else size * size
        assert len(table) == min(calls, bounds[name])


def test_other_rings_keep_their_direct_ops():
    rings = [ZZ(), QQ(), Zmod(4), GF(5), poly_quotient("F2", ["x"]),
             poly_quotient("F2", ["x", "y"], ["x^2"]), poly_quotient("Q", ["x"], ["x^2"])]
    for R in rings:
        assert not hasattr(R, "_op_tables")
