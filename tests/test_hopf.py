"""Surface classification, function fields, biholomorphism groups, contraction."""

import random
from fractions import Fraction

import pytest

from hopfon.hopf import (
    HopfSurface,
    SurfaceError,
    bihol_group,
    classify_surface,
    function_field,
)


def test_classify_hyperresonant():
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 4))
    c = classify_surface(s)
    assert c.kind == "hyperresonant" and (c.m1, c.m2) == (2, 1)


def test_classify_homothety():
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 2))
    c = classify_surface(s)
    assert c.kind == "homothety" and (c.m1, c.m2) == (1, 1)


def test_classify_generic_by_exhaustive_search():
    # oracle: exhaustive check that no relation (1/2)^a = (1/3)^b exists, a,b <= 64
    for a in range(1, 65):
        for b in range(1, 65):
            assert Fraction(1, 2) ** a != Fraction(1, 3) ** b
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    assert classify_surface(s).kind == "generic"


def test_classify_reversed_order_pair():
    # (1/4, 1/2): l1^1 = l2^2
    s = HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))
    c = classify_surface(s)
    assert c.kind == "hyperresonant" and (c.m1, c.m2) == (1, 2)


def test_hyperresonance_minimality():
    cases = [
        (Fraction(1, 2), Fraction(1, 4), (2, 1)),
        (Fraction(1, 4), Fraction(1, 2), (1, 2)),
        (Fraction(1, 3), Fraction(1, 3), (1, 1)),
        (Fraction(1, 9), Fraction(1, 27), (3, 2)),
        (Fraction(4, 9), Fraction(8, 27), (3, 2)),
    ]
    for l1, l2, expected in cases:
        s = HopfSurface.diagonal(l1, l2)
        pair = s.hyperresonance()
        assert pair == expected
        m1, m2 = pair
        assert l1**m1 == l2**m2
        # minimality oracle: no relation with a smaller first exponent
        for a in range(1, m1):
            for b in range(1, 65):
                assert l1**a != l2**b


def test_classify_exceptional():
    s = HopfSurface.exceptional(Fraction(1, 2), 3)
    c = classify_surface(s)
    assert c.kind == "exceptional" and c.m == 3
    assert not s.is_linear()
    assert HopfSurface.exceptional(Fraction(1, 2), 1).is_linear()


def test_function_field():
    hyper = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 4))
    f = function_field(hyper)
    assert f.kind == "rational" and (f.m1, f.m2) == (2, 1)
    assert function_field(HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))).kind == "constant"
    assert function_field(HopfSurface.exceptional(Fraction(1, 2), 2)).kind == "constant"


def test_bihol_group():
    assert bihol_group(HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 2))).kind == "all_linear"
    assert (
        bihol_group(HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))).kind
        == "diagonal_linear"
    )
    g = bihol_group(HopfSurface.exceptional(Fraction(1, 2), 2))
    assert g.kind == "exceptional_family" and g.m == 2


def test_apply_F_examples():
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    w = s.apply_F((1, 1))
    assert abs(w[0] - 0.5) < 1e-15 and abs(w[1] - 1 / 3) < 1e-12

    e1 = HopfSurface.exceptional(Fraction(1, 2), 1)
    assert e1.apply_F((1, 0)) == (0.5, 1.0)

    e2 = HopfSurface.exceptional(Fraction(1, 2), 2)
    w = e2.apply_F((2, 1))
    assert abs(w[0] - 1.0) < 1e-15 and abs(w[1] - 4.25) < 1e-15


def test_apply_F_rejects_origin():
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(SurfaceError):
        s.apply_F((0, 0))


def test_apply_F_injective_on_samples():
    rng = random.Random(11)
    for s in (
        HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3)),
        HopfSurface.exceptional(Fraction(1, 2), 2),
    ):
        pts = [
            (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(60)
        ]
        images = [s.apply_F(z) for z in pts]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                sep = abs(pts[i][0] - pts[j][0]) + abs(pts[i][1] - pts[j][1])
                img_sep = abs(images[i][0] - images[j][0]) + abs(images[i][1] - images[j][1])
                if sep > 1e-9:
                    assert img_sep > 0


def test_moduli_validated():
    with pytest.raises(SurfaceError):
        HopfSurface.diagonal(Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(SurfaceError):
        HopfSurface.exceptional(Fraction(5, 4), 1)


def test_moduli_decided_exactly():
    # |1 - 10^-13| < 1, but the float witness lies within 1e-12 of 1
    HopfSurface.diagonal(1 - Fraction(1, 10**13), Fraction(1, 2))
    HopfSurface.exceptional(1 - Fraction(1, 10**13), 2)
    with pytest.raises(SurfaceError):
        HopfSurface.diagonal(1, Fraction(1, 2))


def test_record_roundtrip():
    for s in (
        HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 4)),
        HopfSurface.exceptional(Fraction(1, 2), 2),
        HopfSurface.diagonal_formal([(2, -1)], (0.5, 0.25)),
    ):
        rec = s.to_record()
        s2 = HopfSurface.from_record(rec)
        assert s2.kind == s.kind
        assert s2.hyperresonance() == s.hyperresonance()
        assert s2.to_record() == rec
