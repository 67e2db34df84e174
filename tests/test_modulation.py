import cmath

import numpy as np
import pytest

from pnclab.modulation import make_constellation


@pytest.fixture(scope="module")
def qam4():
    return make_constellation("qam4")


@pytest.fixture(scope="module")
def qam16():
    return make_constellation("qam16")


def all_labels(m):
    for idx in range(1 << m):
        yield tuple((idx >> (m - 1 - j)) & 1 for j in range(m))


def nearest(c, y):
    return int(np.argmin(np.abs(y - c.points) ** 2))


def test_qam4_label_anchor(qam4):
    # label (b1, b2) is point index 2 b1 + b2; b1 signs the real part, b2 the imaginary
    assert cmath.isclose(qam4.points[0], (1 + 1j) / np.sqrt(2))
    for idx, (b1, b2) in enumerate(all_labels(2)):
        assert cmath.isclose(qam4.points[idx], complex(1 - 2 * b1, 1 - 2 * b2) / np.sqrt(2))


def test_qam4_point_set(qam4):
    got = set(qam4.points.tolist())
    want = {(a + b * 1j) / np.sqrt(2) for a in (-1, 1) for b in (-1, 1)}
    assert {(round(z.real, 12), round(z.imag, 12)) for z in got} == {
        (round(z.real, 12), round(z.imag, 12)) for z in want
    }


def test_unit_energy(qam4, qam16):
    # 16QAM normalization: mean |p|^2 over the {+-1,+-3} grid is 10
    grid = [complex(a, b) for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)]
    assert np.mean([abs(z) ** 2 for z in grid]) == pytest.approx(10.0)
    for c in (qam4, qam16):
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_roundtrip(qam4, qam16):
    """Every label's point is nearest to itself alone."""
    for c in (qam4, qam16):
        assert [nearest(c, p) for p in c.points] == list(range(c.size))
        assert len(set(c.points.tolist())) == c.size


def test_small_perturbation_16qam(qam16):
    for idx, p in enumerate(qam16.points):
        assert nearest(qam16, p + 0.01 * (1 + 1j)) == idx


def test_gray_adjacency_16qam(qam16):
    step = 2 / np.sqrt(10)
    pts = qam16.points
    for i in range(16):
        for j in range(16):
            d = pts[i] - pts[j]
            if abs(abs(d) - step) < 1e-9 and (abs(d.real) < 1e-9 or abs(d.imag) < 1e-9):
                assert bin(i ^ j).count("1") == 1


def test_bad_modulation_name():
    with pytest.raises(ValueError):
        make_constellation("qam64")


@pytest.mark.parametrize("name", ["qam4", "qam16"])
def test_built_once_per_name_and_read_only(name):
    """Every caller shares one constellation, so none may write into it."""
    c = make_constellation(name)
    assert make_constellation(name) is c
    assert not c.points.flags.writeable and not c.lattice_points.flags.writeable
    with pytest.raises(ValueError):
        c.points[0] = 0
