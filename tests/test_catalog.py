"""Builtin catalog: orderings, labels, and headline facts per entry."""
import pytest

from nearrings import builtin, catalog_names, default_corpus


def test_catalog_names_sorted_and_resolvable():
    names = catalog_names()
    assert names == sorted(names)
    for name in names:
        assert builtin(name).order >= 1


def test_unknown_name():
    with pytest.raises(KeyError):
        builtin("nope")


@pytest.mark.parametrize("name", ["zn_ring(\u0661\u0662)", "zn_ring(0004)", "zn_ring(12)\n",
                                  "zn_ring(+12)", " zn_ring(12)"])
def test_only_listed_spellings_load(name):
    # ARABIC-INDIC DIGITS ONE TWO, a leading zero, stray characters
    with pytest.raises(KeyError):
        builtin(name)


def test_every_listed_name_loads_under_that_name():
    assert [builtin(name).name for name in catalog_names()] == catalog_names()


def test_zn_range():
    assert builtin("zn_ring(2)").order == 2
    assert builtin("zn_ring(64)").order == 64
    with pytest.raises(ValueError):
        builtin("zn_ring(65)")
    with pytest.raises(ValueError):
        builtin("zn_ring(1)")


def test_zn_order_longer_than_int_converts_is_out_of_range():
    # int() refuses digit strings over 4300 characters with its own message
    with pytest.raises(ValueError, match=r"^zn_ring order must be in \[2,64\], got 9{5000}$"):
        builtin("zn_ring(" + "9" * 5000 + ")")


def test_zn_is_residue_arithmetic():
    ring = builtin("zn_ring(6)")
    for i in range(6):
        for j in range(6):
            assert ring.add[i][j] == (i + j) % 6
            assert ring.mul[i][j] == (i * j) % 6
    assert ring.one == 1


def test_klein4_labels_and_unity():
    ring = builtin("klein4_ring")
    assert ring.group.labels == ("0", "a", "b", "c")
    assert ring.label(ring.one) == "b"
    assert ring.mul[1][3] == 0 and ring.mul[3][1] == 0  # a * c = c * a = 0


def test_m0_z3_listing():
    ring = builtin("m0_z3")
    assert ring.order == 9
    assert ring.group.labels == tuple(f"f{i}" for i in range(1, 10))
    assert ring.label(ring.one) == "f6"
    assert ring.name == "m0_z3"


def test_mat2_f2_indexing():
    ring = builtin("mat2_f2")
    assert ring.order == 16
    assert ring.one == 0b1001  # the identity matrix
    assert ring.label(0b1001) == "m1001"
    # E12 * E21 = E11, E21 * E12 = E22
    assert ring.mul[0b0100][0b0010] == 0b1000
    assert ring.mul[0b0010][0b0100] == 0b0001


def test_extension_orders():
    assert builtin("ext_f2_f2").order == 4
    assert builtin("ext_mat2f2_f2sq").order == 64
    assert builtin("klein4_x_f2").order == 8


def test_default_corpus_members_validate():
    corpus = default_corpus()
    assert len(corpus) == 9
    for name, ring in corpus:
        assert ring.name == name
