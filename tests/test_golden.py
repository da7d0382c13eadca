"""Golden outputs: SHA-256 digests of the JSON reports on the default corpus.

A refactor must keep these bytes unchanged.  A change that means to alter
the output records new digests and says why in CHANGES.md.
"""
import hashlib
import io

import pytest

from nearrings.catalog import DEFAULT_CORPUS_NAMES
from nearrings.cli import main

VERIFY_JSON = "d4baac7261b73100cfff493a008e0ddc170fa7c9401633a14f60662acb6ee747"

CLASSIFY_JSON = {
    "klein4_ring": "7a61c2beb62a7f237486d6c6fed3920edec7556b4c9e11c2b24dfe2d3bcc816d",
    "zn_ring(2)": "80881ec1f19db9dccb63d1125b7373134a24ddf50ccacba788c448291896b56e",
    "zn_ring(4)": "842f2fe65a39f921edbf38958a697f751b88fd37e21d7f90b8218b0d0a631645",
    "zn_ring(6)": "9ac61ceddbbca7d253da864bf2c053f84de9b86594a9005834a3caeaec0a94f0",
    "m0_z3": "ff235f4fd22542620f311af6d6569731b62415c8868d25dbaf5a972049b4246b",
    "mat2_f2": "7d3c88ee07008c40e8f9052d9a3677559e34ea45a82e0d7751a781c489726ce5",
    "klein4_x_f2": "e88187619d880d4c98be38e3558497e3660200e3728df132aadb92d02cae5fd8",
    "ext_f2_f2": "89009dc9ed85f642879a496fe316f0e14d2e3abb71e96d6ecd36e6a856915081",
    "ext_mat2f2_f2sq": "1f2ce8d9c4ae09354660309c1d58b75128501093e5bce3e53fad2fcc99ee3723",
}


def run_digest(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_covers_default_corpus():
    assert tuple(CLASSIFY_JSON) == DEFAULT_CORPUS_NAMES


def test_verify_json_digest():
    assert run_digest(["verify", "--format", "json"]) == (0, VERIFY_JSON)


@pytest.mark.parametrize("name", DEFAULT_CORPUS_NAMES)
def test_classify_json_digest(name, tmp_path):
    path = tmp_path / "ring.json"
    assert main(["builtin", name, "--out", str(path)], out=io.StringIO()) == 0
    assert run_digest(["classify", str(path), "--format", "json"]) == (0, CLASSIFY_JSON[name])
