"""Golden outputs: SHA-256 digests of the JSON reports on the default corpus
(``verify`` with and without ``--notes``), of ``verify --notes`` on the
seed-1 inputs of the benchmark's ``suite_small`` workload, on the orders
64-96 tables of the benchmark's ``classify_mid`` workload and
on the one-element ring, and of the ``validate`` output on the seed-1 inputs
of its ``validate_large`` and ``validate_invalid`` workloads.

A refactor must keep these bytes unchanged.  A change that means to alter
the output records new digests and says why in CHANGES.md.
"""
import hashlib
import importlib.util
import io
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from nearrings import emit_table, validate_nearring
from nearrings.catalog import DEFAULT_CORPUS_NAMES
from nearrings.cli import main

VERIFY_JSON = "d4baac7261b73100cfff493a008e0ddc170fa7c9401633a14f60662acb6ee747"

# ``verify --format json --notes``: every cell's count, counterexample and
# hypothesis note, on the default corpus and on the seed-1 inputs of the
# benchmark's ``suite_small`` workload (``verify ... .`` in their directory).
VERIFY_NOTES_JSON = {
    "default_corpus": "2cda0a49f650c105485148a4deddc80c1bea3fece1ff4b68caa288f94de00b3b",
    "suite_small": "cb75a4d765fb35f8b4f9a3ff1203c14def6f75b387ef96dd389366a99e86ca75",
}

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

# ``classify --format json`` on tables built by ``perfbench/gen.py`` (in its
# element order, without the benchmark's seeded relabelling).
MID_ORDER_CLASSIFY_JSON = {
    "gf3_4": "c24f8b5403bd3d6399955fb3ad8ff4530d55be86d21852b8820b1ce2432e5775",
    "z4xz24": "d1a276e5f1967362d149c68b500708d111be35e9ab2466ed92cf1c568584a8d6",
    "m0_z4": "9fcdd0b7277c3779d1e63d17f891e3083d7902d874917a38b41df810b9692e09",
    "z2xz48": "6b9553e4a2dcaa89c777e93acede56275cfcf9b6efb36f0d716416858c751f47",
    "d48_proj": "c8d2374cdcdfbf87a0915a55c43b5d2ea6d0fb6ef8442f1d1109ec0c85076c7f",
}


# The one-element ring {0}, whose group has no generators.
TRIVIAL_RING_JSON = {
    "classify": "52a4e1f1866d3fc6724b28e823e4577fa1e9ca43fcd21b855b233a6074de0073",
    "verify": "6f8faf0c29665e29dae32a2eabeb18cc772303212526e1aaa525eb1d67ac0121",
}


# (exit code, stdout digest) of ``validate FILE`` run in the directory that
# holds the seed-1 inputs of the benchmark's validate workloads: order-256
# tables whose additive identity is moved off index 0, then order-384
# tables with a corrupted entry, a right-distributivity failure, an entry
# out of range and truncated JSON.
VALIDATE = {
    ("validate_large", "z8xz32.json"):
        (0, "65681db5198d8055543e5d9b70300b280a50b3d87b8aff7c47c8008326e7325e"),
    ("validate_large", "m0z4xz4.json"):
        (0, "3af2580fb36095c171d445ca339b51218e3172f0d79d2f4520068c34629ac283"),
    ("validate_large", "gf2_8.json"):
        (0, "92cd05d1cb9aef7662b7dce3ad98fcd7e16ec8a118e8ca4cbd5c91a5d94ee2b3"),
    ("validate_large", "d128_proj.json"):
        (0, "03c94deff380424a6d7a58cc964df5f74a948654157b6669526d75f23c18fcee"),
    ("validate_invalid", "bad_add.json"):
        (1, "17e5463e1e367d9157be1b439b5e0c8fa3122c78c50c13a8cb74fd1c1f213ffd"),
    ("validate_invalid", "bad_mul.json"):
        (1, "c0959847a9ce274aa53d33fb2a58956c13c1675ba95408f720c1e1fbae551b46"),
    ("validate_invalid", "bad_rightdist.json"):
        (1, "5b53199a550fe3a4acce78b4431dfa223ae7ec65d35fd896ce2bf8838e2f69b5"),
    ("validate_invalid", "bad_range.json"):
        (3, "e2fd2ecccb4ca289adc3aaf859b02913c0104c7db8cef95f05fc7a120b78a1cb"),
    ("validate_invalid", "bad_json.json"):
        (3, "86431af6ce6a38445af815e7f1b36a000ef1cf2c69fdfd98745ef5047f826e19"),
}


def perfbench_gen():
    """``perfbench/gen.py``, loaded by path: it builds tables with numpy alone."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up by name
    spec.loader.exec_module(gen)
    return gen


MID_ORDER_TABLES = {
    "gf3_4": lambda gen: gen.gf(3, 4, (2, 1, 0, 0)),
    "z4xz24": lambda gen: gen.product(gen.zn(4), gen.zn(24), "z4xz24"),
    "m0_z4": lambda gen: gen.m0(4),
    "z2xz48": lambda gen: gen.product(gen.zn(2), gen.zn(48), "z2xz48"),
    "d48_proj": lambda gen: gen.dihedral_projection(48),
}


def run_digest(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_covers_default_corpus():
    assert tuple(CLASSIFY_JSON) == DEFAULT_CORPUS_NAMES


def test_verify_json_digest():
    assert run_digest(["verify", "--format", "json"]) == (0, VERIFY_JSON)


def test_verify_notes_json_digest_default_corpus():
    assert run_digest(["verify", "--format", "json", "--notes"]) == \
        (0, VERIFY_NOTES_JSON["default_corpus"])


@pytest.mark.parametrize("name", DEFAULT_CORPUS_NAMES)
def test_classify_json_digest(name, tmp_path):
    path = tmp_path / "ring.json"
    assert main(["builtin", name, "--out", str(path)], out=io.StringIO()) == 0
    assert run_digest(["classify", str(path), "--format", "json"]) == (0, CLASSIFY_JSON[name])


@pytest.mark.parametrize("name", sorted(MID_ORDER_CLASSIFY_JSON))
def test_mid_order_classify_json_digest(name, tmp_path):
    gen = perfbench_gen()
    path = tmp_path / f"{name}.json"
    path.write_text(gen.document(MID_ORDER_TABLES[name](gen)))
    assert run_digest(["classify", str(path), "--format", "json"]) == \
        (0, MID_ORDER_CLASSIFY_JSON[name])


@pytest.mark.parametrize("command", sorted(TRIVIAL_RING_JSON))
def test_trivial_ring_json_digest(command, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(emit_table(validate_nearring([[0]], [[0]])))
    assert run_digest([command, str(path), "--format", "json"]) == \
        (0, TRIVIAL_RING_JSON[command])


@lru_cache(maxsize=None)
def workload_texts(workload):
    """File name -> document text of the workload's seed-1 inputs."""
    gen = perfbench_gen()
    return {name: obj if isinstance(obj, str) else gen.document(obj)
            for cmd in gen.commands(workload, 1) for name, obj in cmd.files}


@pytest.mark.parametrize("workload, name", sorted(VALIDATE))
def test_validate_digest(workload, name, tmp_path, monkeypatch):
    (tmp_path / name).write_text(workload_texts(workload)[name])
    monkeypatch.chdir(tmp_path)
    assert run_digest(["validate", name]) == VALIDATE[workload, name]


def test_verify_notes_json_digest_suite_small(tmp_path, monkeypatch):
    for name, text in workload_texts("suite_small").items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_digest(["verify", "--format", "json", "--notes", "."]) == \
        (0, VERIFY_NOTES_JSON["suite_small"])
