"""CLI surface: commands, exit codes, output formats, determinism.

The command line is read from ``cli._COMMANDS`` by ``cli._parse_args``.
The argparse parser it replaced is kept below (``build_parser``) as the
oracle: on every argv it accepts, ``_parse_args`` must give the same
values; on every argv it refuses, a usage error (exit 3).
"""
import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nearrings import (TableFormatError, build_product, builtin, emit_table, load_nearring,
                       structure_profile, validate_module)
from nearrings.cli import EXIT_IO, _parse_args, main
from nearrings.core import DEFAULT_ORDER_CAP


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture()
def klein4_file(tmp_path):
    path = tmp_path / "klein4.json"
    path.write_text(emit_table(builtin("klein4_ring")))
    return str(path)


@pytest.fixture(scope="module")
def z272_dir(tmp_path_factory):
    """A directory holding one unital ring of order 272, Z16 x Z17."""
    path = tmp_path_factory.mktemp("z272")
    ring = build_product((builtin("zn_ring(16)"), builtin("zn_ring(17)")), name="z16xz17")
    (path / "z272.json").write_text(emit_table(ring))
    return path


# The entries that read the structure or element profiles on an order-272 ring.
PROFILE_THEOREMS = ("ccc_decomposition,wsw_morphic,lemma213,lemma_hdt,lemma13,lemma_ffff,"
                   "prop_ff_square,prop_ff_morphic,prop_cccxi,thm62,prop_tttt,ehrlich_T")


@pytest.fixture()
def m0_file(tmp_path):
    path = tmp_path / "m0.json"
    path.write_text(emit_table(builtin("m0_z3")))
    return str(path)


class TestValidate:
    def test_valid_file(self, klein4_file):
        code, text = run(["validate", klein4_file])
        assert code == 0
        assert "ring" in text.split()  # the derived flag token
        assert "order: 4" in text

    def test_axiom_failure_exits_1(self, tmp_path):
        doc = json.loads(emit_table(builtin("klein4_ring")))
        doc["mul"][1][1] = 2  # break associativity / distributivity
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, text = run(["validate", str(bad)])
        assert code == 1
        assert "witness" in text

    def test_truncated_json_exits_3(self, tmp_path):
        bad = tmp_path / "trunc.json"
        bad.write_text(emit_table(builtin("klein4_ring"))[:40])
        code, text = run(["validate", str(bad)])
        assert code == 3

    def test_missing_file_exits_3(self):
        code, _ = run(["validate", "/no/such/file.json"])
        assert code == 3

    # json.loads raises RecursionError on deep nesting and ValueError on an
    # integer of more than 4300 digits; neither is a JSONDecodeError.
    @pytest.mark.parametrize("order, add", [
        ("1", "[" * 100_000 + "]" * 100_000),
        ("1" * 5000, "[[0]]"),
        ("1", "[[" + "1" * 5000 + "]]"),
    ], ids=["deep nesting", "5000-digit order", "5000-digit entry"])
    def test_json_the_parser_cannot_hold_exits_3(self, tmp_path, order, add):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "nearring-table/1", "name": "x", "order": %s, '
                       '"add": %s, "mul": [[0]]}' % (order, add))
        code, text = run(["validate", str(bad)])
        assert code == 3
        assert text.startswith(f"{bad}: format error: not valid JSON: ")


class TestClassify:
    def test_m0_z3_f5_row(self, m0_file):
        code, text = run(["classify", m0_file, "--format", "csv"])
        assert code == 0
        rows = text.splitlines()
        assert rows[0].startswith("index,label,unit,idempotent")
        f5 = rows[5].split(",")
        assert f5[1] == "f5"
        assert f5[3] == "yes"            # idempotent
        assert f5[10].startswith("no")   # not left morphic
        assert len(rows) == 10

    def test_single_element_by_label(self, klein4_file):
        code, text = run(["classify", klein4_file, "--element", "a"])
        assert code == 0
        parts = text.splitlines()[-1].split()
        # columns end with: morphic, witness, |Na|, |annL|
        assert parts[-4] == "yes" and parts[-3] == "c"

    def test_unknown_element_exits_3(self, klein4_file):
        code, _ = run(["classify", klein4_file, "--element", "zz"])
        assert code == 3

    def test_superscript_digit_is_an_unknown_element(self, klein4_file):
        # "²".isdigit() is true, but int("²") raises
        code, text = run(["classify", klein4_file, "--element", "²"])
        assert (code, text) == (3, "unknown element '²'\n")

    @pytest.mark.parametrize("element", ["5" * 5000, "\u0663"],
                             ids=["5000 digits", "arabic-indic digit three"])
    def test_index_is_a_bounded_run_of_ascii_digits(self, klein4_file, element):
        code, text = run(["classify", klein4_file, "--element", element])
        assert (code, text) == (3, f"unknown element {element!r}\n")

    def test_index_with_leading_zeros(self, klein4_file):
        assert run(["classify", klein4_file, "--element", "0003"]) == \
            run(["classify", klein4_file, "--element", "c"])

    def test_json_shape(self, klein4_file):
        code, text = run(["classify", klein4_file, "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["order"] == 4
        assert doc["verdict"] == "left strongly regular"
        assert len(doc["elements"]) == 4
        assert doc["structure"]["is_ring"] is True

    def test_json_is_deterministic(self, klein4_file):
        _, a = run(["classify", klein4_file, "--format", "json"])
        _, b = run(["classify", klein4_file, "--format", "json"])
        assert a == b

    def test_order_272_classifies(self, z272_dir):
        path = str(z272_dir / "z272.json")
        code, text = run(["classify", path, "--format", "json"])
        assert code == 0
        sp = structure_profile(load_nearring(path))
        expected = {k: v for k, v in sp._asdict().items() if k != "witnesses"}
        doc = json.loads(text)
        assert doc["structure"] == expected
        assert (doc["order"], len(doc["elements"])) == (272, 272)

    @pytest.mark.parametrize("argv", [["--bogus"], ["--allow-nonunital"]])
    def test_usage_error_exits_3(self, klein4_file, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", klein4_file] + argv, out=io.StringIO())
        assert exc.value.code == 3
        assert "usage:" in capsys.readouterr().err


class TestVerify:
    def test_default_corpus_passes(self):
        code, text = run(["verify"])
        assert code == 0
        assert "aggregate: pass" in text
        assert "klein4_ring" in text

    def test_chain_summary_names_witnesses(self):
        code, text = run(["verify"])
        lines = {l.split(":")[0].strip(): l for l in text.splitlines() if ":" in l}
        assert "klein4_ring" in lines["left strongly regular"]
        assert "mat2_f2" in lines["left morphic regular"]
        assert "mat2_f2" not in lines["left strongly regular"]
        assert "m0_z3" in lines["unit-regular"]
        assert "m0_z3" not in lines["left morphic regular"]

    def test_single_theorem_on_file(self, m0_file):
        code, text = run(["verify", m0_file, "--theorems", "thm62"])
        assert code == 0
        assert "not_applicable" in text

    def test_unknown_theorem_exits_3(self, m0_file):
        for ids in ("nope", ""):  # an empty list names no theorem, so it is no "all"
            code, text = run(["verify", m0_file, "--theorems", ids])
            assert (code, text) == (3, f"unknown theorem ids: {ids}\n"), ids

    def test_corrupted_input_exits_1_before_theorems(self, tmp_path):
        doc = json.loads(emit_table(builtin("klein4_ring")))
        doc["add"][1][2] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, text = run(["verify", str(bad)])
        assert code == 1
        assert "aggregate" not in text

    def test_paths_without_tables_exit_3(self, tmp_path):
        empty, other = tmp_path / "empty", tmp_path / "other"
        empty.mkdir()
        other.mkdir()
        (other / "notes.txt").write_text("no table here\n")
        for paths in ([empty], [other], [empty, other]):
            code, text = run(["verify", *map(str, paths)])
            names = " ".join(map(str, paths))
            assert (code, text) == (3, f"{names}: no table files (*.json) to verify\n")

    def test_order_272_cells_run(self, z272_dir):
        code, text = run(["verify", str(z272_dir), "--theorems", PROFILE_THEOREMS,
                          "--format", "json", "--notes"])
        assert code == 0
        doc = json.loads(text)
        assert len(doc["cells"]) == 12
        assert {c["status"] for c in doc["cells"]} <= {"pass", "not_applicable"}
        notes = [c.get("hypothesis_note", "") for c in doc["cells"]]
        assert not any("limit" in note or "cap" in note for note in notes), notes
        assert doc["aggregate"] == "pass"
        assert doc["inclusion_chain"]["unit_regular"] == []  # Z16 is not regular

    def test_notes_on_order_272_name_the_hypothesis(self, z272_dir):
        note = "not a left morphic regular near-ring"
        code, text = run(["verify", str(z272_dir), "--theorems", "thm62", "--notes"])
        assert code == 0
        assert text.splitlines()[0].endswith(f"not_applicable (0)  note: {note}")
        code, text = run(["verify", str(z272_dir), "--theorems", "thm62", "--notes",
                          "--format", "json"])
        assert code == 0
        assert json.loads(text)["cells"][0]["hypothesis_note"] == note

    def test_notes_are_opt_in(self):
        argv = ["verify", "--theorems", "product_morphic,lemma10"]
        _, plain = run(argv)
        _, noted = run(argv + ["--notes"])
        assert "note:" not in plain
        for p, n in zip(plain.splitlines(), noted.splitlines()):
            assert n == p or n == p + "  note: not built as a direct product"
        assert noted.count("note:") == 8  # every member but the product
        _, plain = run(argv + ["--format", "json"])
        _, noted = run(argv + ["--format", "json", "--notes"])
        assert "hypothesis_note" not in plain
        cells = json.loads(noted)["cells"]
        assert [c.get("hypothesis_note") for c in cells if c["status"] == "not_applicable"] \
            == ["not built as a direct product"] * 8
        assert all("hypothesis_note" not in c for c in cells if c["status"] == "pass")

    def test_json_byte_identical_runs(self):
        _, a = run(["verify", "--format", "json"])
        _, b = run(["verify", "--format", "json"])
        assert a == b
        doc = json.loads(a)
        assert doc["aggregate"] == "pass"


class TestBuiltin:
    def test_list_sorted(self):
        code, text = run(["builtin", "--list"])
        assert code == 0
        names = text.splitlines()
        assert names == sorted(names)
        assert "klein4_ring" in names

    def test_export_roundtrips(self, tmp_path):
        target = tmp_path / "k.json"
        code, _ = run(["builtin", "klein4_ring", "--out", str(target)])
        assert code == 0
        code, text = run(["validate", str(target)])
        assert code == 0
        assert "order: 4" in text

    def test_m0_export_order_9(self):
        code, text = run(["builtin", "m0_z3"])
        assert code == 0
        assert json.loads(text)["order"] == 9

    def test_unknown_exits_3(self):
        code, _ = run(["builtin", "not_a_ring"])
        assert code == 3

    def test_zn_order_with_5000_digits_exits_3_with_the_range_error(self):
        code, text = run(["builtin", "zn_ring(" + "9" * 5000 + ")"])
        assert code == 3
        assert text.startswith("unknown builtin: zn_ring order must be in [2,64], got 999")

    def test_out_into_a_missing_directory_exits_3(self, tmp_path):
        target = tmp_path / "missing_dir" / "k.json"
        code, text = run(["builtin", "klein4_ring", "--out", str(target)])
        assert (code, text) == (3, f"{target}: No such file or directory\n")
        assert not target.parent.exists()


class TestCorpus:
    def test_digest(self, tmp_path):
        for name in ("klein4_ring", "m0_z3"):
            (tmp_path / f"{name}.json").write_text(emit_table(builtin(name)))
        code, text = run(["corpus", str(tmp_path)])
        assert code == 0
        m0_line = next(l for l in text.splitlines() if "m0_z3" in l)
        assert "n=9" in m0_line and "units=2" in m0_line

    def test_empty_dir(self, tmp_path):
        code, text = run(["corpus", str(tmp_path)])
        assert code == 0
        assert text == ""

    def test_bad_file_flagged_others_classified(self, tmp_path):
        (tmp_path / "good.json").write_text(emit_table(builtin("klein4_ring")))
        (tmp_path / "bad.json").write_text("{not json")
        code, text = run(["corpus", str(tmp_path)])
        assert code == 3
        assert "ERROR" in text
        assert "klein4_ring" in text

    def test_order_272_gets_a_row(self, z272_dir, tmp_path):
        (tmp_path / "z272.json").write_text((z272_dir / "z272.json").read_text())
        (tmp_path / "klein4.json").write_text(emit_table(builtin("klein4_ring")))
        code, text = run(["corpus", str(tmp_path), "--format", "json"])
        assert code == 0
        good, big = json.loads(text)["rows"]
        assert (good["file"], good["name"]) == ("klein4.json", "klein4_ring")
        verdict = structure_profile(load_nearring(tmp_path / "z272.json")).verdict()
        assert (big["file"], big["name"], big["order"], big["verdict"]) == \
            ("z272.json", "z16xz17", 272, verdict)

    def test_not_a_directory_exits_3(self):
        code, _ = run(["corpus", "/no/such/dir"])
        assert code == 3


class TestLoadCap:
    """A document that declares an order above the construction cap is
    refused before its tables are read: exit 3 and one line."""

    @pytest.fixture()
    def huge_dir(self, tmp_path):
        doc = {"format": "nearring-table/1", "name": "huge", "order": DEFAULT_ORDER_CAP + 1,
               "add": [[0]], "mul": [[0]]}
        (tmp_path / "huge.json").write_text(json.dumps(doc))
        return tmp_path

    def line(self, path):
        return f"{path}: over cap: order {DEFAULT_ORDER_CAP + 1} exceeds cap {DEFAULT_ORDER_CAP}\n"

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_single_file(self, command, huge_dir):
        path = str(huge_dir / "huge.json")
        assert run([command, path]) == (3, self.line(path))

    def test_verify(self, huge_dir):
        assert run(["verify", str(huge_dir / "huge.json")]) == \
            (3, self.line(huge_dir / "huge.json"))

    def test_corpus_flags_the_file_and_classifies_the_rest(self, huge_dir):
        (huge_dir / "klein4.json").write_text(emit_table(builtin("klein4_ring")))
        code, text = run(["corpus", str(huge_dir), "--format", "json"])
        first, rest = text.split("\n", 1)
        assert code == 3 and first + "\n" == self.line(huge_dir / "huge.json")
        rows = json.loads(rest)["rows"]
        assert rows[0] == {"file": "huge.json", "error": True}
        assert rows[1]["name"] == "klein4_ring"


class TestNonListTables:
    """A table, or a row of one, that is not a list is a format error:
    exit 3 and one line, never a traceback."""

    TABLES = ([0, 1], 5, None, [[0, 1], 7], {"0": [0, 1], "1": [1, 0]}, [[0, 1], {"x": 1}])

    @pytest.fixture(params=range(len(TABLES)))
    def bad_dir(self, request, tmp_path):
        doc = {"format": "nearring-table/1", "name": "bad", "order": 2,
               "add": self.TABLES[request.param], "mul": [[0, 0], [0, 0]]}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        return tmp_path

    @staticmethod
    def format_errors(text):
        return [line for line in text.splitlines() if "format error" in line]

    def test_validate(self, bad_dir):
        code, text = run(["validate", str(bad_dir / "bad.json")])
        assert code == 3
        assert text.count("\n") == 1 and len(self.format_errors(text)) == 1
        assert "add: " in text and ("not a list of rows" in text or "is not a list" in text)

    @pytest.mark.parametrize("command", ["verify", "corpus"])
    def test_directory(self, command, bad_dir):
        code, text = run([command, str(bad_dir)])
        assert code == 3
        assert self.format_errors(text) == [
            line for line in run(["validate", str(bad_dir / "bad.json")])[1].splitlines()]

    def test_module_action(self):
        ring = builtin("zn_ring(2)")
        for action in (3, [[0, 1], 1]):
            with pytest.raises(TableFormatError, match="is not a list|not a list of rows"):
                validate_module(ring, ring.group, action)


class TestParsing:
    """How the command line is read: help, the spellings of an option, and
    the usage errors, which exit 3 with a ``usage:`` line on stderr."""

    WORDS = {None: ["validate", "classify", "verify", "builtin", "corpus"],
               "validate": ["file"],
               "classify": ["--element", "--format {text,json,csv}", "file"],
               "verify": ["--theorems", "--format {text,json}", "--notes", "paths"],
               "builtin": ["--list", "--out", "name"],
               "corpus": ["--format {text,json}", "dir"]}

    @pytest.mark.parametrize("command", list(WORDS))
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_0_with_the_options(self, command, flag, capsys):
        argv = [flag] if command is None else [command, flag]
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: nearrings" + ("" if command is None else f" {command}"))
        for word in ["-h, --help"] + self.WORDS[command]:
            assert word in text, word

    @pytest.mark.parametrize("argv", [
        ["--format=json"],
        ["--form", "json"],
        ["--format", "csv", "--format", "json"],
    ], ids=["equals", "prefix", "last wins"])
    def test_format_spellings(self, klein4_file, argv):
        assert run(["classify", klein4_file, *argv]) == \
            run(["classify", klein4_file, "--format", "json"])

    def test_option_before_the_file(self, klein4_file):
        assert run(["classify", "--format", "json", klein4_file]) == \
            run(["classify", klein4_file, "--format", "json"])

    def test_element_prefix(self, klein4_file):
        assert run(["classify", klein4_file, "--e", "a"]) == \
            run(["classify", klein4_file, "--element", "a"])

    def test_builtin_list_prefix(self):
        assert run(["builtin", "--l"]) == run(["builtin", "--list"])

    def test_element_value_may_start_with_a_dash(self, klein4_file):
        assert run(["classify", klein4_file, "--element", "-1"]) == \
            (3, "unknown element '-1'\n")

    @pytest.mark.parametrize("argv", [
        ["classify", "K", "--format", "xml"],
        ["classify"],
        ["classify", "--format", "json"],
        ["classify", "K", "K"],
        ["validate", "K", "K"],
        ["classify", "K", "--element"],
        ["classify", "--element", "--format", "json", "K"],
        ["check", "K"],
        [],
        ["--help=x"],
        ["-x"],
    ], ids=["format xml", "no file", "options, no file", "extra positional",
            "extra positional (validate)", "element without value",
            "element followed by an option", "unknown command", "no command",
            "help with a value", "unknown option, no command"])
    def test_usage_errors_exit_3(self, klein4_file, argv, capsys):
        argv = [klein4_file if a == "K" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: nearrings")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, not argparse's 2 (which means a counterexample)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nearrings",
        description="Finite near-ring validation, classification, and theorem checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a table file")
    p.add_argument("file")

    p = sub.add_parser("classify", help="classify elements and structure")
    p.add_argument("file")
    p.add_argument("--element", default=None, help="element index or label")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = sub.add_parser("verify", help="run the theorem suite")
    p.add_argument("paths", nargs="*", help="table files or directories; "
                   "defaults to the builtin corpus")
    p.add_argument("--theorems", default="all", help="all or comma-separated ids")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--notes", action="store_true",
                   help="show why each not_applicable cell does not apply")

    p = sub.add_parser("builtin", help="export a builtin near-ring")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("corpus", help="classification digest for a directory")
    p.add_argument("dir")
    p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


ORACLE = build_parser()


def outcome(parse, argv):
    """("ok", values), ("help", the usage line up to its first option) or
    ("usage error", exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "ok", vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    if code == 0:
        return "help", out.getvalue().split(" [", 1)[0]
    return "usage error", code, err.getvalue()


# Each command's positional and options (flags marked True), as argparse has them.
POSITIONAL = {"validate": "file", "classify": "file", "verify": "paths",
              "builtin": "name", "corpus": "dir"}
OPTIONS = {"validate": {}, "classify": {"--element": False, "--format": False},
           "verify": {"--theorems": False, "--format": False, "--notes": True},
           "builtin": {"--list": True, "--out": False}, "corpus": {"--format": False}}
VALUES = ["k.json", "a", "0", "json", "csv", "text", "xml", "all", "lemma10,prop2",
          "-1", "-0.5", "-.5", "-", "", "a b", "-x y", "x=y", "--", "-x", "--bogus"]
HELP = ["-h", "--help", "--he", "--h", "-hh", "-hx", "--help=x"]
# No "-1e5" or "-h=h": argparse reads them differently from one Python
# version to the next.
UNKNOWN = ["-x", "--bogus", "extra", "---", "--=x", "-f"]


@st.composite
def option_tokens(draw, command):
    """One option of ``command``, exact or cut to a prefix, with its value
    as the next token or after ``=`` (and then never ``--``)."""
    name, flag = draw(st.sampled_from(sorted(OPTIONS[command].items())))
    name = name[:draw(st.integers(3, len(name)))]
    if flag:
        return [name] if draw(st.integers(0, 5)) else [name + "=" + draw(st.sampled_from(VALUES))]
    value = draw(st.sampled_from(VALUES + ["text", "json"] * 8))  # mostly a valid --format
    if value != "--" and draw(st.booleans()):
        return [f"{name}={value}"]
    return [name, value]


@st.composite
def argvs(draw):
    head = [draw(st.sampled_from(HELP + UNKNOWN))] if draw(st.integers(0, 9)) == 0 else []
    command = draw(st.sampled_from([*OPTIONS, *OPTIONS, "check", "--", None]))
    if command is None:
        return head
    body = []
    # options, positionals, "--", and now and then a help or unknown token
    for kind in draw(st.lists(st.sampled_from("oooooooppp-x"), max_size=6)):
        if kind == "o" and OPTIONS.get(command):
            body += draw(option_tokens(command))
        elif kind == "-":
            body.append("--")
        elif kind == "x" and draw(st.booleans()):
            body.append(draw(st.sampled_from(HELP + UNKNOWN)))
        else:
            body.append(draw(st.sampled_from(VALUES)))
    return head + [command] + body


def canonical(values):
    """``values`` as an argv in the order argparse reads in full: options
    first, then ``--`` and the positionals."""
    command = values["command"]
    argv = [command]
    for name, flag in OPTIONS[command].items():
        value = values[name[2:]]
        if flag and value:
            argv.append(name)
        elif not flag and value is not None:
            argv.append(f"{name}={value}")
    positional = values[POSITIONAL[command]]
    return argv + ["--"] + (positional if isinstance(positional, list)
                            else [] if positional is None else [positional])


@given(argv=argvs())
@settings(max_examples=2000, deadline=None)
@example(argv=["verify", "a.json", "--format", "json", "b.json"])
@example(argv=["classify", "k.json", "--format", "json", "--"])
@example(argv=["builtin", "--list", "--", "--out"])
@example(argv=["verify", "a", "--", "b", "--", "c"])
@example(argv=["classify", "--element", "-1", "k.json"])
@example(argv=["-x", "classify", "-h"])
@example(argv=["classify", "--=x", "-h"])
def test_parse_matches_the_argparse_oracle(argv):
    expected = outcome(ORACLE.parse_args, argv)
    got = outcome(_parse_args, argv)
    if got[0] == "usage error":
        assert got[1] == EXIT_IO and got[2].startswith("usage: nearrings")
        assert expected[0] == "usage error", (argv, expected)
    elif expected[0] == "usage error" and got[0] == "ok":
        # argparse takes the positionals, and the "--" before them, only
        # from the first stretch of the command line that holds no option;
        # read in its order, the same arguments give the same values.
        assert "unrecognized arguments" in expected[2], (argv, expected)
        assert outcome(ORACLE.parse_args, canonical(got[1])) == got, argv
    else:
        assert got == expected, argv


@pytest.mark.parametrize("argv, name", [
    (["classify", "k.json", "--element=--"], "element"),
    (["verify", "--theorems=--"], "theorems"),
    (["builtin", "--out=--"], "out"),
])
def test_two_dashes_after_equals_are_the_value(argv, name):
    # argparse of Python 3.10 and 3.11 strips them and stores an empty list,
    # on which classify --element and verify --theorems raise AttributeError;
    # the property test above never gives them
    assert getattr(_parse_args(argv), name) == "--"


def test_a_command_imports_no_argparse(klein4_file):
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import sys\n"
              "from nearrings import cli\n"
              f"code = cli.main(['validate', {klein4_file!r}])\n"
              "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.splitlines()[-1] == "0 []"
