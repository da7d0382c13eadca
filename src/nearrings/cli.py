"""Command-line surface.

Exit codes: 0 clean, 1 axiom/validation failure, 2 theorem counterexample,
3 I/O, format or usage error, or a table file over the construction cap.  Output is deterministic: identical
inputs and flags produce byte-identical reports.

The command line is read from one table, ``_COMMANDS``, which also gives
``--help`` and the ``usage:`` line of a usage error; a call builds no
parser object.  The reading is argparse's: a long option may be cut to a
unique prefix and given its value as the next token or after ``=``; a
value may start with ``-`` when it reads as a negative number or holds a
space; the last of a repeated option wins; ``-h`` or ``--help`` prints the
help of the command it follows and exits 0; after ``--`` every token is a
positional.  Two readings differ from argparse's: a command's positionals,
and the ``--`` before them, may come anywhere among its options (argparse
takes them only from the first stretch without an option, and refuses
``verify a.json --format json b.json``), and the two dashes of
``--option=--`` are the value (argparse stores an empty list).
"""
from __future__ import annotations

import functools
import io
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .core import (
    AxiomViolation,
    CapExceeded,
    NearRing,
    TableFormatError,
    emit_table,
    load_nearring,
)
from .catalog import builtin, catalog_names, default_corpus
from .classify import all_element_profiles, class_verdict, element_column, structure_profile
from .theorems import run_suite, theorem_catalog

EXIT_OK = 0
EXIT_AXIOM = 1
EXIT_THEOREM = 2
EXIT_IO = 3

CSV_COLUMNS = ["index", "label", "unit", "idempotent", "central", "nilpotency",
               "regular", "unit_regular", "lsr", "rsr", "morphic", "witness",
               "|Na|", "|annL|"]


def _flag_tokens(ring: NearRing) -> list[str]:
    f = ring.flags
    tokens = ["right_distributive"]
    for name, value in [("left_distributive", f.left_distributive),
                        ("abelian_add", f.abelian_add),
                        ("zero_symmetric", f.zero_symmetric),
                        ("unital", f.unital),
                        ("commutative_mul", f.commutative_mul)]:
        if value:
            tokens.append(name)
    if ring.is_ring():
        tokens.append("ring")
    return tokens


def _load(path: str, out) -> tuple[NearRing | None, int]:
    try:
        return load_nearring(path), EXIT_OK
    except (TableFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"{path}: format error: {exc}", file=out)
        return None, EXIT_IO
    except AxiomViolation as exc:
        print(f"{path}: axiom violation: {exc.law} witness {exc.witness}", file=out)
        return None, EXIT_AXIOM
    except CapExceeded as exc:
        print(f"{path}: over cap: {exc}", file=out)
        return None, EXIT_IO


def cmd_validate(args, out) -> int:
    ring, code = _load(args.file, out)
    if ring is None:
        return code
    print(f"name: {ring.name}", file=out)
    print(f"order: {ring.order}", file=out)
    print(f"flags: {' '.join(_flag_tokens(ring))}", file=out)
    if ring.one is not None:
        print(f"one: {ring.label(ring.one)}", file=out)
    return EXIT_OK


def _profile_row(ring: NearRing, p) -> list[str]:
    def yn(v):
        return "n/a" if v is None else ("yes" if v else "no")

    morphic = "n/a"
    witness = ""
    if p.morphic is not None:
        morphic = "yes" if p.morphic else f"no({p.morphic.status})"
        if p.morphic.witness is not None:
            witness = ring.label(p.morphic.witness)
    return [str(p.index), p.label, yn(p.is_unit), yn(p.is_idempotent),
            yn(p.is_central), str(p.nilpotency_index), yn(p.is_regular),
            yn(p.is_unit_regular), yn(p.is_left_strongly_regular),
            yn(p.is_right_strongly_regular), morphic, witness,
            str(p.orbit_left_size), str(p.ann_left_size)]


def _classify_json(ring: NearRing, profiles) -> dict:
    sp = structure_profile(ring)
    return {
        "name": ring.name,
        "order": ring.order,
        "flags": _flag_tokens(ring),
        "structure": {name: value for name, value in zip(sp._fields, sp)
                      if name != "witnesses"},
        "verdict": sp.verdict(),
        "elements": [dict(zip(CSV_COLUMNS, _profile_row(ring, p))) for p in profiles],
    }


def _element_index(text: str, order: int) -> int | None:
    """``text`` as an element index: ASCII digits, leading zeros allowed,
    naming an index below ``order``; else None.  ``int`` only sees as many
    digits as ``order`` has."""
    if not (text.isascii() and text.isdigit()):
        return None
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(order)) or int(digits) >= order:
        return None
    return int(digits)


def cmd_classify(args, out) -> int:
    ring, code = _load(args.file, out)
    if ring is None:
        return code
    profiles = all_element_profiles(ring)
    if args.element is not None:
        sel = _element_index(args.element, ring.order)
        if sel is None and ring.group.labels and args.element in ring.group.labels:
            sel = ring.group.labels.index(args.element)
        if sel is None:
            print(f"unknown element {args.element!r}", file=out)
            return EXIT_IO
        profiles = (profiles[sel],)
    if args.format == "json":
        print(json.dumps(_classify_json(ring, profiles), sort_keys=False), file=out)
        return EXIT_OK
    if args.format == "csv":
        import csv  # here, so that no other command pays for its import

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for p in profiles:
            writer.writerow(_profile_row(ring, p))
        out.write(buf.getvalue())
        return EXIT_OK
    print(f"name: {ring.name}", file=out)
    print(f"order: {ring.order}", file=out)
    print(f"flags: {' '.join(_flag_tokens(ring))}", file=out)
    print(f"verdict: {class_verdict(ring)}", file=out)
    header = " ".join(f"{c:>10}" for c in CSV_COLUMNS)
    print(header, file=out)
    for p in profiles:
        print(" ".join(f"{v:>10}" for v in _profile_row(ring, p)), file=out)
    return EXIT_OK


def _collect_inputs(paths, out) -> tuple[list[tuple[str, NearRing]], int]:
    corpus: list[tuple[str, NearRing]] = []
    worst = EXIT_OK
    if not paths:
        return default_corpus(), EXIT_OK
    files: list[str] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(str(f) for f in sorted(path.glob("*.json")))
        else:
            files.append(p)
    if not files:
        print(f"{' '.join(paths)}: no table files (*.json) to verify", file=out)
        return corpus, EXIT_IO
    for f in files:
        ring, code = _load(f, out)
        if ring is None:
            worst = max(worst, code)
        else:
            corpus.append((ring.name or f, ring))
    return corpus, worst


def cmd_verify(args, out) -> int:
    ids = None
    if args.theorems != "all":
        ids = args.theorems.split(",")
        unknown = [t for t in ids if t not in theorem_catalog()]
        if unknown:
            print(f"unknown theorem ids: {','.join(unknown)}", file=out)
            return EXIT_IO
    corpus, load_code = _collect_inputs(args.paths, out)
    if load_code:
        return load_code
    report = run_suite(corpus, ids)
    if args.format == "json":
        print(json.dumps(report.to_json(args.notes), sort_keys=False), file=out)
    else:
        for name, cell in report.cells:
            line = f"{name:24} {cell.theorem_id:22} {cell.status:14} ({cell.instantiations})"
            if cell.counterexample:
                elements, clause = cell.counterexample
                line += f"  at {elements}: {clause}"
            if args.notes and cell.hypothesis_note is not None:
                line += f"  note: {cell.hypothesis_note}"
            print(line, file=out)
        if len(corpus) > 1:
            print("inclusion chain:", file=out)
            print(f"  left strongly regular : {' '.join(report.chain.left_strongly_regular)}", file=out)
            print(f"  left morphic regular  : {' '.join(report.chain.left_morphic_regular)}", file=out)
            print(f"  unit-regular          : {' '.join(report.chain.unit_regular)}", file=out)
        print(f"aggregate: {report.aggregate}", file=out)
    return EXIT_OK if report.aggregate == "pass" else EXIT_THEOREM


def cmd_builtin(args, out) -> int:
    if args.list:
        for name in catalog_names():
            print(name, file=out)
        return EXIT_OK
    if not args.name:
        print("builtin: need --list or a NAME", file=out)
        return EXIT_IO
    try:
        ring = builtin(args.name)
    except (KeyError, ValueError) as exc:
        print(f"unknown builtin: {exc}", file=out)
        return EXIT_IO
    text = emit_table(ring)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"{args.out}: {exc.strerror or exc}", file=out)
            return EXIT_IO
    else:
        out.write(text)
    return EXIT_OK


def cmd_corpus(args, out) -> int:
    path = Path(args.dir)
    if not path.is_dir():
        print(f"{args.dir}: not a directory", file=out)
        return EXIT_IO
    worst = EXIT_OK
    rows = []
    for f in sorted(path.glob("*.json")):
        ring, code = _load(str(f), out)
        if ring is None:
            worst = max(worst, code)
            rows.append({"file": f.name, "error": True})
            continue
        col, unital = functools.partial(element_column, ring), ring.one is not None
        rows.append({
            "file": f.name,
            "name": ring.name,
            "order": ring.order,
            "verdict": class_verdict(ring),
            "units": int(np.count_nonzero(col("inverse") >= 0)) if unital else 0,
            "idempotents": int(np.count_nonzero(col("idempotent"))),
            "regular": int(np.count_nonzero(col("regular") >= 0)),
            "unit_regular": int(np.count_nonzero(col("unit_regular") >= 0)) if unital else 0,
            "left_morphic": int(np.count_nonzero(col("morphic"))) if unital else 0,
        })
    if args.format == "json":
        print(json.dumps({"rows": rows}, sort_keys=False), file=out)
    else:
        for row in rows:
            if row.get("error"):
                print(f"{row['file']}: ERROR", file=out)
            else:
                print(f"{row['file']:24} {row['name']:20} n={row['order']:<4} "
                      f"units={row['units']} idem={row['idempotents']} "
                      f"reg={row['regular']} ureg={row['unit_regular']} "
                      f"morphic={row['left_morphic']}  [{row['verdict']}]", file=out)
    return worst


# The command table: name -> (handler, help, positional, options).  Every
# command takes one positional, (dest, arity, help), where arity is "1"
# (required), "?" (optional) or "*" (any number); options map "--name" to
# (default, choices, help), and one whose default is False is a flag.  The
# handlers read each value as ``args.<dest>`` or ``args.<name>``.
_COMMANDS = {
    "validate": (cmd_validate, "validate a table file", ("file", "1", ""), {}),
    "classify": (cmd_classify, "classify elements and structure", ("file", "1", ""), {
        "--element": (None, None, "element index or label"),
        "--format": ("text", ("text", "json", "csv"), "")}),
    "verify": (cmd_verify, "run the theorem suite",
               ("paths", "*", "table files or directories; defaults to the builtin corpus"), {
        "--theorems": ("all", None, "all or comma-separated ids"),
        "--format": ("text", ("text", "json"), ""),
        "--notes": (False, None, "show why each not_applicable cell does not apply")}),
    "builtin": (cmd_builtin, "export a builtin near-ring", ("name", "?", ""), {
        "--list": (False, None, ""),
        "--out": (None, None, "")}),
    "corpus": (cmd_corpus, "classification digest for a directory", ("dir", "1", ""), {
        "--format": ("text", ("text", "json"), "")}),
}
_HELP = ("-h", "--help")
# A token that reads as a negative number (-1, -0.5, -.5) is a positional
# or a value, not an option.
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: nearrings [-h] {%s} ..." % ",".join(_COMMANDS)
    _, _, (dest, arity, _), options = _COMMANDS[command]
    words = [f"[{_label(name, default, choices)}]"
             for name, (default, choices, _) in options.items()]
    positional = {"1": dest, "?": f"[{dest}]", "*": f"[{dest} ...]"}[arity]
    return " ".join(["usage: nearrings", command, "[-h]", *words, positional])


def _label(name: str, default, choices) -> str:
    """An option as usage and help show it: a flag alone, else with its value."""
    if default is False:
        return name
    return f"{name} {{{','.join(choices)}}}" if choices else f"{name} {name[2:].upper()}"


def _help(command: str | None) -> str:
    if command is None:
        about = "Finite near-ring validation, classification, and theorem checking."
        positionals = [("{%s}" % ",".join(_COMMANDS), "")]
        positionals += [(f"  {name}", spec[1]) for name, spec in _COMMANDS.items()]
        options = {}
    else:
        _, about, (dest, _, text), options = _COMMANDS[command]
        positionals = [(dest, text)]
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(_label(name, default, choices), text)
             for name, (default, choices, text) in options.items()]
    lines = [_usage(command), "", about, "", "positional arguments:", *_rows(positionals),
             "", "options:", *_rows(rows)]
    return "\n".join(lines) + "\n"


def _rows(rows):
    """Labels indented by 2, their help text from column 24."""
    for label, text in rows:
        label = "  " + label
        if not text:
            yield label
        elif len(label) < 23:
            yield label.ljust(24) + text
        else:
            yield label
            yield " " * 24 + text


def _refuse(command: str | None, message: str):
    """A usage error: the usage line and the message on stderr, exit 3
    (exit 2 would read as a theorem counterexample)."""
    prog = "nearrings" if command is None else f"nearrings {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_IO)


def _option(token: str, names, command: str | None):
    """How ``token`` reads among the option ``names``: None for a
    positional, else (name, value), where name is None for an unknown
    option and value is the text after ``=`` (or after ``-h``), None if
    there is none.  A long option may be cut to any prefix that names one
    option; a prefix that names more is refused."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        hits = [n for n in names if n.startswith(name)]
        if len(hits) > 1:
            _refuse(command, f"ambiguous option: {token} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _help_or_refuse(command: str | None, name: str, value: str | None):
    # "-hh" is -h twice; any other value given to -h or --help is refused
    if value is not None and not (name == "-h" and set(value) == {"h"}):
        _refuse(command, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(EXIT_OK)


def _parse_command(command: str, argv: list[str]) -> tuple[dict, list[str]]:
    """The values of ``command``'s arguments in ``argv``, and the tokens
    left over.  Options and positionals may come in any order; after the
    first ``--`` every token is a positional."""
    _, _, (dest, arity, _), options = _COMMANDS[command]
    names = (*_HELP, *options)
    values = {"command": command}
    values.update((name[2:], spec[0]) for name, spec in options.items())
    cut = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(token, names, command) for token in argv[:cut]]
    positionals, extra = [], []
    at = 0
    while at < cut:
        token, kind = argv[at], kinds[at]
        at += 1
        if kind is None:
            positionals.append(token)
            continue
        name, value = kind
        if name is None:
            extra.append(token)
            continue
        if name in _HELP:
            _help_or_refuse(command, name, value)
        default, choices, _ = options[name]
        if default is False:
            if value is not None:
                _refuse(command, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif value is None:
            if at == cut or kinds[at] is not None:
                _refuse(command, f"argument {name}: expected one argument")
            value = argv[at]
            at += 1
        if choices and value not in choices:
            _refuse(command, f"argument {name}: invalid choice: {value!r} (choose from "
                             + ", ".join(map(repr, choices)) + ")")
        values[name[2:]] = value
    positionals += argv[cut + 1:]
    if arity == "*":
        values[dest] = positionals
    elif positionals:
        values[dest] = positionals[0]
        extra += positionals[1:]
    elif arity == "1":
        _refuse(command, f"the following arguments are required: {dest}")
    else:
        values[dest] = None
    return values, extra


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its values, read from ``argv`` through ``_COMMANDS``.
    ``-h`` or ``--help`` prints the help of the command it follows (of the
    program, before a command) and exits 0; a usage error exits 3."""
    extra = []
    for at, token in enumerate(argv):
        kind = None if token == "--" else _option(token, _HELP, None)
        if kind is None:
            break
        if kind[0] is None:
            extra.append(token)
        else:
            _help_or_refuse(None, *kind)
    else:
        _refuse(None, "the following arguments are required: command")
    command = argv[at]
    if command not in _COMMANDS:
        _refuse(None, f"argument command: invalid choice: {command!r} (choose from "
                      + ", ".join(map(repr, _COMMANDS)) + ")")
    values, rest = _parse_command(command, argv[at + 1:])
    if extra or rest:
        _refuse(None, f"unrecognized arguments: {' '.join(extra + rest)}")
    return SimpleNamespace(**values)


def main(argv=None, out=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    return _COMMANDS[args.command][0](args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
