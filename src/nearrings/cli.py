"""Command-line surface.

Exit codes: 0 clean, 1 axiom/validation failure, 2 theorem counterexample,
3 I/O, format or usage error, or a table file over the construction cap.  Output is deterministic: identical
inputs and flags produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

from .core import (
    AxiomViolation,
    CapExceeded,
    NearRing,
    TableFormatError,
    emit_table,
    load_nearring,
)
from .catalog import builtin, catalog_names, default_corpus
from .classify import all_element_profiles, structure_profile
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
        "structure": {f.name: getattr(sp, f.name) for f in dataclasses.fields(sp)
                      if f.name != "witnesses"},
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for p in profiles:
            writer.writerow(_profile_row(ring, p))
        out.write(buf.getvalue())
        return EXIT_OK
    sp = structure_profile(ring)
    print(f"name: {ring.name}", file=out)
    print(f"order: {ring.order}", file=out)
    print(f"flags: {' '.join(_flag_tokens(ring))}", file=out)
    print(f"verdict: {sp.verdict()}", file=out)
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
        profiles = all_element_profiles(ring)
        sp = structure_profile(ring)
        rows.append({
            "file": f.name,
            "name": ring.name,
            "order": ring.order,
            "verdict": sp.verdict(),
            "units": sum(1 for p in profiles if p.is_unit),
            "idempotents": sum(1 for p in profiles if p.is_idempotent),
            "regular": sum(1 for p in profiles if p.is_regular),
            "unit_regular": sum(1 for p in profiles if p.is_unit_regular),
            "left_morphic": sum(1 for p in profiles if p.morphic),
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


_COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "builtin": cmd_builtin,
    "corpus": cmd_corpus,
}


def main(argv=None, out=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
