"""The table reader of ``parse_table`` against the ``json.loads`` parser.

``reference_parse_table`` is ``parse_table`` as it was before the reader,
kept verbatim: every document must give the same outcome through both,
either the same RawTables (fields, dtype and read-only flags) or the same
exception type and message.  Generated documents vary the order, the
separators, the key order, the optional fields and non-ASCII strings, and
take up to three edits: replace a number, insert text next to a bracket,
comma, colon, brace or quote, right after a table or at the start of a key,
or move a comma past the next number.  The same documents are read again in
blocks of a few bytes (``core._BLOCK`` patched), also through a file object
that can or cannot seek and with an invalid UTF-8 sequence put in, so that
every table, key and multi-byte character spans several blocks.

``reference_decode_rows`` keeps, verbatim, the block checks and the digit
decoding (``reference_block_numbers``) that the reader had before its
separator decoder ``core._decode_rows``: every block of random tables of
orders 1 to 200, with up to three edits, must be accepted or refused alike
by both, with the same values.
"""
import io
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nearrings import core, from_document, load_nearring, parse_table
from nearrings.core import (
    _MAX_DIGITS,
    _PAD,
    _SPACE_BYTES,
    _SPACES,
    DEFAULT_ORDER_CAP,
    TABLE_DTYPE,
    TABLE_FORMAT,
    CapExceeded,
    RawTables,
    TableFormatError,
    _check_table,
    _put_first,
    _read_document,
)


def reference_parse_table(data) -> RawTables:
    """Parse a NearRing Table Format v1 document; shape checks only."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TableFormatError("document must be a JSON object")
    if doc.get("format") != TABLE_FORMAT:
        raise TableFormatError(f'missing or unsupported "format" (want {TABLE_FORMAT!r})')
    for key in ("name", "order", "add", "mul"):
        if key not in doc:
            raise TableFormatError(f'missing required field "{key}"')
    name = doc["name"]
    if not isinstance(name, str):
        raise TableFormatError('"name" must be a string')
    n = doc["order"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise TableFormatError('"order" must be a positive integer')
    if n > DEFAULT_ORDER_CAP:
        raise CapExceeded(f"order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    add = _check_table(doc["add"], n, n, "add")
    mul = _check_table(doc["mul"], n, n, "mul")
    labels = None
    if doc.get("labels") is not None:
        labels = doc["labels"]
        if (not isinstance(labels, list) or len(labels) != n
                or not all(isinstance(s, str) for s in labels)):
            raise TableFormatError('"labels" must be a list of n strings')
        if len(set(labels)) != n:
            raise TableFormatError('"labels" contains duplicates')
        labels = tuple(labels)
    one = doc.get("one")
    if one is not None and (not isinstance(one, int) or isinstance(one, bool)
                            or not 0 <= one < n):
        raise TableFormatError(f'"one" index {one!r} out of range [0,{n})')
    return RawTables(name=name, order=n, labels=labels, add=add, mul=mul, one=one)


def outcome(parse, data):
    try:
        raw = parse(data)
    except Exception as exc:  # the outcome is whatever is raised
        return type(exc), str(exc)
    tables = [(t.tolist(), t.dtype, t.flags.writeable) for t in (raw.add, raw.mul)]
    return (raw.name, raw.order, type(raw.order), raw.labels, raw.one, type(raw.one),
            tables)


STYLES = ({"separators": (",", ":")}, {}, {"indent": 1})
SITES = {  # the spans of a document that an edit may replace
    "replace": lambda text: [m.span() for m in re.finditer(r"\d+", text)],
    "insert": lambda text: [(i + d, i + d) for i, c in enumerate(text)
                            if c in '[],:{}"' for d in (0, 1)],
    "append": lambda text: [(m.end(), m.end())  # right after a table
                            for m in re.finditer(r"\][ \t\n\r]*\]", text)],
    "key": lambda text: [(m.end(), m.end())
                         for m in re.finditer(r'"(?=\w+"[ \t\n\r]*:)', text)],
}
MUTATIONS = ("01", "-1", "1.0", "1e2", "true", "99999", "400", "301", "0 1", ",,",
             "[ ]", '"add":[[0]],', '\\"', "\\", "\x01", "é", "", " ", "]", "[", "0", "7")


def document(n, seed, keys=None, labels=False, one=None, name="z", style=0,
             ensure_ascii=True) -> str:
    rng = np.random.default_rng(seed)
    doc = {"format": TABLE_FORMAT, "name": name, "order": n,
           "add": rng.integers(0, n, (n, n)).tolist(),
           "mul": rng.integers(0, n, (n, n)).tolist()}
    if labels:
        doc["labels"] = [f"{name}{i}" for i in range(n)]
    if one is not None:
        doc["one"] = one
    keys = keys or list(doc)
    return json.dumps({k: doc[k] for k in keys}, ensure_ascii=ensure_ascii,
                      **STYLES[style])


@st.composite
def documents(draw):
    n = draw(st.integers(1, 16))
    labels, with_one = draw(st.booleans()), draw(st.booleans())
    keys = ["format", "name", "order", "add", "mul"]
    keys += ["labels"] * labels + ["one"] * with_one
    text = document(n, draw(st.integers(0, 2**32 - 1)),
                    keys=draw(st.one_of(st.just(keys), st.permutations(keys))), labels=labels,
                    one=draw(st.integers(0, n)) if with_one else None,
                    name=draw(st.sampled_from(("z", "né", "環", "𝔽"))),
                    style=draw(st.integers(0, len(STYLES) - 1)),
                    ensure_ascii=draw(st.booleans()))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(sorted(SITES) + ["shift"]))
        pairs = list(re.finditer(r"(\d+)[ \t\n\r]*,[ \t\n\r]*(\d+)", text))
        if edit == "shift" and pairs:  # "a, b" -> "a b,": one gap holds two numbers, the next none
            m = draw(st.sampled_from(pairs))
            start, stop, new = m.start(), m.end(), f"{m[1]} {m[2]},"
        else:
            spans = SITES.get(edit, SITES["insert"])(text) or [(len(text), len(text))]
            start, stop = draw(st.sampled_from(spans))
            new = draw(st.sampled_from(MUTATIONS))
        text = text[:start] + new + text[stop:]
    return text.encode("utf-8") if draw(st.booleans()) else text


@given(documents())
@settings(max_examples=1500, deadline=None)
def test_reader_matches_the_json_parser(data):
    assert outcome(parse_table, data) == outcome(reference_parse_table, data)


# ``_BLOCK`` values under which each block is one row (no row closes within a
# single character), one or two rows of a few characters, or a few rows.
SMALL_BLOCKS = (1, 8, 64)


@given(documents(), st.sampled_from(SMALL_BLOCKS))
@settings(max_examples=1500, deadline=None)
def test_reader_matches_the_json_parser_in_small_blocks(data, block):
    with mock.patch.object(core, "_BLOCK", block):
        assert outcome(parse_table, data) == outcome(reference_parse_table, data)


class Pipe(io.BytesIO):
    """A binary file that cannot seek, like a pipe or ``/dev/stdin``."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


# Invalid UTF-8: a stray continuation byte, a lead byte without its
# continuation, a cut 3-byte sequence (at the end, unexpected end of data),
# and an encoded surrogate.
BAD_UTF8 = (b"\x80", b"\xc3", b"\xe6\x97", b"\xed\xa0\x80")


@given(documents(), st.integers(1, 7), st.sampled_from((io.BytesIO, Pipe)),
       st.one_of(st.none(), st.tuples(st.sampled_from(BAD_UTF8), st.floats(0, 1))))
@settings(max_examples=1500, deadline=None)
def test_reader_matches_the_json_parser_through_a_file(data, block, kind, bad):
    # Read a few bytes at a time, every multi-byte character, key and row
    # spans blocks; an error has the same line, column and position.
    raw = data.encode("utf-8") if isinstance(data, str) else data
    if bad:
        at = int(bad[1] * len(raw))
        raw = raw[:at] + bad[0] + raw[at:]
    with mock.patch.object(core, "_BLOCK", block):
        assert outcome(parse_table, kind(raw)) == outcome(reference_parse_table, raw)


def crlf_document(n=6, keys=("format", "name", "order", "add", "mul", "labels", "one")):
    """An indent=1 document with CRLF line ends, a name of one-, two-,
    three- and four-byte characters, and ``labels`` after both tables."""
    text = document(n, 9, keys=list(keys), labels=True, one=1, name="zé環𝔽", style=2,
                    ensure_ascii=False)
    return text.replace("\n", "\r\n")


# Errors after both tables, from the json scanner on a member or a key (the
# error is placed in the whole document) and from json.loads (a document
# that the walk hands over whole).
AFTER_THE_TABLES = {
    "control character in a label": lambda text: text.replace('"zé環𝔽1"', '"zé環\x01𝔽1"'),
    "invalid escape in a key": lambda text: text.replace('"one"', '"o\\qe"'),
    "cut inside labels": lambda text: text[:text.index('"zé環𝔽3"')],
    "bad token for one": lambda text: text.replace('"one": 1', '"one": tru'),
    "text after the object": lambda text: text + " x",
}


@pytest.mark.parametrize("block", range(1, 8))
@pytest.mark.parametrize("edit", AFTER_THE_TABLES.values(), ids=AFTER_THE_TABLES.keys())
def test_errors_after_the_tables_keep_line_and_column(edit, block, monkeypatch):
    text = edit(crlf_document())
    expected = outcome(reference_parse_table, text)
    assert expected[0] is TableFormatError and re.search(r"line \d+ column \d+", expected[1])
    assert int(re.search(r"line (\d+)", expected[1])[1]) > 6 * 2  # past both tables
    monkeypatch.setattr(core, "_BLOCK", block)
    for data in (text, text.encode("utf-8"), io.BytesIO(text.encode("utf-8")),
                 Pipe(text.encode("utf-8"))):
        assert outcome(parse_table, data) == expected


@pytest.mark.parametrize("block", [1, 2, 3, 7, core._BLOCK])
@pytest.mark.parametrize("where", ["name", "labels"], ids=["before the tables", "after the tables"])
@pytest.mark.parametrize("bad", BAD_UTF8)
def test_invalid_utf8_gives_the_whole_documents_error(bad, where, block, monkeypatch):
    raw = crlf_document().encode("utf-8")
    at = raw.index("環".encode("utf-8"), raw.index(b'"labels"') if where == "labels" else 0)
    raw = raw[:at] + bad + raw[at:]
    expected = outcome(reference_parse_table, raw)
    assert expected[0] is UnicodeDecodeError
    monkeypatch.setattr(core, "_BLOCK", block)
    for data in (raw, io.BytesIO(raw), Pipe(raw)):
        assert outcome(parse_table, data) == expected


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("style", range(len(STYLES)))
def test_tables_span_many_blocks(style, block, monkeypatch):
    n = 40
    text = document(n, 3, labels=True, one=5, name="né環", style=style, ensure_ascii=False)
    blocks = []
    decode = core._decode_rows
    monkeypatch.setattr(core, "_decode_rows", lambda raw, opener, n, out: blocks.append(len(out))
                        or decode(raw, opener, n, out))
    monkeypatch.setattr(core, "_BLOCK", block)
    doc = _read_document(*core._open(text))
    for key in ("add", "mul"):
        assert isinstance(doc[key], np.ndarray) and doc[key].tolist() == json.loads(text)[key]
    assert sum(blocks) == 2 * n * n and len(blocks) >= (2 * n if block < 64 else 4)
    assert outcome(parse_table, text) == outcome(reference_parse_table, text)


def truncated_in_mul(text):
    start = text.index('"mul"')
    return text[:start + (len(text) - start) // 2]


@pytest.mark.parametrize("block", [core._BLOCK, 1])
@pytest.mark.parametrize("style", range(len(STYLES)))
@pytest.mark.parametrize("edit", [truncated_in_mul, lambda text: with_entry(text, "1.5")],
                         ids=["truncated inside mul", "1.5 inside add"])
def test_member_errors_need_no_second_parse(edit, style, block, monkeypatch):
    # The error at a table the reader refuses comes from scanning that
    # member alone; json.loads never reads the document again.
    text = edit(document(30, 4, style=style))
    expected = outcome(reference_parse_table, text)
    assert expected[0] is TableFormatError

    def forbidden(*args, **kwargs):
        raise AssertionError("json.loads called")
    monkeypatch.setattr(json, "loads", forbidden)
    monkeypatch.setattr(core, "_BLOCK", block)
    assert outcome(parse_table, text) == expected


@pytest.mark.parametrize("block", [core._BLOCK, 1])
@pytest.mark.parametrize("style", range(len(STYLES)))
def test_a_table_cut_short_decodes_no_block(style, block, monkeypatch):
    # The row ends are located before the first block is decoded, so a
    # table cut inside its rows is refused without decoding any of them.
    text = truncated_in_mul(document(40, 5, style=style))
    calls = []
    monkeypatch.setattr(core, "_decode_rows", lambda raw, opener, n, out: calls.append(len(out)))
    monkeypatch.setattr(core, "_BLOCK", block)
    start = re.search(r'"mul":\s*', text).end()
    assert core._read_table(io.BytesIO(text.encode()), start, 40) is None
    assert calls == []


# The block checks of ``_read_table`` and its ``_block_numbers`` before the
# separator decoder, kept verbatim: ``reference_decode_rows`` is the
# reference of ``core._decode_rows``.
_DIGITS = b"0123456789"


def reference_block_numbers(chars: bytes, out: np.ndarray) -> bool:
    """Decode the numbers of ``chars``, whole rows of table text without
    whitespace whose brackets and commas ``_read_table`` has checked, into
    ``out``, one per entry; False unless each has 1 to ``_MAX_DIGITS``
    digits without a leading zero and sits alone between a row-[ or in-row
    comma and the comma or ] after it.

    The brackets and commas fix the gaps where a number may sit, and there
    are ``len(out)`` of them.  Gaps hold no whitespace, so each holds at
    most one run of digits.  A run in any other gap touches a ] before it
    or a [ after it.  So ``len(out)`` runs, none touching such a bracket,
    fill each gap exactly once."""
    buf = np.frombuffer(_PAD + chars, dtype=np.uint8)
    digit = buf - np.uint8(ord("0"))  # a digit's value; 10 or more for any other byte
    is_digit = digit[len(_PAD):] < 10
    last = np.flatnonzero(is_digit[:-1] > is_digit[1:])  # the last digit of each run
    if len(last) != len(out):
        return False
    before = np.flatnonzero(is_digit[1:] > is_digit[:-1])  # the byte before each run
    width = last - before
    widest = int(width.max())
    text = buf[len(_PAD):]
    if (widest > _MAX_DIGITS or (text[before] == ord("]")).any()
            or (text[1:][last] == ord("[")).any()
            or ((width > 1) & (text[1:][before] == ord("0"))).any()):
        return False
    out[...] = digit[len(_PAD):][last]
    for k in range(1, widest):  # the digit k places left of the last, in runs that have one
        out += (width > k) * digit[len(_PAD) - k:][last] * TABLE_DTYPE(10 ** k)
    return True


def reference_decode_rows(raw: bytes, opener: bytes, n: int, out: np.ndarray) -> bool:
    k = len(out) // n
    row = b"[" + b"," * (n - 1) + b"]"
    if not raw.isascii():
        return False
    chars = raw.translate(None, _SPACES) if any(c in raw for c in _SPACE_BYTES) else raw
    if chars[:1] != opener or chars.translate(None, _DIGITS) != opener + b",".join([row] * k):
        return False
    if len(chars) < len(raw):
        is_digit = np.frombuffer(raw, dtype=np.uint8) - np.uint8(ord("0")) < 10
        if np.count_nonzero(is_digit[1:] > is_digit[:-1]) != k * n:
            return False
    return reference_block_numbers(chars, out)


# A number replaced by none, by itself with a leading zero, or by 5 digits.
NUMBER_EDITS = (lambda m: "", lambda m: "0" + m, lambda m: "1" + m.zfill(4))


@st.composite
def table_texts(draw):
    """An order n and the text of an n x n table in one of the styles, with
    up to three edits: a number replaced, text put next to a bracket or a
    comma (the table's own [ included), or a bracket or comma replaced."""
    n = draw(st.one_of(st.integers(1, 16), st.integers(17, 200)))
    table = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, n, (n, n))
    text = json.dumps(table.tolist(), **STYLES[draw(st.integers(0, len(STYLES) - 1))])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("number", "next to", "separator")))
        if kind == "number":
            spans = [m.span() for m in re.finditer(r"\d+", text)]
        elif kind == "next to":
            c, d = draw(st.sampled_from("[],")), draw(st.sampled_from((0, 1)))
            spans = [(i + d, i + d) for i, ch in enumerate(text) if ch == c]
        else:
            spans = [m.span() for m in re.finditer(r"[\[\],]", text)]
        if not spans:
            continue
        first = st.just(0) if kind == "separator" else st.nothing()  # the table's own [
        start, stop = spans[draw(first | st.integers(0, len(spans) - 1))]
        if kind == "number" and draw(st.booleans()):
            new = draw(st.sampled_from(NUMBER_EDITS))(text[start:stop])
        else:
            new = draw(st.sampled_from(MUTATIONS))
        text = text[:start] + new + text[stop:]
    return n, text.encode("utf-8")


def assert_decoders_agree(n, text):
    """``_read_table`` on ``text``, with each block decoded by
    ``_decode_rows`` and by the reference: the same accept or refuse, and
    the same values."""
    decode = core._decode_rows

    def both(raw, opener, n, out):
        expected = np.full_like(out, -1)
        accepted = decode(raw, opener, n, out)
        assert accepted == reference_decode_rows(raw, opener, n, expected)
        assert not accepted or np.array_equal(out, expected)
        return accepted
    with mock.patch.object(core, "_decode_rows", both):
        result = core._read_table(io.BytesIO(text), 0, n)
    if result is not None:
        assert result[0].tolist() == json.loads(text[:result[1]])


@given(table_texts())
@example((2, b"[[0,01],[1,0]]"))      # a leading zero
@example((2, b"[[0,10001],[1,0]]"))   # five digits
@example((2, b"[[0,1]7,[1,0]]"))      # a digit between ] and ,
@example((2, b",[0,1],[1,0]]"))       # another opener than the table's [
@example((2, b"[[0,1 0],[1,0]]"))     # whitespace inside a number
@example((200, json.dumps([[(7 * i + 13 * j) % 200 for j in range(200)]
                           for i in range(200)]).encode()))  # numbers of 1 to 3 digits
@settings(max_examples=300, deadline=None)
def test_separator_decoder_matches_the_reference(case):
    assert_decoders_agree(*case)


def test_separator_decoder_matches_the_reference_in_one_row_blocks():
    with mock.patch.object(core, "_BLOCK", 1), mock.patch.object(core, "_TEMP_BYTES", 1):
        test_separator_decoder_matches_the_reference()


def with_entry(text, entry):
    """``text`` with its first ``add`` entry replaced by ``entry``."""
    return re.sub(r'("add":\s*\[\s*\[\s*)\d+', lambda m: m[1] + entry, text, count=1)


# Documents that a reader missing one of its checks would get wrong.
KNOWN = {
    "bytes after the closing bracket": '{"format":"%s","name":"z","order":1,"add":[[0]]5,'
                                       '"mul":[[0]]}' % TABLE_FORMAT,
    "entry over 255": with_entry(document(16, 1), "301"),
    "leading zero": with_entry(document(2, 1), "01"),
    "whitespace inside a number": '{"format":"%s","name":"z","order":2,"add":[[0 1,],'
                                  '[1,0]],"mul":[[0,0],[0,0]]}' % TABLE_FORMAT,
    "unterminated key": document(1, 1).replace('"mul"', '"mul\\"'),
    "invalid escape in a key": document(1, 1).replace('"mul"', '"m\\ul"'),
    "control character in a key": document(1, 1).replace('"mul"', '"m\x01ul"'),
    "non-ASCII in a table": document(2, 1).replace("0", "é", 1),
    "duplicate table": document(2, 1).replace("{", '{"add":[[0]],', 1),
    "trailing comma": document(1, 1)[:-1] + ",}",
    "truncated": document(8, 1)[:100],
    # A number in a gap where none may sit, with an empty gap to balance the
    # count: before a row's [, after a row's ], after the table's [.
    "number before a row": document(2, 1).replace('"add":[[', '"add":[[0,1],7[,1]],"x":[[', 1),
    "number after a row": document(2, 1).replace('"add":[[', '"add":[[0,1]7,[,1]],"x":[[', 1),
    "number after the table bracket": document(2, 1).replace('"add":[[', '"add":[7[,1],[1,0]],"x":[[', 1),
}


@pytest.mark.parametrize("text", KNOWN.values(), ids=KNOWN.keys())
def test_known_documents_match_the_json_parser(text):
    assert outcome(parse_table, text) == outcome(reference_parse_table, text)


@pytest.mark.parametrize("style", range(len(STYLES)))
@pytest.mark.parametrize("ensure_ascii", [True, False])
def test_documents_with_order_first_take_the_reader(style, ensure_ascii):
    # Non-ASCII names and labels must not send a document to json.loads.
    text = document(12, 7, labels=True, one=3, name="né環", style=style,
                    ensure_ascii=ensure_ascii)
    doc = _read_document(*core._open(text))
    assert doc is not None and doc == {**json.loads(text), "add": doc["add"], "mul": doc["mul"]}
    for key in ("add", "mul"):
        assert isinstance(doc[key], np.ndarray) and not doc[key].flags.writeable
        assert doc[key].tolist() == json.loads(text)[key]


@pytest.mark.parametrize("block", range(1, 8))
@pytest.mark.parametrize("style", range(len(STYLES)))
def test_documents_in_small_blocks_take_the_reader(style, block, monkeypatch):
    # A number, key or multi-byte character cut at the end of the scanner's
    # window is read again on a longer one, not handed to json.loads.
    for keys in (None, ["format", "one", "order", "name", "labels", "add", "mul"]):
        text = document(12, 7, keys=keys, labels=True, one=11, name="zé環𝔽", style=style,
                        ensure_ascii=False).replace("\n", "\r\n")
        monkeypatch.setattr(core, "_BLOCK", block)
        for data in (text, Pipe(text.encode("utf-8"))):
            doc = _read_document(*core._open(data))
            assert doc is not None
            assert doc == {**json.loads(text), "add": doc["add"], "mul": doc["mul"]}


TABLES_FIRST = {
    "order after the tables": ["format", "name", "add", "mul", "order"],
    "sorted keys": sorted(["format", "name", "order", "add", "mul", "labels", "one"]),
}


@pytest.mark.parametrize("style", range(len(STYLES)))
@pytest.mark.parametrize("keys", TABLES_FIRST.values(), ids=TABLES_FIRST.keys())
def test_documents_with_tables_first_take_the_reader(keys, style):
    # Before order, a table is read as n x n for the n entries of its first
    # row; parse_table compares it with order as it would a list.
    text = document(3, 1, keys=keys, labels="labels" in keys, one=1 if "one" in keys else None,
                    style=style)
    doc = _read_document(*core._open(text))
    assert doc is not None and doc == {**json.loads(text), "add": doc["add"], "mul": doc["mul"]}
    for key in ("add", "mul"):
        assert isinstance(doc[key], np.ndarray) and doc[key].tolist() == json.loads(text)[key]
    for order in (3, 2, 4):
        edited = text.replace('"order": 3', f'"order": {order}').replace('"order":3',
                                                                           f'"order":{order}')
        assert outcome(parse_table, edited) == outcome(reference_parse_table, edited)


@pytest.mark.parametrize("text", [
    '{"format": "nearring-table/1", "name": "x", "add": [[%s]], "mul": [[0]], "order": 1}'
    % ",".join(["0"] * (DEFAULT_ORDER_CAP + 1)),
    '{"format": "nearring-table/1", "name": "x", "add": [[0, 0',
    '{"format": "nearring-table/1", "name": "x", "order": 0, "add": [[0]], "mul": [[0]]}',
    '{"format": "nearring-table/1", "name": "x", "order": 1, "add": %s, "mul": [[0]]}'
    % ("[" * 100_000 + "]" * 100_000),
    '{"format": "nearring-table/1", "name": "x", "order": %s, "add": [[0]], "mul": [[0]]}'
    % ("1" * 5000),
    '{"format": "nearring-table/1", "name": "x", "order": 1, "add": [[%s]], "mul": [[0]]}'
    % ("1" * 5000),
], ids=["first row over the cap before order", "no row end before order", "order 0",
        "deep nesting", "5000-digit order", "5000-digit entry"])
def test_other_documents_fall_back(text):
    assert _read_document(*core._open(text)) is None


@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), data=st.data(),
       row_blocks=st.booleans())
@settings(max_examples=300, deadline=None)
def test_put_first_matches_the_fancy_index(n, seed, data, row_blocks):
    e = data.draw(st.sampled_from(sorted({min(1, n - 1), n - 1})) | st.integers(0, n - 1))
    t = np.random.default_rng(seed).integers(0, n, (n, n))
    old = np.concatenate(([e], np.arange(e), np.arange(e + 1, n)))  # new -> old
    new = np.empty_like(old)                                        # old -> new
    new[old] = np.arange(n)
    expected = new[t[old[:, None], old]]
    with mock.patch.object(core, "_TEMP_BYTES", 1 if row_blocks else core._TEMP_BYTES):
        assert _put_first(t, e) is t  # in place
    assert np.array_equal(t, expected)


def relabelled_zn_document(n: int) -> str:
    """Z_n relabelled so that its identity is not at index 0, as a compact
    document: reading, re-indexing and validation all run."""
    p = np.random.default_rng(2).permutation(n)  # element x of Z_n has index p[x]
    assert p[0] != 0
    x = np.arange(n)
    tables = {}
    for key, op in (("add", np.add), ("mul", np.multiply)):
        tables[key] = np.empty((n, n), dtype=np.int64)
        tables[key][p[:, None], p] = p[op.outer(x, x) % n]
    return json.dumps({"format": TABLE_FORMAT, "name": f"z{n}", "order": n,
                       **{k: t.tolist() for k, t in tables.items()}}, separators=(",", ":"))


def test_loading_stays_within_its_memory_budget(tmp_path):
    for n in (384, 1024):
        path = tmp_path / f"z{n}.json"
        path.write_text(relabelled_zn_document(n))
        tracemalloc.start()
        try:
            ring = load_nearring(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ring.one is not None and ring.is_ring()
        # The two n x n tables at two bytes an entry, re-indexed in place,
        # and 640 KiB for the rest (the reader's and the scans' blocks),
        # whatever the length of the text: a wider dtype, a copy of the
        # tables or the text held, or an n x n bool table per law scan at
        # order 1024, fails.
        assert peak < 2 * n * n * 2 + (5 << 17), n


def test_from_document_leaves_its_input_unchanged():
    raw = parse_table(relabelled_zn_document(12))
    add, mul = raw.add.copy(), raw.mul.copy()
    ring = from_document(raw)
    assert ring.one is not None and ring.is_ring() and not np.array_equal(ring.add, add)
    for t, before in ((raw.add, add), (raw.mul, mul)):
        assert np.array_equal(t, before) and not t.flags.writeable
