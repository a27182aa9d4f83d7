"""Scheme files: the numpy reader of json.dumps class matrices against the
json route, on random matrices, on random byte edits of their texts and on
named layouts it must leave to the json route; and files whose name is
raw UTF-8, read under an ASCII locale."""

import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from schemeconn import catalog
from schemeconn.catalog import build_family, load_scheme, save_scheme
from schemeconn.errors import SchemeError
from schemeconn.scheme import RelationTable, validate_scheme

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, database=None,
                    derandomize=True)


def json_route(data: bytes):
    """(payload without classes, int64 matrix) as json.loads and
    load_scheme's type checks give them; None where load_scheme refuses
    the document or its classes value before validation."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError:
        return None
    if not isinstance(payload, dict) or "classes" not in payload:
        return None
    classes = payload.pop("classes")
    if not (isinstance(classes, list)
            and all(type(row) is list for row in classes)
            and all(type(x) is int for row in classes for x in row)):
        return None
    try:
        return payload, np.asarray(classes, dtype=np.int64)
    except (ValueError, OverflowError):
        return None


def assert_reader_agrees(data: bytes) -> bool:
    """The reader declines (False) or gives exactly the json route's
    payload and matrix (True): uint8 when every label is below 10, read
    as a strided view of the file, and int64 otherwise."""
    got = catalog._dumped_payload(data)
    if got is None:
        return False
    want = json_route(data)
    assert want is not None, data
    payload, matrix = want
    got = dict(got)
    read = got.pop("classes")
    assert got == payload
    assert read.dtype == (np.uint8 if matrix.max() < 10 else np.int64)
    assert read.shape == matrix.shape
    assert np.array_equal(read, matrix)
    return True


labels = st.one_of(st.integers(0, 9), st.integers(0, 5000),
                   st.integers(10 ** 16, 10 ** 19 - 1))


def matrices_of(labels):
    return st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(labels, min_size=n, max_size=n), min_size=1, max_size=5))


# half of them of one-digit labels only, the strided reader's layout
matrices = st.one_of(matrices_of(labels), matrices_of(st.integers(0, 9)))
names = st.one_of(st.text(max_size=12),
                  st.sampled_from(['"classes": [[0, 1], [1, 0]]',
                                   "K5-\u0394", "]]", "\\"]))


def dumped(name, rows) -> bytes:
    return json.dumps({"name": name, "v": len(rows), "d": 1,
                       "classes": rows}).encode()


def saved(tmp_path, name, rows) -> bytes:
    desc = SimpleNamespace(name=name, v=len(rows), d=1,
                           classes=np.array(rows, dtype=object))
    path = tmp_path / "saved.json"
    save_scheme(desc, path)
    return path.read_bytes()


@SETTINGS
@given(names, matrices)
def test_reader_reads_dumped_matrices(tmp_path_factory, name, rows):
    """Every json.dumps or save_scheme text of a matrix of labels below
    10**18 is read, to the json route's matrix; longer labels decline."""
    short = all(x < 10 ** 18 for row in rows for x in row)
    tmp_path = tmp_path_factory.mktemp("saved")
    for data in (dumped(name, rows), saved(tmp_path, name, rows)):
        assert assert_reader_agrees(data) == short


EDIT_BYTES = b'0123456789 ,[]-.e"\\:tn{}\n'


@settings(SETTINGS, max_examples=2000)
@given(names, matrices, st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]),
              st.floats(0, 1), st.sampled_from(EDIT_BYTES)),
    min_size=1, max_size=3))
def test_reader_on_edited_texts(name, rows, edits):
    """Random byte insertions, deletions and substitutions, four in five
    of them in the matrix: the reader declines or gives exactly
    json.loads' payload and matrix."""
    data = bytearray(dumped(name, rows))
    start = data.index(b"[[")
    for op, where, byte in edits:
        size = len(data) + (op == "insert")
        if where < 0.2:
            at = int(where / 0.2 * start)
        else:
            at = min(int(start + (where - 0.2) / 0.8 * (size - start)),
                     size - 1)
        if op == "insert":
            data[at:at] = bytes([byte])
        elif op == "delete":
            del data[at]
        else:
            data[at] = byte
    assert_reader_agrees(bytes(data))


K2 = '"name": "k2", "v": 2, "d": 1'
DECLINED = {
    "leading-zero": '{%s, "classes": [[0, 01], [01, 0]]}' % K2,
    "19-digits": '{%s, "classes": [[0, %d], [%d, 0]]}' % (K2, 2 ** 62,
                                                          2 ** 62),
    "negative": '{%s, "classes": [[0, -1], [-1, 0]]}' % K2,
    "true": '{%s, "classes": [[0, true], [true, 0]]}' % K2,
    "float": '{%s, "classes": [[0, 1.0], [1, 0]]}' % K2,
    # a digit run moved out of its gap, past a row's "]"
    "run-after-bracket": '{%s, "classes": [[0, ]1, [1, 0]]}' % K2,
    "run-before-bracket": '{%s, "classes": [[0, 1], 1[, 0]]}' % K2,
    "run-after-comma": '{%s, "classes": [[0,1 ], [1, 0]]}' % K2,
    "extra-space": '{%s, "classes": [[0, 1],  [1, 0]]}' % K2,
    "compact": '{%s, "classes":[[0,1],[1,0]]}' % K2,
    "empty-row": '{%s, "classes": [[0, 1], []]}' % K2,
    "empty-rows": '{%s, "classes": [[], []]}' % K2,
    "duplicate-key": '{%s, "classes": [[0, 1], [1, 0]], '
                     '"classes": [[0, 2], [2, 0]]}' % K2,
    "duplicate-before": '{"classes": 7, %s, "classes": [[0, 1], [1, 0]]}' % K2,
    "in-name": '{"name": "\\"classes": [[0, 1], [1, 0]]", "v": 2, "d": 1}',
    "in-key": '{"\\"classes": [[0, 1], [1, 0]], %s, '
              '"cl\\u0061sses": NaN}' % K2,
    "in-key-escaped-value": '{"\\"classes": [[0, 1], [1, 0]], %s, '
                            '"cl\\u0061sses": 0}' % K2,
    "nested": '{%s, "meta": {"classes": [[0, 1], [1, 0]]}}' % K2,
    "nan-elsewhere": '{"name": "k2", "v": NaN, "d": 1, '
                     '"classes": [[0, 1], [1, 0]]}',
    # the reader takes the text from the first '"classes": [[' to the last
    # "]]" of the file, and counts '"classes"' outside that text only
    "later-key-holding-brackets": '{%s, "classes": [[0, 1], [1, 0]], '
                                  '"note": "]]"}' % K2,
    "later-nested-list": '{%s, "classes": [[0, 1], [1, 0]], '
                         '"extra": [[1, 2]]}' % K2,
    "classes-as-name": '{"name": "classes", "v": 2, "d": 1, '
                       '"classes": [[0, 1], [1, 0]]}',
    "duplicate-key-refused": '{%s, "classes": [[0, 1], [1, 0]], '
                             '"classes": [[0, 1], [1, 1]]}' % K2,
    "brackets-only-before-key": '{"name": "]]", "v": 2, "d": 1, '
                                '"classes": [[0, 1], [1, 0] ]}',
    "brackets-only-before-key-truncated": '{"name": "]]", "v": 2, "d": 1, '
                                          '"classes": [[0, 1], [1, 0]',
    "no-closing-brackets": '{%s, "classes": [[0, 1], [1, 0]' % K2,
    "key-first-no-brackets": '"classes": [[0, 1], [1, 0]',
}


def outcome(path):
    try:
        s = load_scheme(path)
    except SchemeError as exc:
        return type(exc).__name__, str(exc)
    return s.name, s.v, s.d, s.p.tobytes()


@pytest.mark.parametrize("text", DECLINED.values(), ids=DECLINED.keys())
def test_other_layouts_take_the_json_route(tmp_path, monkeypatch, text):
    """The reader declines each of these, and load_scheme then gives what
    the json route alone gives, message for message."""
    path = tmp_path / "k2.json"
    path.write_text(text, encoding="utf-8")
    assert catalog._dumped_payload(path.read_bytes()) is None
    got = outcome(path)
    monkeypatch.setattr(catalog, "_dumped_payload", lambda data: None)
    assert got == outcome(path)


# one-digit texts at the edges of the strided reader's layout, and whether
# the numpy reader takes each (the rest go to the json route)
ONE_DIGIT = {
    "one-label": ("[[0]]", True),
    "one-row": ("[[0, 1, 2, 3]]", True),
    "one-column": ("[[0], [1], [2]]", True),
    "ten-in-a-later-row": ("[[0, 1, 2], [10, 0, 2], [2, 1, 0]]", True),
    # five two-digit labels lengthen the text by one row of one-digit ones
    "ten-to-fourteen": ("[[0], [10], [11], [12], [13], [14]]", True),
    "comma-before-space": ("[[0 ,1], [1, 0]]", False),
    "non-square": ("[[0, 1, 2], [1, 0, 2]]", True),
}


@pytest.mark.parametrize("text, read", ONE_DIGIT.values(),
                         ids=ONE_DIGIT.keys())
def test_one_digit_edges(tmp_path, monkeypatch, text, read):
    """The reader reads or declines each of these as listed, reads the
    json route's matrix, and load_scheme then gives what the json route
    alone gives, message for message."""
    path = tmp_path / "edge.json"
    path.write_text('{"name": "edge", "v": 1, "d": 0, "classes": %s}' % text,
                    encoding="utf-8")
    assert assert_reader_agrees(path.read_bytes()) == read
    got = outcome(path)
    monkeypatch.setattr(catalog, "_dumped_payload", lambda data: None)
    assert got == outcome(path)


def test_one_digit_text_with_a_byte_replaced():
    """Each one-byte replacement in a one-digit matrix text, read on its
    own: the reader declines it or reads what json.loads reads."""
    text = b"[[0, 1, 2], [1, 0, 2], [2, 2, 0]]"
    for at in range(len(text)):
        for byte in EDIT_BYTES:
            edited = text[:at] + bytes([byte]) + text[at + 1:]
            read = catalog._dumped_matrix(edited, 0, len(edited))
            if read is not None:
                assert read.tolist() == json.loads(edited), edited


def traced_peak(call) -> int:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_peak_memory(tmp_path):
    """The reader of a saved J(16,3) (one-digit labels) allocates less
    than twice the file's size, and validating the table it gives
    allocates no more than validating one built from an int64 matrix
    (3.89 MiB)."""
    s = build_family("johnson", (16, 3))
    path = tmp_path / "j.json"
    save_scheme(s, path)
    data = path.read_bytes()
    assert traced_peak(lambda: catalog._dumped_payload(data)) < 2 * len(data)
    read = RelationTable.from_classes(catalog._dumped_payload(data)["classes"])
    wide = RelationTable.from_classes(np.asarray(s.classes, dtype=np.int64))
    assert (traced_peak(lambda: validate_scheme(read))
            <= traced_peak(lambda: validate_scheme(wide)))


def test_escaped_name_holding_a_matrix(tmp_path):
    """json.dumps escapes the quotes of a name that spells a classes
    field, so the reader finds the real one."""
    path = tmp_path / "k2.json"
    rows = [[0, 1], [1, 0]]
    path.write_bytes(dumped('"classes": [[0, 2], [2, 0]]', rows))
    assert assert_reader_agrees(path.read_bytes())
    assert load_scheme(path).p.tolist() == [
        [[1, 0], [0, 1]], [[0, 1], [1, 0]]]


def test_verify_raw_utf8_name_under_ascii_locale(tmp_path):
    """JSON is UTF-8: a raw UTF-8 name loads under the C locale, and verify
    escapes what the ASCII stdout cannot print."""
    path = tmp_path / "k5.json"
    classes = (1 - np.eye(5, dtype=int)).tolist()
    path.write_text(json.dumps({"name": "K5-\u0394", "v": 5, "d": 1,
                                "classes": classes}, ensure_ascii=False),
                    encoding="utf-8")
    assert b"\xce\x94" in path.read_bytes()
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    env = {k: x for k, x in os.environ.items()
           if not k.startswith(("LC_", "PYTHONIOENCODING"))}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "schemeconn.cli", "verify", str(path)],
        capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert b"Traceback" not in done.stderr
    assert done.stdout.startswith(b"K5-\\u0394: valid symmetric scheme")

