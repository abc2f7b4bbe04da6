"""Hostile-input property for the screening files: ``cointegra lq`` on a
copy of the bundled data with one aux file changed (a bad cell, a short
row, a nan or an infinity, a repeated quarter, a quarter outside 1..4,
bytes that may not be UTF-8, a byte-order mark, a quoted cell, CR LF or
lone CR line ends, a trailing comma, or a whitespace-only line) either
succeeds or ends with exit 2 and one ``error: <CointegraError subclass>: …``
line on stderr. It never raises, so it never prints a traceback. Its
outcome equals that of the same run with every file read by ``read_table``,
the reference for the one-pass reader; an edit of the file's format alone
leaves the output as it was."""

import contextlib
import io
import os
import re
import shutil
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointegra import errors, panel
from cointegra.cli import main

DATA_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "data", "sixstate"))
FILES = ("national_total.csv", "state_total_AL.csv", "national_industry_113.csv")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
ERROR_LINE = re.compile(r"error: (\w+): [^\n]*\n")

CELLS = st.one_of(
    st.sampled_from(["", " ", "x", "nan", "-inf", "inf", "1e400", "-1", "0", "2.5", "1_0"]),
    st.integers(-3000, 3000).map(str),
    st.floats().map(repr),
    st.text(max_size=3),
)
ROW = st.integers(0, 71)  # a data row of the 72 in each bundled aux file

MUTATIONS = st.one_of(
    st.tuples(st.just("cell"), ROW, st.integers(0, 2), CELLS),
    st.tuples(st.just("short"), ROW, st.integers(0, 2)),
    st.tuples(st.just("repeat"), ROW),
    st.tuples(st.just("quarter"), ROW, st.integers(-2, 9)),
    st.tuples(st.just("bytes"), st.integers(0, 73), st.binary(min_size=1, max_size=3)),
    st.tuples(st.just("bom")),
    st.tuples(st.just("quote"), ROW, st.integers(0, 2)),
    st.tuples(st.just("line ends"), st.sampled_from([b"\r\n", b"\r"])),
    st.tuples(st.just("trailing comma"), ROW),
    st.tuples(st.just("spaces"), ROW, st.sampled_from([b" ", b"\t"])),
)
# Edits that change how the file is written but not what it holds.
FORMAT_ONLY = ("bom", "quote", "line ends", "trailing comma")


def mutated(original: bytes, mutation) -> bytes:
    kind = mutation[0]
    if kind == "bom":
        return b"\xef\xbb\xbf" + original
    lines = original.split(b"\n")[:-1]  # the header, then one line per data row
    if kind == "line ends":
        return b"".join(line + mutation[1] for line in lines)
    if kind == "bytes":
        lines.insert(mutation[1], mutation[2])
    elif kind == "spaces":
        lines.insert(mutation[1] + 1, mutation[2])
    else:
        at = mutation[1] + 1
        cells = lines[at].split(b",")
        if kind == "cell":
            cells[mutation[2]] = mutation[3].encode()
        elif kind == "short":
            cells = cells[: mutation[2]]
        elif kind == "quarter":
            cells[1] = str(mutation[2]).encode()
        elif kind == "quote":
            cells[mutation[2]] = b'"' + cells[mutation[2]] + b'"'
        elif kind == "trailing comma":
            cells.append(b"")
        if kind == "repeat":
            lines.insert(at, lines[at])
        else:
            lines[at] = b",".join(cells)
    return b"\n".join(lines) + b"\n"


def run_lq(root):
    out, err = io.StringIO(), io.StringIO()
    argv = ["lq", "--config", str(root / "config.json"), "--state", "AL", "--naics", "113"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def data_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("screening") / "sixstate"
    shutil.copytree(DATA_ROOT, root)
    return root


@pytest.fixture(scope="module")
def plain(data_copy):
    code, out, err = run_lq(data_copy)
    assert (code, err) == (0, "")
    return out


@SETTINGS
@given(name=st.sampled_from(FILES), mutation=MUTATIONS)
def test_lq_succeeds_or_names_one_typed_error(name, mutation, data_copy, plain):
    path = data_copy / "aux" / name
    original = path.read_bytes()
    path.write_bytes(mutated(original, mutation))
    try:
        code, out, err = run_lq(data_copy)
        with mock.patch.object(panel, "_one_pass", return_value=None):
            reference = run_lq(data_copy)
    finally:
        path.write_bytes(original)
    assert (code, out, err) == reference
    if code == 0:
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "state,naics,quarter,lq" and len(lines) == 74
        assert lines[-1].startswith("# mean_lq=")
    else:
        assert code == 2 and out == ""
        match = ERROR_LINE.fullmatch(err)
        assert match is not None, err
        assert issubclass(getattr(errors, match[1]), errors.CointegraError)
    if mutation[0] in FORMAT_ONLY:
        assert (code, out) == (0, plain)
    if mutation[0] == "repeat":
        assert err.startswith("error: DuplicateQuarter: ")
    if mutation[0] == "quarter" and code == 0:
        assert out == plain  # the quarter was set to the one it had
