import ast
from pathlib import Path

import pytest

from qadb import jsonl
from qadb.errors import CorruptDatabase, ParseError

SRC = Path(__file__).parent.parent / "src" / "qadb"


def test_only_jsonl_module_imports_json():
    offenders = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "jsonl.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(name == "json" or name.startswith("json.") for name in names):
                offenders.append(module.name)
    assert offenders == []


@pytest.mark.parametrize(
    ("text", "problem"),
    [
        ('{"a": 1}\n\n{"a": \n', "line 3: invalid JSON"),
        ('{"a": 1}\n[1]\n', "line 2: record is not an object"),
    ],
)
def test_parse_errors_name_source_and_line(text, problem):
    with pytest.raises(CorruptDatabase, match=f"^db.qadb: {problem}"):
        list(jsonl.parse_lines(text.splitlines(), "db.qadb", CorruptDatabase))


def test_json_booleans_fit_bool_only():
    assert jsonl.fits(True, bool) and jsonl.fits(False, bool)
    assert not jsonl.fits(True, int) and not jsonl.fits(False, (str, int))
    assert not jsonl.fits(1, bool)
    assert not jsonl.fits({"mentions": True}, {"mentions": int})
    assert jsonl.fits([1, 2], [int]) and not jsonl.fits([1, True], [int])


def test_write_replaces_whole_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old contents\n")
    record = {"b": "\u2028é", "a": 1}  # U+2028 is a line break to str.splitlines
    jsonl.write(path, [record, {}])
    assert path.read_text(encoding="utf-8") == '{"a": 1, "b": "\u2028é"}\n{}\n'
    assert [r for _, r in jsonl.read(path)] == [record, {}]
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_text_that_is_not_utf8_raises_the_callers_error(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": "\xff"}\n')
    with pytest.raises(CorruptDatabase, match=f"^{path}: not UTF-8 text"):
        list(jsonl.read(path, CorruptDatabase))
    with pytest.raises(ParseError, match=f"^{path}: not UTF-8 text"):
        jsonl.open_log(path)


@pytest.mark.parametrize("escape", ["\\ud800", "\\udfff x", "\\ude00\\ud83d"])
def test_a_lone_surrogate_escape_raises_the_callers_error(escape):
    # json.loads decodes it to a str that UTF-8 cannot encode, so no write could save it
    lines = ['{"a": 1}', '{"id": "%s", "text": "t"}' % escape]
    with pytest.raises(CorruptDatabase, match=r"^db.qadb: line 2: a lone surrogate escape"):
        list(jsonl.parse_lines(lines, "db.qadb", CorruptDatabase))
    with pytest.raises(ParseError, match=r"^line 1: a lone surrogate"):
        list(jsonl.parse_lines(['{"%s": 1}' % escape]))


def test_an_escaped_surrogate_pair_loads_as_its_character():
    lines = ['{"id": "\\ud83d\\ude00", "text": "C:\\\\users"}']
    assert list(jsonl.parse_lines(lines)) == [(1, {"id": "\U0001f600", "text": "C:\\users"})]


def test_check_returns_what_make_builds_or_the_record_itself():
    shape = {"id": str, "n": int}
    record = {"id": "a", "n": 2, "extra": None}
    assert jsonl.check(record, shape, "in.jsonl", 1) is record
    assert jsonl.check(record, shape, "in.jsonl", 1, make=lambda r: r["n"] + 1) == 3


@pytest.mark.parametrize(("source", "where"), [("db.qadb", "db.qadb: line 4"), ("", "line 4")])
def test_check_names_the_line_for_a_rule_that_make_breaks(source, where):
    def make(record):
        raise ValueError(f"qid {record['qid']} after 9; qids must ascend")

    with pytest.raises(CorruptDatabase, match=f"^{where}: qid 3 after 9; qids must ascend$"):
        jsonl.check({"qid": 3}, {"qid": int}, source, 4, CorruptDatabase, make)
    with pytest.raises(ParseError, match=f"^{where}: qid 3 after 9"):
        jsonl.check({"qid": 3}, {"qid": int}, source, 4, make=make)


@pytest.mark.parametrize(("source", "where"), [("in.jsonl", "in.jsonl: line 2"), ("", "line 2")])
def test_check_names_the_first_bad_field_before_calling_make(source, where):
    def make(record):
        raise AssertionError("make ran on a record of another shape")

    shape = {"id": str, "n": int, "tags": [str]}
    with pytest.raises(ParseError, match=f"^{where}: missing or mistyped field 'n'$"):
        jsonl.check({"id": "a", "n": True, "tags": [1]}, shape, source, 2, make=make)
