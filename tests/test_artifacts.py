import csv
import io

import pytest

from ridesim.artifacts import (csv_lines, read_csv_artifact,
                               write_csv_artifact, write_lines_atomic)

ROWS = [["plain", "1.500000", ""],
        ["a,b", 'say "hi"', "two\nlines"],
        ["", "", ""],
        ["Zürich", "東京", "naïve, \"quoted\"\nand broken"],
        ["trailing space ", " leading", "'single'"]]


def buffered_csv_lines(columns, rows) -> list:
    """The writer as it was before it streamed: the whole table as one
    text, cut into lines."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().splitlines()


def test_streamed_writer_matches_the_buffered_one(tmp_path):
    columns = ["name", "value", "note"]
    streamed, buffered = tmp_path / "streamed.csv", tmp_path / "buffered.csv"
    write_lines_atomic(streamed, csv_lines(columns, iter(ROWS)))
    write_lines_atomic(buffered, buffered_csv_lines(columns, ROWS))
    assert streamed.read_bytes() == buffered.read_bytes()


def test_each_line_is_handed_out_before_the_next_rows_are_read():
    consumed = 0

    def rows():
        nonlocal consumed
        for row in ROWS:
            consumed += 1
            yield row

    lines = csv_lines(["name", "value", "note"], rows())
    assert next(lines) == "name,value,note"
    assert consumed <= 1
    for handed_out, _ in enumerate(lines, start=1):
        assert consumed <= handed_out + 1
    assert consumed == len(ROWS)


def test_an_over_long_field_names_the_file_and_the_data_row(tmp_path):
    path = tmp_path / "big.csv"
    write_csv_artifact(path, ["key", "value"],
                       [["a", "1"], ["b", "x" * 200_000]], "0.1", "abc", 3)
    with pytest.raises(ValueError) as caught:
        read_csv_artifact(path)
    assert str(caught.value).startswith(f"{path} data row 2: field larger "
                                        "than field limit")


def test_quoted_line_breaks_survive_a_round_trip(tmp_path):
    """Fields holding line breaks, blank lines and lines that look like
    comments read back as written."""
    path = tmp_path / "table.csv"
    rows = ROWS + [["a\n\nb", "\n# not a comment\n", "#\n\n#"]]
    write_csv_artifact(path, ["name", "value", "note"], rows, "0.1", "abc", 3)
    assert read_csv_artifact(path) == (["name", "value", "note"], rows)
