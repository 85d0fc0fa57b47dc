"""One numeric-CSV rule for every file fcnets reads: time series, connection
matrices and node coordinates.

Each case is one file, read through every entry point. An accepted file
gives the same array everywhere (a header row is the time series' node
labels and is ignored elsewhere); a rejected file is an error that names the
file and the offending value.
"""

import json

import numpy as np
import pytest

from fcnets import groupcompare
from fcnets.cli import main
from fcnets.estimators import ConnectionMatrix, load_connection_matrix
from fcnets.panels import load_manifest, load_timeseries

# symmetric with a zero diagonal, so it is also a valid connection matrix
# and, read as 3 nodes x 3 coordinates, a valid set of node positions
M = np.array([[0.0, 0.5, -0.25], [0.5, 0.0, 0.125], [-0.25, 0.125, 0.0]])
ROWS = "0,0.5,-0.25\n0.5,0,0.125\n-0.25,0.125,0\n"
LABELS = ["a", "b", "c"]

ACCEPTED = {
    "plain": (ROWS, None),
    "header": ("a,b,c\n" + ROWS, LABELS),
    "quoted": (
        '"a","b","c"\n"0","0.5","-0.25"\n"0.5","0","0.125"\n"-0.25","0.125","0"\n',
        LABELS,
    ),
    "crlf": (("a,b,c\n" + ROWS).replace("\n", "\r\n"), LABELS),
    "comments": (
        "# exported by hand\na,b,c\n0,0.5,-0.25\n# a note\n0.5,0,0.125 # trailing\n-0.25,0.125,0\n",
        LABELS,
    ),
    "blank_line_before_header": ("\n \na,b,c\n" + ROWS, LABELS),
    "whitespace_and_comma_lines": (
        "a,b,c\n \t \n0,0.5,-0.25\n,,\n0.5,0,0.125\n , ,\n-0.25,0.125,0\n\n",
        LABELS,
    ),
    "padded_cells": (" 0 , 0.5 ,-0.25\n0.5,\t0,0.125\n-0.25,0.125,0 \n", None),
}
REJECTED = {  # text, a piece of the message naming the offending value
    "ragged": ("0,0.5,-0.25\n0.5,0\n-0.25,0.125,0\n", "from 3 to 2"),
    "non_numeric": ("0,0.5,-0.25\n0.5,x,0.125\n-0.25,0.125,0\n", "'x'"),
    "underscore_numeral": ("0,0.5,-0.25\n0.5,1_0,0.125\n-0.25,0.125,0\n", "'1_0'"),
    "header_only": ("a,b,c\n", "no data rows"),
    "empty": ("", "no data rows"),
    "comments_only": ("# nothing here\n,,\n", "no data rows"),
}
CASES = sorted(ACCEPTED) + sorted(REJECTED)


def _write(tmp_path, case):
    path = tmp_path / f"{case}.csv"
    text = ACCEPTED[case][0] if case in ACCEPTED else REJECTED[case][0]
    path.write_bytes(text.encode())
    return path


def _read_timeseries(path):
    """A file read alone and through a manifest: the same series or the same error."""
    manifest = path.parent / "manifest.json"
    manifest.write_text(json.dumps({"subject_files": [path.name], "layout": "rows-are-time"}))
    try:
        series = load_manifest(manifest).subjects[0]
    except ValueError as exc:
        with pytest.raises(ValueError) as alone:
            load_timeseries(path)
        assert str(alone.value) == str(exc)
        raise
    panel = load_timeseries(path)
    np.testing.assert_array_equal(panel.subjects[0], series)
    return series.T, panel.node_labels


def _read_matrix(path):
    return load_connection_matrix(path).values, None


def _read_coordinates(path, monkeypatch, capsys):
    """Coordinates as `fcnets compare --method spc` reads them, or the CLI's error."""
    seen = []
    real = groupcompare.adjacency_from_coordinates
    monkeypatch.setattr(
        groupcompare, "adjacency_from_coordinates", lambda c, **kw: seen.append(c) or real(c, **kw)
    )
    groups = []
    for k in range(4):
        cm = path.parent / f"group_{k}.csv"
        ConnectionMatrix(M * (1 + 0.1 * k), "correlation").save(cm)
        groups.append(str(cm))
    argv = ["compare", "--method", "spc", "--t-threshold", "2", "--coordinates", str(path),
            "--permutations", "100", "--group-a", *groups[:2], "--group-b", *groups[2:]]
    code = main(argv)
    err = capsys.readouterr().err
    if code != 0:
        assert code == 1
        raise ValueError(json.loads(err)["message"])
    return seen[0], None


@pytest.mark.parametrize("entry", ["timeseries", "matrix", "coordinates"])
@pytest.mark.parametrize("case", CASES)
def test_every_reader_follows_one_csv_rule(case, entry, tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, case)
    read = {
        "timeseries": _read_timeseries,
        "matrix": _read_matrix,
        "coordinates": lambda p: _read_coordinates(p, monkeypatch, capsys),
    }[entry]
    if case in ACCEPTED:
        values, header = read(path)
        np.testing.assert_array_equal(values, M)
        assert header == (ACCEPTED[case][1] if entry == "timeseries" else None)
    else:
        with pytest.raises(ValueError) as exc:
            read(path)
        assert str(path) in str(exc.value)
        assert REJECTED[case][1] in str(exc.value)
