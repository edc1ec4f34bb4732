"""The four CSV readers on arbitrary text: each returns or raises a
ValueError that names the file, and never anything else."""

import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lricnet import read_attributes_csv, read_edges_csv
from lricnet.cli import _read_quota_csv, _read_ranking_csv

READERS = {
    "edges": read_edges_csv,
    "attributes": read_attributes_csv,
    "quota": _read_quota_csv,
    "scores": _read_ranking_csv,
}
HEADERS = ["from,to,weight", "node,gdp", "node,gdp,pop", "node,q", "node,score,rank", "node"]
CELLS = ["a", "b", "1", "0", "-2.5", "1e308", "1e309", "nan", "-inf", "", " ", '"', '"a,b"']


def _csv_like():
    row = st.lists(st.sampled_from(CELLS), max_size=4).map(",".join)
    return st.builds(
        lambda header, rows, end: "\n".join([header, *rows]) + end,
        st.sampled_from(HEADERS),
        st.lists(st.one_of(row, st.text(max_size=8)), max_size=6),
        st.sampled_from(["", "\n", "\r\n"]),
    )


@pytest.mark.parametrize("name", sorted(READERS))
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=st.one_of(st.text(), _csv_like()))
def test_reader_returns_or_names_the_file(tmp_path, name, text):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        result = READERS[name](str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        return
    if name == "edges":
        assert all(math.isfinite(w) for _, _, w in result)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_rejects_text_that_is_not_utf8(tmp_path, name):
    path = tmp_path / "in.csv"
    path.write_bytes(b"node,q\n\xff\xfe,1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
        READERS[name](str(path))
