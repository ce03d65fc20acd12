"""Dataset fetching: download, checksum, conversion, and caching."""

import hashlib
import io

import pytest

from treeuq import fetch, load_csv
from treeuq.fetch import KNOWN_DATASETS, DatasetSource, FetchError, fetch_dataset


RAW = "5.1,3.5,1.4,pos\n4.9,3.0,1.3,neg\n4.7,3.2,1.1,pos\n"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TREEUQ_CACHE", str(tmp_path / "cache"))
    return tmp_path


def register(monkeypatch, tmp_path, name, raw=RAW, **source_kwargs):
    raw_path = tmp_path / f"{name}.raw"
    raw_path.write_text(raw, encoding="utf-8")
    kwargs = dict(urls=(raw_path.as_uri(),), label_column=-1)
    kwargs.update(source_kwargs)
    monkeypatch.setitem(KNOWN_DATASETS, name, DatasetSource(**kwargs))
    return raw_path


class TestFetchDataset:
    def test_download_convert_and_load(self, tmp_path, monkeypatch):
        register(monkeypatch, tmp_path, "toy")
        path = fetch_dataset("toy")
        data = load_csv(path, "class")
        assert (data.n, data.m, data.num_classes) == (3, 3, 2)
        assert data.labels.tolist() == [0, 1, 0]

    def test_second_call_served_from_cache(self, tmp_path, monkeypatch):
        raw_path = register(monkeypatch, tmp_path, "toy")
        first = fetch_dataset("toy")
        raw_path.unlink()  # network source gone; the cache must answer
        assert fetch_dataset("toy") == first
        assert first.exists()

    def test_checksum_accepted(self, tmp_path, monkeypatch):
        register(monkeypatch, tmp_path, "toy")
        digest = hashlib.sha256(RAW.encode()).hexdigest()
        path = fetch_dataset("toy", checksum=digest)
        assert path.exists()

    def test_checksum_mismatch_keeps_nothing(self, tmp_path, monkeypatch):
        register(monkeypatch, tmp_path, "toy")
        with pytest.raises(FetchError, match="checksum mismatch"):
            fetch_dataset("toy", checksum="0" * 64)
        assert not (tmp_path / "cache" / "toy.csv").exists()

    def test_unknown_id_lists_known_ids(self):
        with pytest.raises(FetchError, match="ionosphere"):
            fetch_dataset("nonexistent-dataset")

    def test_explicit_destination(self, tmp_path, monkeypatch):
        register(monkeypatch, tmp_path, "toy")
        dest = tmp_path / "out" / "converted.csv"
        assert fetch_dataset("toy", dest=dest) == dest
        assert dest.exists()

    def test_url_override(self, tmp_path, monkeypatch):
        register(monkeypatch, tmp_path, "toy")
        other = tmp_path / "other.raw"
        other.write_text("1,2,3,a\n4,5,6,b\n", encoding="utf-8")
        path = fetch_dataset("toy", url=other.as_uri(), dest=tmp_path / "o.csv")
        data = load_csv(path, "class")
        assert data.n == 2

        # the override replaces only the URL: the entry's conversion settings stay
        register(
            monkeypatch,
            tmp_path,
            "custom",
            raw="junk\n",
            delimiter=";",
            drop_columns=(0,),
            value_map={"y": "1", "n": "0"},
        )
        custom = tmp_path / "custom-other.raw"
        custom.write_text("id1;y;n;pos\nid2;n;y;neg\n", encoding="utf-8")
        data = load_csv(fetch_dataset("custom", url=custom.as_uri()), "class")
        assert data.features.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert data.labels.tolist() == [0, 1]


class TestConverter:
    def test_drop_missing_rows(self, tmp_path, monkeypatch):
        raw = "1,2,pos\n3,?,neg\n5,6,pos\n7,8,neg\n"
        register(monkeypatch, tmp_path, "missing", raw=raw, drop_missing=True)
        data = load_csv(fetch_dataset("missing"), "class")
        assert data.n == 3

    def test_value_map(self, tmp_path, monkeypatch):
        raw = "yes,y,n,?\nno,n,y,y\n"
        register(
            monkeypatch,
            tmp_path,
            "mapped",
            raw=raw,
            label_column=0,
            value_map={"y": "1", "n": "0", "?": "0.5"},
        )
        data = load_csv(fetch_dataset("mapped"), "class")
        assert data.features.tolist() == [[1.0, 0.0, 0.5], [0.0, 1.0, 1.0]]

    def test_label_first_column_and_dropped_id(self, tmp_path, monkeypatch):
        raw = "id1,pos,1,2\nid2,neg,3,4\n"
        register(monkeypatch, tmp_path, "withid", raw=raw, label_column=1, drop_columns=(0,))
        data = load_csv(fetch_dataset("withid"), "class")
        assert data.m == 2
        assert data.labels.tolist() == [0, 1]

    def test_skip_header_rows(self, tmp_path, monkeypatch):
        raw = "junk header\nmore junk\n1,2,a\n3,4,b\n"
        register(monkeypatch, tmp_path, "headed", raw=raw, skip_rows=2)
        data = load_csv(fetch_dataset("headed"), "class")
        assert data.n == 2

    def test_registry_covers_the_benchmark_suite(self):
        expected = {"ionosphere", "wisconsin", "image", "votes", "sonar", "vehicle", "pima"}
        assert expected <= set(KNOWN_DATASETS)


@pytest.mark.parametrize(
    "raw, source_kwargs, match",
    [
        (None, {}, "failed to download file:.*: connection refused"),
        ("a,b,c\n", {"skip_rows": 1}, "toy: no data rows after skipping 1 header rows"),
        ("1,2,pos\n3,neg\n", {}, "toy: ragged raw row with 2 cells, expected 3"),
        ("1,?,pos\n?,2,neg\n", {"drop_missing": True}, "toy: every raw row was dropped during conversion"),
    ],
    ids=["download-error", "no-rows-after-skip", "ragged-row", "every-row-dropped"],
)
def test_fetch_failures_name_the_problem(tmp_path, monkeypatch, raw, source_kwargs, match):
    # urlopen serves raw, or fails as a download does when raw is None; a
    # local URI keeps the test off the network even if the patch missed
    def urlopen(url):
        if raw is None:
            raise OSError("connection refused")
        return io.BytesIO(raw.encode())

    monkeypatch.setattr(fetch.urllib.request, "urlopen", urlopen)
    url = (tmp_path / "toy.data").as_uri()
    monkeypatch.setitem(KNOWN_DATASETS, "toy", DatasetSource(urls=(url,), label_column=-1, **source_kwargs))
    with pytest.raises(FetchError, match=match):
        fetch_dataset("toy")
    assert not (tmp_path / "cache" / "toy.csv").exists()
