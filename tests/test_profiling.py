import pytest

import qakge.profiling
from qakge.contexts import AttributeType
from qakge.errors import InputError
from qakge.profiling import infer_attribute_type, profile_dataset


def test_numeric_inference():
    assert infer_attribute_type(["1", "2.5", "-3", "1e4"]) is AttributeType.NUMERIC
    # 19 numerics + 1 text = 95% exactly, still numeric
    assert infer_attribute_type(["7"] * 19 + ["x"]) is AttributeType.NUMERIC
    # 18/19 < 95%
    assert infer_attribute_type(["7"] * 18 + ["x"]) is AttributeType.TEXT


def test_date_inference():
    assert infer_attribute_type(["2024-01-02", "1999-12-31"]) is AttributeType.DATE
    assert infer_attribute_type(["2024-01-02T10:30:00"]) is AttributeType.DATE
    assert infer_attribute_type(["31/12/2024", "12/31/2024"]) is AttributeType.DATE
    assert infer_attribute_type(["2024/01/04"]) is AttributeType.DATE
    assert infer_attribute_type(["2024-13-45"]) is AttributeType.TEXT  # not a real date
    assert infer_attribute_type(["45/45/2024"]) is AttributeType.TEXT
    # numeric wins over date when both could apply? dates aren't numbers, so no overlap
    assert infer_attribute_type(["20240102"]) is AttributeType.NUMERIC


def test_empty_or_text_columns():
    assert infer_attribute_type([]) is AttributeType.TEXT
    assert infer_attribute_type(["", "", ""]) is AttributeType.TEXT
    assert infer_attribute_type(["apple", "pear"]) is AttributeType.TEXT


def test_overlay_parsing(tmp_path):
    p = _write(tmp_path, "a\n1\n")
    ctx = profile_dataset(p, {"context_id": "c", "domain": "iot"})
    assert ctx.domain == "iot" and ctx.data_source == ""
    with pytest.raises(InputError, match="context_id"):
        profile_dataset(p, {"domain": "iot"})
    with pytest.raises(InputError, match="mystery"):
        profile_dataset(p, {"context_id": "c", "mystery": 1})
    with pytest.raises(InputError):
        profile_dataset(p, {"context_id": ""})


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_profile_basic(tmp_path):
    p = _write(tmp_path, "id,dose,when\n1,3.2,2024-01-02\n2,4.5,2024-01-03\n3,,2024/01/04\n")
    ctx = profile_dataset(p, {"context_id": "survey"})
    assert ctx.context_id == "survey"
    assert ctx.data_type == "structured"
    assert ctx.size_bucket == "tiny"  # 3 rows
    assert ctx.file_format == "csv"
    by_name = {a.name: a.type for a in ctx.attributes}
    assert by_name == {
        "id": AttributeType.NUMERIC,
        "dose": AttributeType.NUMERIC,
        "when": AttributeType.DATE,
    }
    # column order preserved
    assert [a.name for a in ctx.attributes] == ["id", "dose", "when"]


def test_profile_overlay_overrides(tmp_path):
    p = _write(tmp_path, "a,b\n1,x\n")
    ov = {"context_id": "c", "domain": "healthcare", "size_bucket": "large",
          "security_level": "confidential"}
    ctx = profile_dataset(p, ov)
    assert ctx.domain == "healthcare"
    assert ctx.size_bucket == "large"  # overlay beats the row count
    assert ctx.security_level == "confidential"


def test_profile_delimiter_and_suffix(tmp_path):
    p = _write(tmp_path, "a\tb\n1\t2\n", name="dump.tsv")
    ctx = profile_dataset(p, {"context_id": "c"}, delimiter="\t")
    assert [a.name for a in ctx.attributes] == ["a", "b"]
    assert ctx.file_format == "tsv"


def test_profile_errors(tmp_path):
    with pytest.raises(InputError):
        profile_dataset(tmp_path / "nope.csv", {"context_id": "c"})
    ragged = _write(tmp_path, "a,b\n1,2\n3\n", name="ragged.csv")
    with pytest.raises(InputError, match="ragged"):
        profile_dataset(ragged, {"context_id": "c"})
    dup = _write(tmp_path, "a,a\n1,2\n", name="dup.csv")
    with pytest.raises(InputError, match="duplicate"):
        profile_dataset(dup, {"context_id": "c"})
    empty_name = _write(tmp_path, "a,\n1,2\n", name="anon.csv")
    with pytest.raises(InputError, match="empty"):
        profile_dataset(empty_name, {"context_id": "c"})


def test_digit_separators_are_not_numbers():
    # float("2024_01") is 202401.0
    assert infer_attribute_type(["2024_01", "2024_02"]) is AttributeType.TEXT
    assert infer_attribute_type(["1_000"] * 2 + ["7"] * 18) is AttributeType.TEXT  # 18/20
    assert infer_attribute_type(["1_000"] + ["7"] * 19) is AttributeType.NUMERIC  # 19/20


def test_profile_reads_a_byte_order_mark(tmp_path):
    p = tmp_path / "excel.csv"
    p.write_bytes(b"\xef\xbb\xbftemperature,site\n21.5,lab\n")
    ctx = profile_dataset(p, {"context_id": "c"})
    assert [(a.name, a.type) for a in ctx.attributes] == [
        ("temperature", AttributeType.NUMERIC), ("site", AttributeType.TEXT)]


def test_profile_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"site\ncaf\xe9\n")
    with pytest.raises(InputError, match=r"latin\.csv: not UTF-8"):
        profile_dataset(p, {"context_id": "c"})


def test_profile_sample_cap_bounds_inference(tmp_path, monkeypatch):
    # first 10 values numeric, a text value arrives after the cap
    rows = "\n".join([str(i) for i in range(10)] + ["not_a_number"])
    p = _write(tmp_path, "col\n" + rows + "\n")
    uncapped = profile_dataset(p, {"context_id": "c"})
    assert uncapped.attributes[0].type is AttributeType.TEXT  # 10/11 < 95%
    monkeypatch.setattr(qakge.profiling, "SAMPLE_CAP", 10)
    capped = profile_dataset(p, {"context_id": "c"})
    assert capped.attributes[0].type is AttributeType.NUMERIC
    # row count stays exact either way
    assert capped.size_bucket == "tiny"


@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_profile_rejects_a_delimiter_that_is_not_one_character(tmp_path, delimiter):
    p = _write(tmp_path, "a;b\n1;2\n")
    with pytest.raises(InputError, match="delimiter must be one character"):
        profile_dataset(p, {"context_id": "c"}, delimiter=delimiter)
