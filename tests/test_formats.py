"""File formats: saved image headers carry exactly their declared fields, and
every loader either parses its input or raises a DramCamError."""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dramcam import (DeviceConfig, Mode, WordDb, encode_word, ingest,
                     load_kmer_db, load_word_db, parse_config_text, parse_trace,
                     save_kmer_db, save_word_db)
from dramcam.cam import WordHeader, read_image
from dramcam.errors import DramCamError
from dramcam.genomics import KmerHeader

DEV = DeviceConfig(rows_per_subarray=64, cols_per_subarray=64)


def _saved(save, db) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "db.img"
        save(path, db)
        return path.read_bytes()


WORD_IMAGE = _saved(save_word_db, WordDb(
    5, Mode.NAND, [encode_word(w, Mode.NAND) for w in ("01X10", "11100", "00001")]))
KMER_IMAGE = _saved(save_kmer_db, ingest(
    [("a", "ACGTTGCAAC"), ("b", "GGGCCCATAT"), ("c", "TTTT")], 4, DEV))


def _header(image: bytes) -> dict:
    return json.loads(image.split(b"\n", 2)[1])


@pytest.mark.parametrize("image,header_type", [(WORD_IMAGE, WordHeader),
                                               (KMER_IMAGE, KmerHeader)])
def test_saved_header_keys_are_the_declared_fields(image, header_type):
    declared = {f.name for f in dataclasses.fields(header_type)}
    assert set(_header(image)) == declared | {"kind"}
    assert _header(image)["kind"] == header_type.kind


# -- loaders either parse or fault -------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 200) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_images(draw):
    """A valid image with one header field, group field or payload edited."""
    image = draw(st.sampled_from([WORD_IMAGE, KMER_IMAGE]))
    magic, line, payload = image.split(b"\n", 2)
    header = json.loads(line)
    target = header
    if "groups" in header and draw(st.booleans()):
        target = draw(st.sampled_from(header["groups"]))
    key = draw(st.sampled_from(sorted(target)))
    edit = draw(st.sampled_from(["value", "drop", "nudge", "payload"]))
    if edit == "value":
        target[key] = draw(json_values)
    elif edit == "drop":
        del target[key]
    elif edit == "nudge" and type(target[key]) is int:
        target[key] += draw(st.integers(-2, 2))
    elif edit == "payload":
        cut = draw(st.integers(0, len(payload)))
        payload = payload[:cut] + draw(st.binary(max_size=8))
    return magic + b"\n" + json.dumps(header).encode() + b"\n" + payload


def run_every_loader(path: Path, data: bytes) -> None:
    """Any exception other than a DramCamError fails the calling test."""
    path.write_bytes(data)
    for load in (read_image, lambda p: read_image(p, WordHeader),
                 lambda p: read_image(p, KmerHeader), load_word_db,
                 lambda p: load_kmer_db(p, DEV)):
        try:
            load(path)
        except DramCamError:
            pass


@pytest.fixture(scope="module")
def image_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "db.img"


@given(st.binary(max_size=64) | st.binary(max_size=32).map(
    lambda b: b"DCDB1\n" + b))
@settings(max_examples=150, deadline=None)
def test_random_bytes_load_or_fault(image_path, data):
    run_every_loader(image_path, data)


@given(mutated_images())
@settings(max_examples=300, deadline=None)
def test_mutated_images_load_or_fault(image_path, data):
    run_every_loader(image_path, data)


config_lines = st.lists(
    st.sampled_from(["chips", "t_rp", "clock_ns", "strict_timing", "act_pj",
                     "t_rcd", ""]).flatmap(
        lambda key: st.text(max_size=8).map(lambda val: f"{key} = {val}"))
    | st.text(max_size=16), max_size=4).map("\n".join)


@given(config_lines)
@settings(max_examples=200, deadline=None)
def test_config_text_parses_or_faults(text):
    try:
        parse_config_text(text)
    except DramCamError:
        pass


numbers = st.integers(-3, 20) | st.integers(2**62, 2**70) | st.text(max_size=3)
trace_lines = st.lists(
    st.builds("ACT {} gap={}".format, numbers, numbers)
    | st.builds("PRE gap={}".format, numbers)
    | st.sampled_from(["ACT", "PRE", "act", ""]).flatmap(
        lambda word: st.text(max_size=10).map(lambda rest: f"{word} {rest}"))
    | st.text(max_size=16), max_size=4).map("\n".join)


@given(trace_lines)
@settings(max_examples=200, deadline=None)
def test_trace_text_parses_or_faults(text):
    try:
        parse_trace(text)
    except DramCamError:
        pass
