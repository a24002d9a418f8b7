import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dramcam
from dramcam import (classify_batch, load_config, load_kmer_db, parse_config_text,
                     parse_trace)
from dramcam.genomics import compile_kmer_compare
from dramcam.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def word_db(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("0101\n0011\n1100\n")
    img = tmp_path / "words.img"
    assert run_cli("build-db", "--words", str(words), "--out", str(img)) == 0
    return img


@pytest.fixture
def kmer_db(tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text(">tax_a\nACGTACGTTT\n>tax_b\nGGCCGGCCAA\n")
    img = tmp_path / "kmers.img"
    assert run_cli("build-db", "--reference", str(ref), "--k", "4",
                   "--out", str(img)) == 0
    return img


@pytest.fixture
def wide_kmer_db(tmp_path):
    """A k-mer image spread over several 64-column shards, and its config."""
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("cols_per_subarray = 64\n")
    rng = random.Random(5)
    ref = tmp_path / "wide.txt"
    ref.write_text("".join(f">t{i}\n" + "".join(rng.choice("ACGT")
                                                for _ in range(200)) + "\n"
                           for i in range(2)))
    img = tmp_path / "wide.img"
    assert run_cli("build-db", "--reference", str(ref), "--k", "6",
                   "--config", str(cfg), "--out", str(img)) == 0
    return img, cfg


def rewrite_header(img, **changes):
    """Edit an image's JSON header in place; a value of None drops the key."""
    magic, header, payload = img.read_bytes().split(b"\n", 2)
    fields = json.loads(header)
    for key, value in changes.items():
        if value is None:
            del fields[key]
        else:
            fields[key] = value
    img.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + payload)


def assert_one_fault_line(capsys, code, *argv):
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code}: ") and err.count("\n") == 1


def test_build_words_and_search(word_db, tmp_path, capsys):
    q = tmp_path / "q.txt"
    q.write_text("0011\n1111\n")
    out = tmp_path / "m.txt"
    assert run_cli("search", "--db", str(word_db), "--queries", str(q),
                   "--out", str(out)) == 0
    assert out.read_text() == "010 match_is_1\n000 match_is_1\n"


def test_search_stdout_default(word_db, tmp_path, capsys):
    q = tmp_path / "q.txt"
    q.write_text("0101\n")
    assert run_cli("search", "--db", str(word_db), "--queries", str(q)) == 0
    assert capsys.readouterr().out == "100 match_is_1\n"


def test_search_hd1_on_words(word_db, tmp_path, capsys):
    q = tmp_path / "q.txt"
    q.write_text("0111\n")  # distance 1 from 0101 and 0011
    assert run_cli("search", "--db", str(word_db), "--queries", str(q)) == 0
    assert capsys.readouterr().out == "000 match_is_1\n"
    assert run_cli("search", "--db", str(word_db), "--queries", str(q),
                   "--mode", "hd1") == 0
    assert capsys.readouterr().out == "110 match_is_1\n"


def test_emit_trace_round_trips(word_db, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("0101\n0011\n")
    trace_path = tmp_path / "trace.txt"
    out = tmp_path / "m.txt"
    assert run_cli("search", "--db", str(word_db), "--queries", str(q),
                   "--out", str(out), "--emit-trace", str(trace_path)) == 0
    text = trace_path.read_text()
    commands = parse_trace(text)
    assert len(commands) == 2 * (12 * 4 + 6)
    from dramcam import format_trace
    assert format_trace(commands) == text


def test_mode_encoding_mismatch_exits_nonzero(word_db, tmp_path, capsys):
    q = tmp_path / "q.txt"
    q.write_text("0101\n")
    rc = run_cli("search", "--db", str(word_db), "--queries", str(q),
                 "--mode", "nor")
    assert rc == 1
    assert "error: encoding-fault:" in capsys.readouterr().err


def test_invalid_mode_is_usage_error(word_db, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("search", "--db", str(word_db), "--queries", "x",
                "--mode", "fuzzy")
    assert exc.value.code == 2


def test_build_db_deterministic(tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text(">a\nACGTACGT\n>b\nTTGGCCAA\n")
    img1, img2 = tmp_path / "one.img", tmp_path / "two.img"
    run_cli("build-db", "--reference", str(ref), "--k", "4", "--out", str(img1))
    run_cli("build-db", "--reference", str(ref), "--k", "4", "--out", str(img2))
    assert img1.read_bytes() == img2.read_bytes()


def test_build_db_manifest_lists_groups(kmer_db):
    manifest = json.loads((kmer_db.parent / (kmer_db.name + ".manifest.json"))
                          .read_text())
    assert [g["taxon"] for g in manifest["groups"]] == ["tax_a", "tax_b"]
    assert manifest["k"] == 4


def test_build_db_requires_one_input(tmp_path, capsys):
    rc = run_cli("build-db", "--out", str(tmp_path / "x.img"))
    assert rc == 1
    assert "error: config-error:" in capsys.readouterr().err


def test_build_db_k_too_large_faults(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    ref.write_text(">a\n" + "ACGT" * 40 + "\n")
    rc = run_cli("build-db", "--reference", str(ref), "--k", "64",
                 "--out", str(tmp_path / "x.img"))
    assert rc == 1
    assert "error: layout-fault:" in capsys.readouterr().err


def test_classify_matches_oracle(kmer_db, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("ACGT\nGGCC\nAAAA\n")
    out = tmp_path / "res.txt"
    assert run_cli("classify", "--db", str(kmer_db), "--queries", str(q),
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("ACGT,exact,") and lines[1].endswith(",tax_a")
    assert lines[2].endswith(",tax_b")
    assert lines[3].endswith("exact,,")  # no match
    assert any(l.startswith("# queries = 3") for l in lines)


def test_classify_hd1_mode(kmer_db, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("ACGA\n")  # one base away from ACGT
    out = tmp_path / "res.txt"
    run_cli("classify", "--db", str(kmer_db), "--queries", str(q),
            "--out", str(out))
    assert out.read_text().splitlines()[1].endswith("exact,,")
    run_cli("classify", "--db", str(kmer_db), "--queries", str(q),
            "--mode", "hd1", "--out", str(out))
    assert out.read_text().splitlines()[1].endswith(",tax_a")


def test_classify_parallel_same_output(kmer_db, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("ACGT\nCGTA\nGTAC\nGGCC\n")
    one, two = tmp_path / "one.txt", tmp_path / "two.txt"
    run_cli("classify", "--db", str(kmer_db), "--queries", str(q),
            "--out", str(one))
    run_cli("classify", "--db", str(kmer_db), "--queries", str(q),
            "--parallel", "2", "--out", str(two))
    assert one.read_text() == two.read_text()


def test_classify_accepts_sequence_records(kmer_db, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text(">sample\nACGTA\n")  # k-merized into ACGT, CGTA
    out = tmp_path / "res.txt"
    run_cli("classify", "--db", str(kmer_db), "--queries", str(q),
            "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[1].startswith("ACGT,") and lines[2].startswith("CGTA,")


def test_classify_rejects_word_db(word_db, tmp_path, capsys):
    q = tmp_path / "q.txt"
    q.write_text("0101\n")
    rc = run_cli("classify", "--db", str(word_db), "--queries", str(q))
    assert rc == 1
    assert "error: encoding-fault:" in capsys.readouterr().err


def test_search_kmer_db(kmer_db, tmp_path, capsys):
    q = tmp_path / "q.txt"
    q.write_text("ACGT\n")
    assert run_cli("search", "--db", str(kmer_db), "--queries", str(q)) == 0
    line = capsys.readouterr().out.strip()
    verdicts, polarity = line.split()
    assert polarity == "match_is_1" and "1" in verdicts


def test_bench_writes_report(kmer_db, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert run_cli("bench", "--db", str(kmer_db), "--seed", "1",
                   "--report", str(report_path)) == 0
    out = capsys.readouterr().out
    assert "throughput" in out and "assumptions:" in out
    payload = json.loads(report_path.read_text())
    assert payload["queries"] == 64
    assert payload["throughput_kmers_per_sec"] > 0
    assert payload["batch"]["assign_ns"] > 0
    assert payload["per_compare"]["counts"]["ACT"] > 0


def test_bench_counts_kmers_per_subarray(tmp_path):
    """On a multi-shard database one compare pass covers one shard's share."""
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("cols_per_subarray = 64\n")
    rng = random.Random(3)
    ref = tmp_path / "ref.txt"
    ref.write_text("".join(f">t{i}\n" + "".join(rng.choice("ACGT")
                                                for _ in range(250)) + "\n"
                           for i in range(2)))
    img = tmp_path / "wide.img"
    assert run_cli("build-db", "--reference", str(ref), "--k", "8",
                   "--config", str(cfg), "--out", str(img)) == 0
    manifest = json.loads((tmp_path / "wide.img.manifest.json").read_text())
    assert manifest["subarrays"] > 1
    report_path = tmp_path / "report.json"
    assert run_cli("bench", "--db", str(img), "--config", str(cfg),
                   "--seed", "1", "--report", str(report_path)) == 0
    payload = json.loads(report_path.read_text())
    kmers = sum(g["kmers"] for g in manifest["groups"])
    per_subarray = round(kmers / manifest["subarrays"])
    latency_s = payload["per_compare"]["latency_ns"] * 1e-9
    assert payload["throughput_kmers_per_sec"] == pytest.approx(
        per_subarray * 16 * 8 / latency_s)
    assert f"{per_subarray} items compared per subarray pass" in payload["assumptions"]


def test_bench_word_db(word_db, capsys):
    assert run_cli("bench", "--db", str(word_db), "--seed", "2") == 0
    assert "per-compare" in capsys.readouterr().out


def test_bench_seed_determinism(kmer_db, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli("bench", "--db", str(kmer_db), "--seed", "7", "--report", str(r1))
    run_cli("bench", "--db", str(kmer_db), "--seed", "7", "--report", str(r2))
    assert r1.read_text() == r2.read_text()


def test_config_flag_changes_geometry(tmp_path, capsys):
    cfg = tmp_path / "dev.cfg"
    cfg.write_text("rows_per_subarray = 16\n")
    ref = tmp_path / "ref.txt"
    ref.write_text(">a\nACGTACGT\n")
    rc = run_cli("build-db", "--reference", str(ref), "--k", "4",
                 "--config", str(cfg), "--out", str(tmp_path / "x.img"))
    assert rc == 1  # 16 rows cannot host 16 data rows below the block
    assert "error: layout-fault:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    words = tmp_path / "w.txt"
    words.write_text("01\n10\n")
    # the child imports the same package as the suite, installed or not
    src = str(Path(dramcam.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dramcam", "build-db", "--words", str(words),
         "--out", str(tmp_path / "w.img")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "stored 2 words" in proc.stdout


def test_truncated_kmer_image_faults(kmer_db, tmp_path, capsys):
    kmer_db.write_bytes(kmer_db.read_bytes()[:-1])
    q = tmp_path / "q.txt"
    q.write_text("ACGT\n")
    assert_one_fault_line(capsys, "encoding-fault", "classify", "--db",
                          str(kmer_db), "--queries", str(q))


def test_kmer_header_missing_k_faults(kmer_db, tmp_path, capsys):
    rewrite_header(kmer_db, k=None)
    q = tmp_path / "q.txt"
    q.write_text("ACGT\n")
    assert_one_fault_line(capsys, "encoding-fault", "search", "--db",
                          str(kmer_db), "--queries", str(q))


def test_word_header_missing_m_faults(word_db, tmp_path, capsys):
    rewrite_header(word_db, m=None)
    q = tmp_path / "q.txt"
    q.write_text("0101\n")
    assert_one_fault_line(capsys, "encoding-fault", "search", "--db",
                          str(word_db), "--queries", str(q))


def test_word_image_unknown_mode_faults(word_db, capsys):
    rewrite_header(word_db, mode="bogus")
    assert_one_fault_line(capsys, "encoding-fault", "bench", "--db",
                          str(word_db))


@pytest.mark.parametrize("command,flag", [("search", "--db"),
                                          ("classify", "--queries"),
                                          ("build-db", "--reference")])
def test_missing_input_file_is_io_fault(kmer_db, tmp_path, capsys,
                                        command, flag):
    q = tmp_path / "q.txt"
    q.write_text("ACGT\n")
    args = {"search": ["--queries", str(q)],
            "classify": ["--db", str(kmer_db)],
            "build-db": ["--k", "4", "--out", str(tmp_path / "x.img")]}[command]
    assert_one_fault_line(capsys, "io-fault", command, flag,
                          str(tmp_path / "absent.txt"), *args)


@pytest.mark.parametrize("geometry", [
    "cols_per_subarray = 1000000000000000000000000000000",
    "rows_per_subarray = 100000000000000000000000",
])
def test_subarray_too_large_to_allocate_is_config_error(word_db, tmp_path,
                                                        capsys, monkeypatch,
                                                        geometry):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(geometry + "\n")
    q = tmp_path / "q.txt"
    q.write_text("0011\n")

    def no_subarray(*args, **kwargs):
        raise AssertionError("a subarray was allocated")
    monkeypatch.setattr(dramcam.core.Subarray, "__init__", no_subarray)
    assert_one_fault_line(capsys, "config-error", "search", "--db",
                          str(word_db), "--queries", str(q), "--config",
                          str(cfg))


@pytest.mark.parametrize("db", ["word_db", "kmer_db"])
def test_bench_empty_query_file_faults(db, request, tmp_path, capsys):
    q = tmp_path / "empty.txt"
    q.write_text("")
    assert_one_fault_line(capsys, "encoding-fault", "bench", "--db",
                          str(request.getfixturevalue(db)), "--queries", str(q))


@pytest.mark.parametrize("mode,kind", [("nand", "exact"), ("hd1", "hd1")])
def test_search_emits_each_stratum_trace_once(kmer_db, tmp_path, mode, kind):
    queries = ["ACGT", "GGCC", "AAAA"]
    q = tmp_path / "q.txt"
    q.write_text("".join(f"{x}\n" for x in queries))
    trace_path = tmp_path / "trace.txt"
    assert run_cli("search", "--db", str(kmer_db), "--queries", str(q),
                   "--mode", mode, "--out", str(tmp_path / "m.txt"),
                   "--emit-trace", str(trace_path)) == 0
    db = load_kmer_db(kmer_db)
    assert db.layout.strata > 1
    expected = [cmd for x in queries for s in range(db.layout.strata)
                for cmd in compile_kmer_compare(x, db.layout, db.device, s,
                                                kind).trace]
    assert parse_trace(trace_path.read_text()) == expected


def test_bench_latency_equals_classify_cycles(wide_kmer_db, tmp_path):
    img, cfg = wide_kmer_db
    db = load_kmer_db(img, load_config(cfg).device)
    assert len(db.build_shards()) > 1
    queries = ["ACGTAC", "GGGGGG", "TTACGA"]
    q = tmp_path / "q.txt"
    q.write_text("".join(f"{x}\n" for x in queries))
    report_path = tmp_path / "report.json"
    assert run_cli("bench", "--db", str(img), "--config", str(cfg),
                   "--mode", "hd1", "--queries", str(q),
                   "--report", str(report_path)) == 0
    _, summary = classify_batch(db, queries, "hd1")
    payload = json.loads(report_path.read_text())
    assert payload["batch"]["latency_cycles"] == summary.simulated_cycles


def header_of(img):
    return json.loads(img.read_bytes().split(b"\n", 2)[1])


@pytest.mark.parametrize("db,changes", [
    ("word_db", {"mode": ["x"]}),
    ("word_db", {"m": "4"}),
    ("word_db", {"count": 3.0}),
    ("kmer_db", {"k": "4"}),
    ("kmer_db", {"groups": {"taxon": "tax_a"}}),
    ("kmer_db", {"groups": [[0, 1]]}),
])
def test_header_value_of_the_wrong_type_faults(db, changes, request, tmp_path,
                                               capsys):
    img = request.getfixturevalue(db)
    rewrite_header(img, **changes)
    q = tmp_path / "q.txt"
    q.write_text("0101\n" if db == "word_db" else "ACGT\n")
    assert_one_fault_line(capsys, "encoding-fault", "search", "--db", str(img),
                          "--queries", str(q))


def test_json_true_is_not_a_count(tmp_path, capsys):
    words = tmp_path / "one.txt"
    words.write_text("0101\n")
    img = tmp_path / "one.img"
    assert run_cli("build-db", "--words", str(words), "--out", str(img)) == 0
    rewrite_header(img, count=True)  # equal to 1 in Python, not a JSON int
    assert_one_fault_line(capsys, "encoding-fault", "search", "--db", str(img),
                          "--queries", str(words))


@pytest.mark.parametrize("key,value", [("start", None), ("taxon", 5),
                                       ("kmers", True)])
def test_group_entry_of_the_wrong_shape_faults(kmer_db, tmp_path, capsys,
                                               key, value):
    groups = header_of(kmer_db)["groups"]
    if value is None:
        del groups[0][key]
    else:
        groups[0][key] = value
    rewrite_header(kmer_db, groups=groups)
    q = tmp_path / "q.txt"
    q.write_text("ACGT\n")
    assert_one_fault_line(capsys, "encoding-fault", "search", "--db",
                          str(kmer_db), "--queries", str(q))


@pytest.mark.parametrize("case", ["stratum in the reserved block",
                                  "overlapping groups", "group past the columns",
                                  "columns beyond the groups",
                                  "more k-mers than slots"])
def test_malformed_kmer_layout_faults(kmer_db, tmp_path, capsys, case):
    """Each case keeps the payload at the length the edited header asks
    for, so only the layout is wrong."""
    h = header_of(kmer_db)
    groups, strata, columns = h["groups"], h["strata"], h["columns"]
    stride = -(-4 * h["k"] * strata // 8)
    pad = 0
    if case == "stratum in the reserved block":
        h["strata"] += 1
        pad = (-(-4 * h["k"] * (strata + 1) // 8) - stride) * columns
    elif case == "overlapping groups":
        groups[1]["start"] -= 1
    elif case == "group past the columns":
        groups[1]["start"] += 1
    elif case == "columns beyond the groups":
        h["columns"] += 1
        pad = stride
    else:
        groups[0]["kmers"] = groups[0]["columns"] * strata + 1
    rewrite_header(kmer_db, **h)
    kmer_db.write_bytes(kmer_db.read_bytes() + bytes(pad))
    q = tmp_path / "q.txt"
    q.write_text("ACGT\n")
    assert_one_fault_line(capsys, "layout-fault", "search", "--db",
                          str(kmer_db), "--queries", str(q))


def test_kmer_image_without_kmers_faults(kmer_db, tmp_path, capsys):
    rewrite_header(kmer_db, columns=0, groups=[])
    magic, line, _ = kmer_db.read_bytes().split(b"\n", 2)
    kmer_db.write_bytes(magic + b"\n" + line + b"\n")  # no columns, no bytes
    q = tmp_path / "q.txt"
    q.write_text("ACGT\n")
    assert_one_fault_line(capsys, "empty-db-fault", "bench", "--db",
                          str(kmer_db), "--queries", str(q))


@pytest.mark.parametrize("rows", [63, 6, 4096])
def test_image_rows_per_subarray_is_checked_against_its_layout(
        kmer_db, tmp_path, capsys, rows):
    """An odd or too small row count, or one with room for more strata
    than the header holds (which would size every shard's grid), is the
    image's fault and names it."""
    rewrite_header(kmer_db, rows_per_subarray=rows)
    q = tmp_path / "q.txt"
    q.write_text("ACGT\n")
    assert_one_fault_line(capsys, "layout-fault", "search", "--db",
                          str(kmer_db), "--queries", str(q))
    run_cli("search", "--db", str(kmer_db), "--queries", str(q))
    assert f"{kmer_db}: rows_per_subarray {rows}" in capsys.readouterr().err


def test_image_row_count_replacing_the_config_is_logged(kmer_db, caplog):
    device = parse_config_text("rows_per_subarray = 160\n").device
    with caplog.at_level("INFO", logger="dramcam.genomics"):
        db = load_kmer_db(kmer_db, device)
    assert db.device.rows_per_subarray == 128
    assert [r.getMessage() for r in caplog.records] == [
        f"{kmer_db}: the image's rows_per_subarray 128 replaces the "
        "configured 160"]
    caplog.clear()
    with caplog.at_level("INFO", logger="dramcam.genomics"):
        load_kmer_db(kmer_db)
    assert caplog.records == []
