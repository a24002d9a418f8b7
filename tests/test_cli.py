import json
import random
import subprocess
import sys

import pytest

from dramcam import parse_trace
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
    proc = subprocess.run(
        [sys.executable, "-m", "dramcam", "build-db", "--words", str(words),
         "--out", str(tmp_path / "w.img")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "stored 2 words" in proc.stdout
