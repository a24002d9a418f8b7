import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dramcam import (DeviceConfig, EmptyDbFault, EncodingFault, LayoutFault,
                     activated_rows, classify, classify_batch,
                     decode_kmer_onehot, encode_kmer_onehot, extract_kmers,
                     ingest, ingest_text, load_kmer_db, parse_reference_text,
                     save_kmer_db)
from dramcam.genomics import compile_kmer_compare, format_results

DEV = DeviceConfig(rows_per_subarray=64, cols_per_subarray=256, chips=1,
                   banks_per_chip=1)


def oracle_taxa(db_records, k, query, max_mismatch=0):
    taxa = set()
    for taxon, seq in db_records:
        for kmer in extract_kmers(seq, k):
            if sum(a != b for a, b in zip(kmer, query)) <= max_mismatch:
                taxa.add(taxon)
    return taxa


# -- one-hot encoding ----------------------------------------------------------


def test_one_hot_patterns():
    # A=0001 G=0010 C=0100 T=1000, low-order row first
    assert list(encode_kmer_onehot("A")) == [1, 0, 0, 0]
    assert list(encode_kmer_onehot("G")) == [0, 1, 0, 0]
    assert list(encode_kmer_onehot("C")) == [0, 0, 1, 0]
    assert list(encode_kmer_onehot("T")) == [0, 0, 0, 1]


def test_one_hot_ag_hot_rows():
    cells = encode_kmer_onehot("AG")
    assert list(np.flatnonzero(cells)) == [0, 5]


def test_one_hot_rejects_bad_base():
    with pytest.raises(EncodingFault):
        encode_kmer_onehot("ACN")


@given(st.text(alphabet="ACGT", min_size=1, max_size=24))
def test_one_hot_round_trip(kmer):
    assert decode_kmer_onehot(encode_kmer_onehot(kmer)) == kmer


def test_decode_rejects_multi_hot():
    with pytest.raises(EncodingFault):
        decode_kmer_onehot([1, 1, 0, 0])


# -- reference parsing -----------------------------------------------------------


def test_parse_reference_records():
    text = ">tax_a primary strain\nACGT\nACCA\n>tax_b\nTTTT\n"
    assert parse_reference_text(text) == [("tax_a", "ACGTACCA"), ("tax_b", "TTTT")]


def test_parse_reference_faults():
    with pytest.raises(EncodingFault):
        parse_reference_text("ACGT\n")  # data before header
    with pytest.raises(EncodingFault):
        parse_reference_text(">\nACGT\n")  # empty header


def test_extract_kmers_sliding_window():
    assert extract_kmers("ACGT", 3) == ["ACG", "CGT"]
    assert extract_kmers("ACGT", 5) == []


def test_extract_kmers_skips_invalid_windows():
    assert extract_kmers("ACNGT", 2) == ["AC", "GT"]


# -- ingest and layout -------------------------------------------------------------


def test_ingest_disjoint_groups():
    db = ingest([("a", "ACGTAC"), ("b", "GGGTTT")], 3, DEV)
    groups = {g.taxon: g for g in db.layout.groups}
    assert set(groups) == {"a", "b"}
    a, b = groups["a"], groups["b"]
    assert a.start + a.columns <= b.start or b.start + b.columns <= a.start


def _scan_group(layout, column):
    for g in layout.groups:
        if g.start <= column < g.start + g.columns:
            return g
    return None


@given(st.lists(st.integers(1, 40), min_size=1, max_size=12))
@settings(max_examples=30)
def test_group_lookup_matches_linear_scan(sizes):
    """Bisect lookup equals a scan at every group edge and past the end."""
    rng = np.random.default_rng(len(sizes))
    records = [(f"t{i}", "".join(rng.choice(list("ACGT"), n + 3)))
               for i, n in enumerate(sizes)]
    layout = ingest(records, 4, DEV).layout
    edges = {-1, layout.total_columns, layout.total_columns + 1}
    for g in layout.groups:
        edges |= {g.start - 1, g.start, g.start + g.columns - 1,
                  g.start + g.columns}
    for col in sorted(edges):
        assert layout.group_of_column(col) == _scan_group(layout, col)
        for stratum in range(layout.strata):
            g = _scan_group(layout, col)
            expect = (g is not None and
                      stratum * g.columns + (col - g.start) < g.kmers)
            assert layout.occupied(stratum, col) == expect


def test_ingest_deduplicates_per_taxon():
    db = ingest([("a", "AAAA")], 2, DEV)  # three windows, one distinct kmer
    assert db.layout.groups[0].kmers == 1


def test_ingest_column_counting_oracle():
    rng = np.random.default_rng(21)
    records = [(f"t{i}", "".join(rng.choice(list("ACGT"), 60)))
               for i in range(4)]
    k = 4
    db = ingest(records, k, DEV)
    strata = db.layout.strata
    assert strata == ((64 - 8) & ~3) // (4 * k)
    for taxon, seq in records:
        n = len(set(extract_kmers(seq, k)))
        group = next(g for g in db.layout.groups if g.taxon == taxon)
        assert group.kmers == n
        assert group.columns == -(-n // strata)
    assert db.layout.total_columns == sum(g.columns for g in db.layout.groups)


def test_ingest_k_too_large_faults():
    with pytest.raises(LayoutFault):
        ingest([("a", "ACGT" * 8)], 16, DEV)  # 64 data rows > budget


def test_ingest_empty_faults():
    with pytest.raises(EmptyDbFault):
        ingest([], 3, DEV)
    with pytest.raises(EmptyDbFault):
        ingest([("a", "NNNNN")], 3, DEV)


def test_ingest_capacity_fault():
    tiny = DeviceConfig(rows_per_subarray=64, cols_per_subarray=2, chips=1,
                        banks_per_chip=1)
    with pytest.raises(LayoutFault):
        ingest([("a", "ACGTACGTGGCCTTAA")], 3, tiny)


# -- classification ------------------------------------------------------------------


def test_classify_present_absent_and_shared():
    records = [("a", "ACGTACG"), ("b", "TTGCAAG"), ("c", "ACGTTGC")]
    k = 4
    db = ingest(records, k, DEV)
    shards = db.build_shards()
    for q in ["ACGT", "TTGC", "GGGG", "CGTA"]:
        result, _ = classify(db, shards, q)
        assert set(result.taxa) == oracle_taxa(records, k, q)
    shared, _ = classify(db, shards, "ACGT")  # present in taxa a and c
    assert set(shared.taxa) == {"a", "c"}


def test_classify_uses_multiple_strata():
    # force > 1 stratum and ensure late-stratum k-mers are still found
    records = [("solo", "".join(
        np.random.default_rng(3).choice(list("ACGT"), 40)))]
    db = ingest(records, 3, DEV)
    assert db.layout.strata > 1
    shards = db.build_shards()
    kmers = list(db.kmers_by_taxon["solo"])
    for q in kmers:
        result, _ = classify(db, shards, q)
        assert result.taxa == ("solo",)
        assert result.columns  # column address reported


def test_classify_hd1_tolerates_one_base():
    records = [("a", "ACGTACGTAA")]
    k = 6
    db = ingest(records, k, DEV)
    shards = db.build_shards()
    q_exact = "ACGTAC"
    q_one = "AGGTAC"   # one substituted base
    q_two = "AGGAAC"   # two substituted bases
    assert classify(db, shards, q_one)[0].taxa == ()
    assert classify(db, shards, q_one, "hd1")[0].taxa == ("a",)
    assert classify(db, shards, q_two, "hd1")[0].taxa == ()
    assert classify(db, shards, q_exact, "hd1")[0].taxa == ("a",)


def test_compare_trace_one_act_per_base():
    db = ingest([("a", "ACGTACGTT")], 5, DEV)
    for kind in ("exact", "hd1"):
        compiled = compile_kmer_compare("ACGTA", db.layout, db.device, 0, kind)
        data_acts = [r for r in activated_rows(compiled.trace)
                     if r < db.layout.data_rows]
        assert len(data_acts) == 5


def test_classify_query_length_fault():
    db = ingest([("a", "ACGTACGT")], 4, DEV)
    with pytest.raises(EncodingFault):
        classify(db, db.build_shards(), "ACGTT")


def test_batch_mixed_lengths_fault():
    db = ingest([("a", "ACGTACGT")], 4, DEV)
    with pytest.raises(EncodingFault):
        classify_batch(db, ["ACGT", "ACGTA"])


def test_batch_empty():
    db = ingest([("a", "ACGTACGT")], 4, DEV)
    results, summary = classify_batch(db, [])
    assert results == [] and summary.queries == 0


def test_batch_summary_counts():
    records = [("a", "ACGTAC"), ("b", "GGTTGG")]
    db = ingest(records, 4, DEV)
    queries = ["ACGT", "GGTT", "AAAA"]
    results, summary = classify_batch(db, queries)
    assert summary.queries == 3 and summary.matched == 2
    assert summary.match_rate == pytest.approx(2 / 3)
    assert summary.per_taxon == {"a": 1, "b": 1}
    assert summary.simulated_ns > 0 and summary.queries_per_sec > 0


def test_batch_parallel_matches_serial():
    rng = np.random.default_rng(17)
    records = [(t, "".join(rng.choice(list("ACGT"), 50))) for t in "ab"]
    db = ingest(records, 5, DEV)
    queries = [*db.kmers_by_taxon["a"][:4], "AAAAA", *db.kmers_by_taxon["b"][:3]]
    serial, _ = classify_batch(db, queries, parallel=1)
    parallel, _ = classify_batch(db, queries, parallel=3)
    assert serial == parallel


def test_sharded_database_matches_unsharded():
    rng = np.random.default_rng(8)
    records = [(t, "".join(rng.choice(list("ACGT"), 60))) for t in "abc"]
    wide = DeviceConfig(rows_per_subarray=64, cols_per_subarray=512, chips=1,
                        banks_per_chip=1)
    narrow = DeviceConfig(rows_per_subarray=64, cols_per_subarray=16, chips=1,
                          banks_per_chip=8)
    db_w = ingest(records, 5, wide)
    db_n = ingest(records, 5, narrow)
    assert len(db_n.build_shards()) > 1
    queries = [*db_w.kmers_by_taxon["a"][:3], "ACGTA", "TTTTT"]
    res_w, _ = classify_batch(db_w, queries)
    res_n, _ = classify_batch(db_n, queries)
    assert [(r.query, r.taxa) for r in res_w] == [(r.query, r.taxa) for r in res_n]


def test_classify_leaves_data_rows_intact():
    db = ingest([("a", "ACGTACGTT")], 4, DEV)
    shards = db.build_shards()
    before = shards[0].subarray.cells[:db.layout.data_rows].copy()
    classify(db, shards, "ACGT")
    classify(db, shards, "ACGT", "hd1")
    assert (shards[0].subarray.cells[:db.layout.data_rows] == before).all()


# -- image round trip -----------------------------------------------------------------


def test_kmer_db_image_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    records = [(t, "".join(rng.choice(list("ACGT"), 40))) for t in "ab"]
    db = ingest(records, 4, DEV)
    path = tmp_path / "kmers.img"
    save_kmer_db(path, db)
    again = load_kmer_db(path, DEV)
    assert (again.column_cells == db.column_cells).all()
    assert again.layout == db.layout
    queries = [*db.kmers_by_taxon["a"][:5], "ACGT", "TTTT"]
    res_a, _ = classify_batch(db, queries)
    res_b, _ = classify_batch(again, queries)
    assert [(r.query, r.taxa, r.columns) for r in res_a] == \
           [(r.query, r.taxa, r.columns) for r in res_b]


def test_kmer_db_image_deterministic(tmp_path):
    db = ingest([("a", "ACGTACGT")], 4, DEV)
    p1, p2 = tmp_path / "one.img", tmp_path / "two.img"
    save_kmer_db(p1, db)
    save_kmer_db(p2, ingest([("a", "ACGTACGT")], 4, DEV))
    assert p1.read_bytes() == p2.read_bytes()


def test_format_results_block():
    db = ingest([("a", "ACGTAC")], 4, DEV)
    results, summary = classify_batch(db, ["ACGT", "CCCC"])
    text = format_results(results, summary)
    lines = text.splitlines()
    assert lines[0] == "query,kind,columns,taxa"
    assert lines[1].startswith("ACGT,exact,") and lines[1].endswith(",a")
    assert any(line.startswith("# queries = 2") for line in lines)


def test_ingest_text_convenience():
    db = ingest_text(">a\nACGTACGT\n", 4, DEV)
    assert db.layout.groups[0].taxon == "a"
