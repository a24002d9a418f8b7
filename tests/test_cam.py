import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dramcam import (DeviceConfig, EncodingFault, LayoutFault, LayoutMap,
                     Mode, Polarity, Subarray, TimingModel, TraceFormatError,
                     WordDb, act, activated_rows, compile_hd1_compare,
                     compile_nand_compare, compile_nor_compare, decode_column,
                     encode_word, load_word_db, pre, run_compare, save_word_db,
                     store)
from dramcam.trace import CommandKind

T = TimingModel()


def bits(n, m):
    return format(n, f"0{m}b")


def hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


def masked_equal(word, query):
    """Ternary oracle: every non-X position of the stored word matches."""
    return all(w == "X" or w == q for w, q in zip(word, query))


def cam_with(words, m, mode=Mode.NAND, cols=None, rows=None):
    cols = cols or max(len(words), 1)
    rows = rows or (2 * m + 16)
    if rows % 4:
        rows += 4 - rows % 4
    layout = LayoutMap.for_subarray(rows, cols, m)
    sub = Subarray(rows, cols, T)
    store(sub, layout, [encode_word(w, mode) for w in words])
    return sub, layout


# -- encoding ---------------------------------------------------------------------


def test_bit_encodings():
    assert list(encode_word("0")) == [1, 0]
    assert list(encode_word("1")) == [0, 1]
    assert list(encode_word("X", Mode.NAND)) == [1, 1]
    assert list(encode_word("X", Mode.NOR)) == [0, 0]


def test_dont_care_requires_mode():
    with pytest.raises(EncodingFault):
        encode_word("0X1")


def test_encode_rejects_garbage():
    with pytest.raises(EncodingFault):
        encode_word("012", Mode.NAND)


@given(st.text(alphabet="01X", min_size=1, max_size=16),
       st.sampled_from([Mode.NAND, Mode.NOR]))
def test_encode_decode_round_trip(word, mode):
    assert decode_column(encode_word(word, mode), mode) == word


def test_decode_rejects_invalid_pair():
    with pytest.raises(EncodingFault):
        decode_column([0, 0], Mode.NAND)  # '00' unused in nand coding
    with pytest.raises(EncodingFault):
        decode_column([1, 1], Mode.NOR)
    with pytest.raises(EncodingFault):
        decode_column([1, 0, 1], Mode.NAND)  # odd length


def test_encode_accepts_int_sequences():
    assert (encode_word([0, 1]) == encode_word("01")).all()


# -- layout and store ---------------------------------------------------------------


def test_layout_rejects_oversized_words():
    with pytest.raises(LayoutFault):
        LayoutMap.for_subarray(16, 8, 5)  # 10 data rows > 8 below the block


def test_layout_rows_disjoint():
    layout = LayoutMap.for_subarray(32, 8, 4)
    reserved = set(layout.compute.all_rows()) | {
        layout.temps.xnor, layout.temps.exact, layout.temps.tolerant}
    assert reserved.isdisjoint(layout.data_rows())
    assert all(layout.data_row(j, 0) % 2 == 0 for j in range(4))
    assert all(layout.data_row(j, 1) == layout.data_row(j, 0) + 1
               for j in range(4))


def test_store_capacity_fault():
    layout = LayoutMap.for_subarray(16, 2, 4)
    sub = Subarray(16, 2, T)
    with pytest.raises(LayoutFault):
        store(sub, layout, [encode_word("0000")] * 3)


def test_store_read_back_per_row():
    words = ["0101", "0011"]
    sub, layout = cam_with(words, 4)
    grid = np.stack([encode_word(w) for w in words], axis=1)
    for r in layout.data_rows():
        sub.execute([pre(T.t_rp), act(r, T.t_ras)])
        assert (sub.read_row_buffer()[:2] == grid[r]).all()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_store_decode_round_trip_batches(seed):
    rng = np.random.default_rng(seed)
    m, n = 6, 10
    words = ["".join(rng.choice(list("01"), m)) for _ in range(n)]
    sub, layout = cam_with(words, m, cols=16)
    for c, w in enumerate(words):
        assert decode_column(sub.cells[:2 * m, c], Mode.NAND) == w


def test_store_initializes_constants():
    sub, layout = cam_with(["01"], 2)
    assert not sub.cells[layout.compute.c0].any()
    assert sub.cells[layout.compute.c1].all()


# -- exact match (NAND program) --------------------------------------------------------


def test_nand_example_db():
    sub, layout = cam_with(["0101", "0011", "0101"], 4)
    vec = run_compare(sub, compile_nand_compare("0101", layout, T), columns=3)
    assert list(vec.verdicts) == [1, 0, 1]
    assert vec.polarity is Polarity.MATCH_IS_1


def test_nand_identical_db_all_match():
    sub, layout = cam_with(["1100"] * 5, 4)
    vec = run_compare(sub, compile_nand_compare("1100", layout, T), columns=5)
    assert vec.verdicts.all()


def test_nand_exhaustive_m4():
    words = [bits(i, 4) for i in range(16)]
    sub, layout = cam_with(words, 4, cols=16)
    for qi in range(16):
        q = bits(qi, 4)
        vec = run_compare(sub, compile_nand_compare(q, layout, T), columns=16)
        expect = [1 if w == q else 0 for w in words]
        assert list(vec.verdicts) == expect


def test_query_length_mismatch_faults():
    _, layout = cam_with(["0101"], 4)
    with pytest.raises(EncodingFault):
        compile_nand_compare("010", layout, T)


def test_query_must_be_binary():
    _, layout = cam_with(["0101"], 4)
    with pytest.raises(EncodingFault):
        compile_nand_compare("01X1", layout, T)


# -- mismatch accumulation (NOR program) -------------------------------------------------


def test_nor_match_signaled_by_zero():
    sub, layout = cam_with(["0101", "0011"], 4, mode=Mode.NOR)
    vec = run_compare(sub, compile_nor_compare("0101", layout, T), columns=2)
    assert list(vec.verdicts) == [0, 1]
    assert vec.polarity is Polarity.MATCH_IS_0
    assert list(vec.matches()) == [True, False]


def test_nor_all_mismatch_column_reads_one():
    sub, layout = cam_with(["1111"], 4, mode=Mode.NOR)
    vec = run_compare(sub, compile_nor_compare("0000", layout, T), columns=1)
    assert list(vec.verdicts) == [1]


def test_nor_duality_exhaustive_m4():
    """On binary data the two programs give complementary verdicts."""
    words = [bits(i, 4) for i in range(16)]
    sub_nand, layout = cam_with(words, 4, cols=16)
    sub_nor, _ = cam_with(words, 4, mode=Mode.NOR, cols=16)
    for qi in range(16):
        q = bits(qi, 4)
        v_nand = run_compare(sub_nand, compile_nand_compare(q, layout, T),
                             columns=16).verdicts
        v_nor = run_compare(sub_nor, compile_nor_compare(q, layout, T),
                            columns=16).verdicts
        assert (v_nor == 1 - v_nand).all()


# -- ternary ------------------------------------------------------------------------------


def test_ternary_x_ignores_position():
    sub, layout = cam_with(["0X1"], 3)
    for q in ("001", "011"):
        vec = run_compare(sub, compile_nand_compare(q, layout, T), columns=1)
        assert vec.verdicts[0] == 1
    vec = run_compare(sub, compile_nand_compare("111", layout, T), columns=1)
    assert vec.verdicts[0] == 0


def test_ternary_oracle_sweep_nand_m4():
    rng = np.random.default_rng(11)
    words = ["".join(rng.choice(list("01X"), 4)) for _ in range(20)]
    sub, layout = cam_with(words, 4, cols=20)
    for qi in range(16):
        q = bits(qi, 4)
        vec = run_compare(sub, compile_nand_compare(q, layout, T), columns=20)
        assert list(vec.verdicts) == [int(masked_equal(w, q)) for w in words]


def test_ternary_oracle_sweep_nor_m3():
    rng = np.random.default_rng(12)
    words = ["".join(rng.choice(list("01X"), 3)) for _ in range(12)]
    sub, layout = cam_with(words, 3, mode=Mode.NOR, cols=12)
    for qi in range(8):
        q = bits(qi, 3)
        vec = run_compare(sub, compile_nor_compare(q, layout, T), columns=12)
        assert list(vec.matches()) == [masked_equal(w, q) for w in words]


def test_ternary_flip_at_x_never_changes_verdict():
    words = ["0X1X", "XX00", "1X1X"]
    sub, layout = cam_with(words, 4)
    for qi in range(16):
        q = bits(qi, 4)
        base = run_compare(sub, compile_nand_compare(q, layout, T),
                           columns=3).verdicts
        for p in range(4):
            flipped = q[:p] + ("1" if q[p] == "0" else "0") + q[p + 1:]
            vec = run_compare(sub, compile_nand_compare(flipped, layout, T),
                              columns=3).verdicts
            for c, w in enumerate(words):
                if w[p] == "X":
                    assert vec[c] == base[c]


# -- distance-1 tolerant program ------------------------------------------------------------


def test_hd1_tolerates_single_mismatch():
    sub, layout = cam_with(["010101"], 6)
    run = lambda q: run_compare(
        sub, compile_hd1_compare(q, layout, T), columns=1).verdicts[0]
    assert run("010101") == 1          # distance 0
    assert run("110101") == 1          # distance 1
    assert run("110100") == 0          # distance 2


def test_hd1_exhaustive_m4():
    words = [bits(i, 4) for i in range(16)]
    sub, layout = cam_with(words, 4, cols=16)
    for qi in range(16):
        q = bits(qi, 4)
        vec = run_compare(sub, compile_hd1_compare(q, layout, T), columns=16)
        assert list(vec.verdicts) == [int(hamming(w, q) <= 1) for w in words]


def test_exact_matches_contained_in_hd1():
    rng = np.random.default_rng(5)
    words = ["".join(rng.choice(list("01"), 8)) for _ in range(30)]
    sub, layout = cam_with(words, 8, cols=30)
    for _ in range(10):
        q = "".join(rng.choice(list("01"), 8))
        exact = run_compare(sub, compile_nand_compare(q, layout, T),
                            columns=30).matches()
        loose = run_compare(sub, compile_hd1_compare(q, layout, T),
                            columns=30).matches()
        assert (loose | ~exact).all()


# -- program structure ------------------------------------------------------------------------


def test_trace_shape_affine_in_m():
    # frozen compiler constants: 12 commands per bit + 6, 64 per bit + 10
    for m in (1, 4, 16, 33):
        layout = LayoutMap.for_subarray(2 * m + 16, 4, m)
        q = "0" * m
        assert len(compile_nand_compare(q, layout, T).trace) == 12 * m + 6
        assert len(compile_nor_compare(q, layout, T).trace) == 12 * m + 6
        assert len(compile_hd1_compare(q, layout, T).trace) == 64 * m + 10


def test_one_data_row_activation_per_bit():
    m = 8
    layout = LayoutMap.for_subarray(2 * m + 16, 4, m)
    q = "01100101"
    for compiled in (compile_nand_compare(q, layout, T),
                     compile_nor_compare(q, layout, T),
                     compile_hd1_compare(q, layout, T)):
        data_acts = [r for r in activated_rows(compiled.trace)
                     if layout.is_data_row(r)]
        assert len(data_acts) == m
        # one row of each pair, in bit order
        assert [r // 2 for r in data_acts] == list(range(m))


def test_nand_opens_row_selected_by_query_bit():
    m = 4
    layout = LayoutMap.for_subarray(2 * m + 16, 4, m)
    q = "0110"
    rows = [r for r in activated_rows(compile_nand_compare(q, layout, T).trace)
            if layout.is_data_row(r)]
    assert rows == [0, 3, 5, 6]  # even row for 0, odd row for 1
    rows = [r for r in activated_rows(compile_nor_compare(q, layout, T).trace)
            if layout.is_data_row(r)]
    assert rows == [1, 2, 4, 7]  # complementary selection


def test_query_mask_skips_positions():
    words = ["0101", "0001", "1111"]
    sub, layout = cam_with(words, 4)
    compiled = compile_nand_compare("0101", layout, T, ignore_positions={1})
    vec = run_compare(sub, compiled, columns=3)
    # position 1 is free: 0101 and 0001 both match now
    assert list(vec.verdicts) == [1, 1, 0]
    data_acts = [r for r in activated_rows(compiled.trace)
                 if layout.is_data_row(r)]
    assert len(data_acts) == 3


def test_run_compare_preserves_data_rows():
    rng = np.random.default_rng(3)
    words = ["".join(rng.choice(list("01"), 6)) for _ in range(10)]
    sub, layout = cam_with(words, 6, cols=12)
    before = sub.cells[:12].copy()
    for q in words[:3]:
        run_compare(sub, compile_nand_compare(q, layout, T), columns=10)
        run_compare(sub, compile_hd1_compare(q, layout, T), columns=10)
    assert (sub.cells[:12] == before).all()


def test_empty_trace_faults():
    sub, layout = cam_with(["01"], 2)
    from dramcam.cam import CompiledCompare
    empty = CompiledCompare([], Polarity.MATCH_IS_1)
    with pytest.raises(TraceFormatError):
        run_compare(sub, empty)


# -- database image --------------------------------------------------------------------------------


def test_word_db_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    words = ["".join(rng.choice(list("01X"), 5)) for _ in range(7)]
    db = WordDb(5, Mode.NAND, [encode_word(w, Mode.NAND) for w in words])
    path = tmp_path / "words.img"
    save_word_db(path, db)
    loaded = load_word_db(path)
    assert loaded.word_length == 5 and loaded.mode is Mode.NAND
    assert [decode_column(c, Mode.NAND) for c in loaded.columns] == words


def test_word_db_image_deterministic(tmp_path):
    db = WordDb(3, Mode.NOR, [encode_word("01X", Mode.NOR)])
    a, b = tmp_path / "a.img", tmp_path / "b.img"
    save_word_db(a, db)
    save_word_db(b, db)
    assert a.read_bytes() == b.read_bytes()


def test_word_db_rejects_wrong_kind(tmp_path):
    from dramcam.cam import write_image
    path = tmp_path / "other.img"
    write_image(path, {"kind": "kmers"}, b"")
    with pytest.raises(EncodingFault):
        load_word_db(path)


def test_word_db_rejects_truncated_payload(tmp_path):
    from dramcam.cam import write_image
    path = tmp_path / "bad.img"
    write_image(path, {"kind": "words", "m": 4, "count": 3, "mode": "nand"},
                b"\x00")
    with pytest.raises(EncodingFault):
        load_word_db(path)


def test_match_vector_export_line():
    sub, layout = cam_with(["0101", "0011"], 4)
    vec = run_compare(sub, compile_nand_compare("0011", layout, T), columns=2)
    assert vec.to_line() == "01 match_is_1"
