"""Dataset parsing, threshold partitions, and synthetic generation."""

import math
import tracemalloc

import numpy as np
import pytest

from qmedian import dataset as dataset_module
from qmedian import (
    DatasetParseError,
    DatasetSizeError,
    ParameterError,
    dataset_from_values,
    dataset_to_text,
    load_dataset,
    make_oracle,
    oracle_from_mask,
    rank_below,
    read_dataset,
    synth_dataset,
)


def test_dataset_from_values_basic():
    d = dataset_from_values(range(8))
    assert d.n == 3
    assert d.size == 8
    assert d.values.dtype == np.float64


def test_dataset_length_must_be_power_of_two():
    for bad in (0, 3, 5, 6, 7, 9, 1000):
        with pytest.raises(DatasetSizeError):
            dataset_from_values(range(bad))
    with pytest.raises(DatasetSizeError):
        dataset_from_values([1.0])  # single value: below the 2^1 minimum


def test_dataset_rejects_non_finite_and_non_1d():
    with pytest.raises(DatasetParseError):
        dataset_from_values([1.0, math.inf])
    with pytest.raises(DatasetParseError):
        dataset_from_values([1.0, math.nan])
    with pytest.raises(DatasetSizeError):
        dataset_from_values(np.zeros((2, 2)))


def test_load_dataset_skips_blank_lines():
    d = load_dataset("1.5\n\n  \n2.5\n-3\n4e2\n")
    assert d.values.tolist() == [1.5, 2.5, -3.0, 400.0]


def test_load_dataset_reports_line_number():
    with pytest.raises(DatasetParseError, match="line 3"):
        load_dataset("1\n2\nbogus\n4\n")


def test_load_dataset_line_endings_blanks_and_padding():
    want = [1.5, -2.0, 300.0, 4e-3]
    for text in ("1.5\r\n-2\r\n3e2\r\n0.004\r\n",
                 "\n1.5\n\n-2\n   \n3e2\n0.004\n\n",
                 "  1.5\n\t-2 \n3e2   \n 0.004"):
        assert load_dataset(text).values.tolist() == want


def test_load_dataset_reports_line_of_two_values():
    with pytest.raises(DatasetParseError, match=r"line 3: not a decimal: '1 2'"):
        load_dataset("1\n2\n1 2\n4\n")


def test_dataset_to_text_matches_per_value_format():
    vals = [1e16, 5e-324, np.finfo(np.float64).max, -0.0, 0.1, 1.0, -1 / 3, 2.5]
    d = dataset_from_values(vals)
    assert dataset_to_text(d) == "".join(format(v, ".17g") + "\n" for v in vals)


def test_load_dataset_empty_is_size_error():
    with pytest.raises(DatasetSizeError):
        load_dataset("\n \n")


def test_text_round_trip_preserves_doubles(tmp_path):
    vals = [0.1, -1 / 3, 1e-300, 12345.6789, 0.06600880000000008]
    d = dataset_from_values(vals + [0.0, 1.0, 2.0])
    p = tmp_path / "d.txt"
    p.write_text(dataset_to_text(d))
    back = read_dataset(p)
    assert back.values.tolist() == d.values.tolist()


def _outcome(parse, source):
    """The parsed values' bits, or the error's type and message."""
    try:
        return parse(source).values.view(np.uint64).tolist()
    except (DatasetParseError, DatasetSizeError) as e:
        return type(e), str(e)


# Each text runs through one block (the default size) as the reference,
# then through blocks of a few characters: line endings, a line across a
# block edge, an edge exactly after a "\n", separators other than "\n",
# and errors that must name the line's number in the whole text.
BLOCK_TEXTS = [
    "1.25\n-3.5\n12345.678\n0.1\n5e-324\n-0\n1e300\n-0.06600880000000008\n",
    "1234567\n89\n1234567\n89\n",  # an 8-character block ends at its "\n"
    "1.5\r\n-2\r\n3e2\r\n0.004",  # CRLF, and no newline after the last line
    "1.5\n-2\n3e2\n0.004",
    "1\r2\r3\r4\r",
    "1\x0c2\n3\n4\n",  # \x0c splits a line, as splitlines() does
    "1\n2\n3\n4\n5\n6\n\n7\n  \n8\n",  # blanks in a later block
    "1\n2\n3\n4\n5\n6\n7\nbogus\n",
    "1\n2\n3\n4\n5\n6\n\n7\n1 2\n8\n",
    "1\n2\n3\n4\n5\n6\n7\n8\x0c9\n",  # 9 values: a size error
    "1\n2\n3\ninf\n",
    "",
    "\n \n\t\n",
    "   ",
]


@pytest.mark.parametrize("text", BLOCK_TEXTS)
def test_block_parse_matches_one_block(text, tmp_path, monkeypatch):
    path = tmp_path / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(load_dataset, text)
    for block in (1, 2, 3, 5, 8):
        monkeypatch.setattr(dataset_module, "_BLOCK", block)
        assert _outcome(load_dataset, text) == want, block
        assert _outcome(read_dataset, path) == want, block


def test_block_parse_reports_the_global_line_number(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset_module, "_BLOCK", 4)
    text = "1\n2\n3\n\n4\n5\n6\nbogus\n"
    path = tmp_path / "d.txt"
    path.write_text(text)
    for parse, source in ((load_dataset, text), (read_dataset, path)):
        with pytest.raises(DatasetParseError, match=r"^line 8: not a decimal: 'bogus'$"):
            parse(source)
    path.write_text(" \n\n\t")
    for parse, source in ((load_dataset, ""), (load_dataset, " \n\n\t"), (read_dataset, path)):
        with pytest.raises(DatasetSizeError, match="^dataset is empty$"):
            parse(source)


def test_read_dataset_rejects_text_that_is_not_utf8(tmp_path, monkeypatch):
    path = tmp_path / "d.txt"
    path.write_bytes(b"\xff\xfe1.5\n")
    with pytest.raises(DatasetParseError, match="not UTF-8 text"):
        read_dataset(path)
    # the bad byte sits blocks past the start
    monkeypatch.setattr(dataset_module, "_BLOCK", 2)
    path.write_bytes(b"1\n2\n3\n4\n5\n\xc3(\n")
    with pytest.raises(DatasetParseError, match="not UTF-8 text"):
        read_dataset(path)


def test_read_dataset_peak_memory_is_a_few_blocks(tmp_path):
    d, _ = synth_dataset(18, 0.03, 0.0, 7)
    path = tmp_path / "d.txt"
    path.write_text(dataset_to_text(d))
    tracemalloc.start()
    try:
        back = read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values.view(np.uint64), d.values.view(np.uint64))
    # the values take 2 MiB; parsing all of the file's lines at once peaks near 26 MiB
    assert peak < 8 * 2**20, peak


def test_make_oracle_counts_and_exact_eps():
    d = dataset_from_values(range(32))
    o = make_oracle(d, 17.0)
    assert (o.n_below, o.n_above) == (17, 15)
    assert o.eps == 2 / 32
    assert o.below_mask.sum() == 17
    assert o.above_mask.sum() == 15
    assert o.size == 32


def test_make_oracle_ties_count_as_above():
    d = dataset_from_values([1.0, 2.0, 2.0, 3.0])
    o = make_oracle(d, 2.0)
    assert o.n_below == 1
    assert o.eps == (1 - 3) / 4


def test_make_oracle_rejects_non_finite_threshold():
    d = dataset_from_values(range(4))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError):
            make_oracle(d, bad)


def test_oracle_eps_sits_on_grid():
    d = dataset_from_values(range(16))
    for mu in (0.5, 3.7, 8.0, 15.5, 100.0, -5.0):
        o = make_oracle(d, mu)
        j = (o.eps + 1.0) * o.size / 2
        assert j == int(j)


def test_oracle_from_mask():
    o = oracle_from_mask(3, np.arange(8) < 3)
    assert o.n_below == 3
    assert o.eps == (3 - 5) / 8
    assert o.below_mask.tolist() == [True] * 3 + [False] * 5


def test_rank_below():
    d = dataset_from_values([3.0, 1.0, 4.0, 1.0])
    assert rank_below(d, 2.0) == 2
    assert rank_below(d, 1.0) == 0
    assert rank_below(d, 100.0) == 4


def test_synth_dataset_hits_grid_target():
    d, achieved = synth_dataset(6, 0.125, 10.0, seed=3)
    assert achieved == 0.125
    assert make_oracle(d, 10.0).eps == 0.125
    assert d.size == 64


def test_synth_dataset_rounds_off_grid_target():
    d, achieved = synth_dataset(4, 0.1, 0.0, seed=1)
    # nearest below-count to 16*(1.1)/2 = 8.8 is 9 -> eps = 2/16
    assert achieved == 0.125
    assert make_oracle(d, 0.0).eps == achieved


def test_synth_dataset_below_values_strictly_below_mu():
    d, _ = synth_dataset(8, 0.9, 5.0, seed=2)
    below = d.values[d.values < 5.0]
    assert below.size == make_oracle(d, 5.0).n_below
    assert float(below.max()) < 5.0
    above = d.values[d.values >= 5.0]
    assert float(above.min()) >= 5.0


def test_synth_dataset_deterministic_and_seed_sensitive():
    a1, _ = synth_dataset(5, 0.0, 0.0, seed=9)
    a2, _ = synth_dataset(5, 0.0, 0.0, seed=9)
    b, _ = synth_dataset(5, 0.0, 0.0, seed=10)
    assert a1.values.tolist() == a2.values.tolist()
    assert a1.values.tolist() != b.values.tolist()


def test_synth_dataset_extreme_targets():
    d, achieved = synth_dataset(4, 1.0, 0.0, seed=0)
    assert achieved == 1.0
    assert make_oracle(d, 0.0).eps == 1.0
    d, achieved = synth_dataset(4, -1.0, 0.0, seed=0)
    assert achieved == -1.0


def test_synth_dataset_validation():
    with pytest.raises(ParameterError):
        synth_dataset(0, 0.0, 0.0, seed=0)
    with pytest.raises(ParameterError):
        synth_dataset(4, 1.5, 0.0, seed=0)
