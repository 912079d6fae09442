"""The readers' shared byte kernel held to its earlier form.

``market_data._number`` counts digits and dots in its Horner pass, and
``market_data._blocks`` checks field counts by comma stride; the kernel
they replaced lives in ``_reference_kernel``.  Both must classify and
read every cell alike, and cut every text into the same rows, cells and
errors, whatever the block size and however the bytes are cut into chunks.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_kernel as reference
from _chunks import chunked
from tickphys import MalformedRow
from tickphys import market_data

# 19-digit and int64 edges, and cells just past the 21-byte window
edge_cells = st.sampled_from([
    "9223372036854775807", "-9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "9999999999999999999", "-9999999999999999999", "10000000000000000000",
    "922337203685477580.7", "0.000000000000000001", "-.9223372036854775807", "99999999999999999999",
    "-999999999999999999.9", "-9999999999999999999.", "1234567890123456789.0", "-1234567890123456789.01",
    "000000000000000000001", "0000000000000000000000.1", "-00000000000000000000001",
])
cells = st.one_of(
    st.text(alphabet="0123456789.-+e ", max_size=24),
    st.from_regex(r"-?[0-9]{0,22}(\.[0-9]{0,22})?", fullmatch=True),
    st.integers(-(10**20), 10**20).map(str),
    edge_cells,
    st.just(""),
)


def _cut(text, n_fields):
    """The rows of a headerless text, as the reference kernel cuts them."""
    return list(reference._blocks(text, n_fields, []))


tables = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=30)
)


@settings(max_examples=400, deadline=None)
@given(rows=tables)
def test_number_reads_every_cell_like_the_reference(rows):
    text = "\n".join(",".join(row) for row in rows) + "\n"
    for _, blk, s, e in _cut(text, len(rows[0])):
        # the readers pass whole groups of columns and single columns
        for cols in (slice(None), 0, slice(1, None)):
            value, frac, ok = market_data._number(blk, s[:, cols], e[:, cols])
            ref_value, ref_frac, ref_ok = reference._number(blk, s[:, cols], e[:, cols])
            np.testing.assert_array_equal(ok, ref_ok)
            np.testing.assert_array_equal(value[ok], ref_value[ok])
            np.testing.assert_array_equal(frac[ok], ref_frac[ok])
            # the regular reader indexes 10**frac before it masks
            assert ((0 <= frac) & (frac <= 20)).all()


def _outcome(blocks, data, n_fields, with_comments):
    notes = [] if with_comments else None
    out = []
    try:
        for lineno, blk, s, e in blocks(data, n_fields, notes):
            out.append((lineno.tolist(), blk.tobytes(), s.tolist(), e.tolist()))
    except MalformedRow as exc:
        out.append((exc.line, str(exc)))
    # the kernel keeps a comment's bytes, the reference its decoded text
    return out, notes and [(k, line if isinstance(line, bytes) else line.encode()) for k, line in notes]


lines = st.one_of(
    st.sampled_from(["", " ", "\t", " \t\r", "#", "# note", "#a,b,c"]),
    # a row of about n fields; one short and one long row cancel out in total
    st.tuples(st.integers(-1, 1), st.sampled_from(["7", "-1.5", "", " x "])),
)


@settings(max_examples=400, deadline=None)
@given(
    picked=st.lists(lines, max_size=25),
    n_fields=st.integers(2, 5),
    with_comments=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    end=st.sampled_from(["", "\n"]),
    block=st.sampled_from([1, 2, 3, reference._BLOCK_LINES]),
)
# a short row, then a long one: as many commas in all as the rows need
@example(picked=["#", (0, "7"), (-1, "7"), (1, "7"), (0, "7")], n_fields=3, with_comments=False,
         newline="\n", end="", block=reference._BLOCK_LINES)
def test_blocks_cut_rows_like_the_reference(picked, n_fields, with_comments, newline, end, block):
    text = newline.join(
        line if isinstance(line, str) else ",".join([line[1]] * (n_fields + line[0]))
        for line in picked
    ) + end
    with mock.patch.object(market_data, "_BLOCK_LINES", block), \
            mock.patch.object(reference, "_BLOCK_LINES", block):
        got = _outcome(market_data._blocks, text.encode(), n_fields, with_comments)
        assert got == _outcome(reference._blocks, text, n_fields, with_comments)


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    picked=st.lists(st.one_of(lines, st.sampled_from(["# caf\u00e9", "\u00e9,\u20ac", "\U0001f600"])),
                    max_size=25),
    n_fields=st.integers(2, 5),
    with_comments=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    end=st.sampled_from(["", "\n"]),
    block=st.sampled_from([1, 2, 3, reference._BLOCK_LINES]),
)
def test_blocks_cut_chunks_like_one_buffer(data, picked, n_fields, with_comments, newline, end, block):
    """A stream of chunks, cut anywhere, gives the blocks, comments and
    error of its bytes in one piece."""
    raw = (newline.join(
        line if isinstance(line, str) else ",".join([line[1]] * (n_fields + line[0]))
        for line in picked
    ) + end).encode()
    chunks = data.draw(chunked(raw))
    with mock.patch.object(market_data, "_BLOCK_LINES", block):
        got = _outcome(market_data._blocks, iter(chunks), n_fields, with_comments)
        assert got == _outcome(market_data._blocks, [raw], n_fields, with_comments)
