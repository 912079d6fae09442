"""Cuts a file's bytes into the chunks of a stream, for the properties
that hold the readers to the same outcome however their input is cut."""

from hypothesis import strategies as st


@st.composite
def chunked(draw, data: bytes) -> list:
    """``data`` cut into chunks: one byte each, or at edges drawn anywhere,
    inside a "\\r\\n", inside a multi-byte UTF-8 sequence and inside the
    first line.  Edges may coincide, which gives empty chunks."""
    if draw(st.integers(0, 4)) == 0:
        return [data[i : i + 1] for i in range(len(data))]
    first = data.find(b"\n")
    inside = [i + 1 for i in range(len(data) - 1) if data[i : i + 2] == b"\r\n"]
    inside += [i for i, byte in enumerate(data) if 0x80 <= byte < 0xC0]  # a continuation byte
    inside += range(1, first if first >= 0 else len(data))
    edges = draw(st.lists(st.integers(0, len(data)), max_size=6))
    if inside:
        edges += draw(st.lists(st.sampled_from(inside), min_size=1, max_size=6))
    edges = [0, *sorted(edges), len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:])]
