"""Writes tick files for the parser's round-trip tests."""

from decimal import Decimal

from tickphys.market_data import _format_price


def serialize_ticks(events, tick_size: Decimal) -> str:
    """Inverse of parse_ticks for canonical-form files."""
    out = [f"# tick_size={format(tick_size.normalize(), 'f')}"]
    for e in events:
        out.append(f"{e.timestamp_ns},{_format_price(e.price, tick_size)},{e.kind},{e.volume}")
    return "\n".join(out) + "\n"
