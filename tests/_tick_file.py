"""Writes tick files for the parser's round-trip tests."""

from decimal import Decimal

from tickphys.market_data import _format_price


def serialize_ticks(ticks, tick_size: Decimal) -> str:
    """Inverse of parse_ticks for canonical-form files."""
    out = [f"# tick_size={format(tick_size.normalize(), 'f')}"]
    for ts, price, kind, volume in zip(
        ticks.timestamps_ns.tolist(), ticks.prices.tolist(), ticks.kinds.tolist(), ticks.volumes.tolist()
    ):
        out.append(f"{ts},{_format_price(price, tick_size)},{kind.decode()},{volume}")
    return "\n".join(out) + "\n"
