"""Byte and time unit constants plus human-readable formatters.

All sizes in the library are plain ``float`` byte counts and all times are
plain ``float`` seconds of *simulated* time; these helpers keep call sites
readable (``21.8 * GB``) and log output legible.
"""

from __future__ import annotations

import math

KB: float = 1024.0
MB: float = 1024.0 * KB
GB: float = 1024.0 * MB
TB: float = 1024.0 * GB

MINUTE: float = 60.0
HOUR: float = 3600.0

_BYTE_STEPS = ((TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB"))


def fmt_bytes(n: float) -> str:
    """Format a byte count with a binary-unit suffix.

    >>> fmt_bytes(1536)
    '1.50 KB'
    >>> fmt_bytes(0)
    '0 B'
    """
    if n < 0:
        return "-" + fmt_bytes(-n)
    for step, suffix in _BYTE_STEPS:
        if n >= step:
            return f"{n / step:.2f} {suffix}"
    return f"{n:.0f} B"


_SUFFIXES = {
    "": 1.0, "b": 1.0,
    "k": KB, "kb": KB,
    "m": MB, "mb": MB,
    "g": GB, "gb": GB,
    "t": TB, "tb": TB,
}


def parse_bytes(text: str) -> float:
    """Parse a human byte count: ``"64M"``, ``"1.5GB"``, ``"4096"``.

    Binary units (1K = 1024), case-insensitive, optional ``B`` suffix.
    Raises ``ValueError`` on anything else, NaN and overflow to infinity
    included, so argparse renders it as a clean usage error.

    >>> parse_bytes("1.5K")
    1536.0
    >>> parse_bytes("100")
    100.0
    """
    s = str(text).strip().lower()
    i = len(s)
    while i > 0 and (s[i - 1].isalpha()):
        i -= 1
    number, suffix = s[:i].strip(), s[i:]
    if suffix not in _SUFFIXES or not number:
        raise ValueError(f"unrecognized byte size {text!r} (try e.g. '64M', '1.5GB')")
    try:
        value = float(number)
    except ValueError:
        raise ValueError(f"unrecognized byte size {text!r}") from None
    size = value * _SUFFIXES[suffix]
    if not 0 <= size < math.inf:
        raise ValueError(f"byte size must be finite and >= 0, got {text!r}")
    return size


def fmt_duration(seconds: float) -> str:
    """Format a duration in seconds as a compact h/m/s string.

    >>> fmt_duration(75)
    '1m15.0s'
    >>> fmt_duration(0.5)
    '0.500s'
    """
    if seconds < 0:
        return "-" + fmt_duration(-seconds)
    if seconds < MINUTE:
        return f"{seconds:.3f}s"
    if seconds < HOUR:
        minutes = int(seconds // MINUTE)
        return f"{minutes}m{seconds - minutes * MINUTE:.1f}s"
    hours = int(seconds // HOUR)
    rem = seconds - hours * HOUR
    minutes = int(rem // MINUTE)
    return f"{hours}h{minutes}m{rem - minutes * MINUTE:.0f}s"
