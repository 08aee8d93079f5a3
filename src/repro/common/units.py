"""Size unit helpers.

The paper talks about chunk sizes (16 MB), page sizes (typically 64 KB or
256 KB in MonetDB/X100), buffer pools of 1 GB and disk bandwidths of
~200 MB/s.  Keeping unit conversion in one place avoids the classic
"is this bytes or megabytes?" bug family.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer division rounding up.

    >>> ceil_div(10, 3)
    4
    >>> ceil_div(9, 3)
    3
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive, got %r" % (denominator,))
    return -(-numerator // denominator)
