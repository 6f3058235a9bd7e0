"""Panel rows as text. ``write_panel`` formats rows with ``format_rows``, and
runs this file in a second interpreter (``python -I -S``, so it imports only
the standard library) to format the second half of a large panel: a JSON line
of row prefixes and then the rows' float64 values in, the rows as UTF-8 out.
"""

import json
import sys
from array import array


def format_rows(prefixes, rows) -> str:
    """Each row as its prefix (its quoted date and a comma) and its values' ``repr``."""
    return "".join(f"{prefix}{','.join(map(repr, row))}\n" for prefix, row in zip(prefixes, rows))


if __name__ == "__main__":
    prefixes = json.loads(sys.stdin.buffer.readline())
    values = array("d", sys.stdin.buffer.read()).tolist()
    width = len(values) // len(prefixes)
    rows = (values[start : start + width] for start in range(0, len(values), width))
    sys.stdout.buffer.write(format_rows(prefixes, rows).encode())
