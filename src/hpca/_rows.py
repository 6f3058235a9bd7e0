"""Panel rows as text. ``write_panel`` formats rows with ``format_row``, and
runs this file in a second interpreter (``python -I -S``, so it imports only
the standard library) to format the second half of a large panel: a JSON line
of row prefixes and then the rows' float64 values in, the rows as UTF-8 out.
"""

import json
import sys
from array import array


def format_row(prefix, row) -> str:
    """A row as its prefix (its quoted date and a comma) and its values' ``repr``."""
    return f"{prefix}{','.join(map(repr, row))}\n"


if __name__ == "__main__":
    prefixes = json.loads(sys.stdin.buffer.readline())
    values = array("d", sys.stdin.buffer.read())
    width = len(values) // len(prefixes)
    # Format every row before writing: a full pipe would wait until the reader ends its half.
    rows = [format_row(p, values[i * width : (i + 1) * width]) for i, p in enumerate(prefixes)]
    sys.stdout.buffer.writelines(row.encode() for row in rows)
