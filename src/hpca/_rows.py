"""Panel values as text. ``write_panel`` formats rows with ``format_values``,
and runs this file in a second interpreter (``python -I -S``, so it imports
only the standard library) to format the second half of a large panel: the
row width as its one argument, the rows' raw float64 values on stdin, and
one line of values per row on stdout, written row by row. Both are files.
"""

import sys


def format_values(row) -> str:
    """A row's values as their comma-separated ``repr``, ending the line."""
    return f"{','.join(map(repr, row))}\n"


if __name__ == "__main__":
    width = int(sys.argv[1])
    values = memoryview(sys.stdin.buffer.read()).cast("d")
    sys.stdout.buffer.writelines(
        format_values(values[i : i + width]).encode() for i in range(0, len(values), width)
    )
