"""The row-wise table writer the CLI used before it formatted column by
column: a byte-level oracle for ``cli.write_table``.

Rows are lists of Python floats.  CSV formats every value with
f"{v:.17g}"; JSON is ``json.dumps(indent=2)`` of the column lists.
"""

import json
import sys


def write_table(path, columns, rows, fmt):
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(f"{v:.17g}" for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        data = {name: [row[i] for row in rows] for i, name in enumerate(columns)}
        text = json.dumps(data, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
