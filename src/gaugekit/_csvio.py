"""The one CSV codec of the artifacts: a header line, then comma-separated
rows of floats in numpy.savetxt's default format, %.18e.

write_csv writes flat tables. write_grid_csv writes tables over a product
grid, whose first two columns repeat an outer and an inner axis: it formats
each axis value once and only the value cells per row. Both write the bytes
of np.savetxt."""
import numpy as np

_BLOCK_ROWS = 1 << 14  # rows formatted by one % operation


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under a header line, byte for byte as
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header,
    comments="") does, but formatting a block of rows at a time."""
    body = np.column_stack(columns)
    row = ",".join(["%.18e"] * body.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(body), _BLOCK_ROWS):
            block = body[start:start + _BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def write_grid_csv(path, header: str, outer, inner, values) -> None:
    """Write the rows (outer[i], inner[k], values[i, k], ...) in outer-major
    order, byte for byte as write_csv(path, header, [np.repeat(outer, n),
    np.tile(inner, m)] + [v.ravel() for v in values]) does. values is one
    (m, n) array or a list of them; each outer row is one % operation."""
    if not isinstance(values, (list, tuple)):
        values = [values]
    outer = np.asarray(outer, dtype=float).ravel()
    inner = np.asarray(inner, dtype=float).ravel()
    cells = np.stack([np.asarray(v, dtype=float).reshape(outer.size, inner.size)
                      for v in values], axis=-1).reshape(outer.size, -1)
    value_cells = ",%.18e" * len(values) + "\n"
    tails = ["," + "%.18e" % x + value_cells for x in inner.tolist()]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for head, row in zip(("%.18e" % x for x in outer.tolist()), cells.tolist()):
            fh.write(head.join([""] + tails) % tuple(row))


def read_csv(path) -> np.ndarray:
    """The (rows, columns) body of a CSV written by write_csv or
    write_grid_csv."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
