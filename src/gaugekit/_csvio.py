"""The one CSV codec of the artifacts: a header line, then comma-separated
rows of floats in numpy.savetxt's default format, %.18e."""
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


def read_csv(path) -> np.ndarray:
    """The (rows, columns) body of a CSV written by write_csv."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
