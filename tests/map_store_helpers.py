"""Reading a map CSV back, which only the tests do; attnloc.map_store writes maps."""

import csv

import numpy as np


def read_map(path: str) -> tuple[list[int], np.ndarray]:
    """(ids, (N, 2) points) of a map file written by save_map."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["id", "easting", "northing"]
    return [int(r[0]) for r in rows], np.array([[float(r[1]), float(r[2])] for r in rows]).reshape(-1, 2)
