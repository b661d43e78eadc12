"""The tests' writer of sequence CSVs, in the format harness.load_sequence reads."""

import csv


def save_sequence(seq, path):
    """Vectors go as x1..xd,y; matrix indicators as i,j,y."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if seq.kind == "matrix_completion":
            w.writerow(["i", "j", "y"])
            for (i, j), y in zip(seq.meta["indices"], seq.ys):
                w.writerow([i, j, f"{y:.12g}"])
        else:
            d = len(seq.xs[0])
            w.writerow([f"x{k + 1}" for k in range(d)] + ["y"])
            for x, y in zip(seq.xs, seq.ys):
                w.writerow([f"{v:.12g}" for v in x] + [f"{y:.12g}"])
