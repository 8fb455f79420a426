"""The output layer's per-field routes, as test oracles.

``cli._write_csv`` formats each row with one ``%s`` template, and
``svg._polyline_points`` each polyline with one ``%.2f`` template over the
interleaved coordinates.  This module keeps the routes they replaced:
``csv.writer`` with ``newline=""``, and each point formatted on its own by
``"{:.2f},{:.2f}".format``.  The tests compare the bytes.
"""

import csv


def write_csv(path, header, rows):
    """``header`` and ``rows`` written by ``csv.writer``, minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def polyline_points(canvas, xs, ys):
    """The polyline's ``"x,y x,y ..."`` text, one ``str.format`` call per point."""
    return " ".join(map("{:.2f},{:.2f}".format, canvas.x(xs).tolist(), canvas.y(ys).tolist()))
