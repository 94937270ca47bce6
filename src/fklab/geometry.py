"""Exact areas of triangle/disk intersections, for mesh-level quantities.

Used where only a mesh is at hand: measures of mesh regions outside a
ball (tail estimates) and the mesh symmetric difference with a ball
(``asymmetry.sym_diff_fraction``).  Each triangle is decomposed edge by
edge into circular sectors and chords, which gives the exact
intersection area with a disk; the only approximation left is the
polygonal boundary of the mesh itself.  Domain-level asymmetries use the
exact polar overlap of ``asymmetry.PolarOverlap`` instead.
"""

from __future__ import annotations

import numpy as np


def _cross(px, py, qx, qy):
    return px * qy - py * qx


def _sectors(px, py, qx, qy, r2):
    # signed circular sector between directions p and q (each edge subtends
    # an angle < pi as seen from the center, so atan2 picks the right branch)
    return 0.5 * r2 * np.arctan2(_cross(px, py, qx, qy), px * qx + py * qy)


def _edge_areas(px, py, qx, qy, r):
    """Signed |triangle(0, p, q) cap disk_r| for stacked edges (vectorized)."""
    r2 = r * r
    p2 = px * px + py * py
    q2 = qx * qx + qy * qy
    p_in = p2 <= r2
    q_in = q2 <= r2

    ex, ey = qx - px, qy - py
    a = ex * ex + ey * ey
    b = 2.0 * (px * ex + py * ey)
    c = p2 - r2
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(np.maximum(disc, 0.0))
    safe_a = np.where(a > 0.0, a, 1.0)
    t1 = (-b - sq) / (2.0 * safe_a)
    t2 = (-b + sq) / (2.0 * safe_a)
    x1, y1 = px + t1 * ex, py + t1 * ey
    x2, y2 = px + t2 * ex, py + t2 * ey

    both_in = 0.5 * _cross(px, py, qx, qy)
    exit_mid = 0.5 * _cross(px, py, x2, y2) + _sectors(x2, y2, qx, qy, r2)
    enter_mid = _sectors(px, py, x1, y1, r2) + 0.5 * _cross(x1, y1, qx, qy)
    pass_thru = (_sectors(px, py, x1, y1, r2)
                 + 0.5 * _cross(x1, y1, x2, y2)
                 + _sectors(x2, y2, qx, qy, r2))
    outside = _sectors(px, py, qx, qy, r2)

    crossing = (~p_in & ~q_in & (disc > 0.0)
                & (t1 > 0.0) & (t2 < 1.0) & (t1 < t2))
    out = np.where(p_in & q_in, both_in,
                   np.where(p_in, exit_mid,
                            np.where(q_in, enter_mid,
                                     np.where(crossing, pass_thru, outside))))
    return out


def triangles_disk_area(verts: np.ndarray, center, r: float) -> float:
    """Sum of |T cap disk| over a stack of triangles, shape (m, 3, 2).

    Triangles entirely inside the disk (all vertices inside, hence the
    whole triangle by convexity) or safely outside are resolved in bulk;
    the band cut by the circle goes through the exact edge decomposition.
    """
    v = np.asarray(verts, dtype=float) - np.asarray(center, dtype=float)
    r = float(r)
    d2 = v[:, :, 0] ** 2 + v[:, :, 1] ** 2
    rr = r * r
    all_in = np.all(d2 <= rr, axis=1)

    edges = v[:, [1, 2, 0]] - v
    edge_len = np.sqrt(np.max(np.sum(edges * edges, axis=2), axis=1))
    safely_out = np.min(d2, axis=1) > (r + edge_len) ** 2

    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    total = float(np.sum(areas[all_in]))

    band = ~(all_in | safely_out)
    if np.any(band):
        w = v[band]
        signed = np.zeros(len(w))
        for i in range(3):
            j = (i + 1) % 3
            signed += _edge_areas(w[:, i, 0], w[:, i, 1],
                                  w[:, j, 0], w[:, j, 1], r)
        total += float(np.sum(np.abs(signed)))
    return total

