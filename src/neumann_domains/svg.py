"""SVG rendering of the partition: solid Neumann lines, dashed nodal set,
circles at saddles, triangles at extrema (up for maxima, down for minima)."""

import numpy as np

from . import torus
from .geometry import stride_indices

SCALE = 120.0           # pixels per unit; fundamental domain is 2*pi wide
MARGIN = 12.0
LINE_DECIMATE = 20      # every n-th Neumann line sample is drawn


def _to_px(pts, height):
    x = MARGIN + SCALE * pts[:, 0]
    y = height - (MARGIN + SCALE * pts[:, 1])   # y up
    return np.stack([x, y], axis=-1)


def _split_wrapped(pts):
    """Wrap a polyline into the fundamental domain, splitting at seam jumps."""
    w = torus.wrap(pts)
    jumps = np.flatnonzero(np.any(np.abs(np.diff(w, axis=0)) > np.pi, axis=1))
    pieces = []
    start = 0
    for j in jumps:
        pieces.append(w[start:j + 1])
        start = j + 1
    pieces.append(w[start:])
    return [p for p in pieces if len(p) >= 2]


def _path(points, height, style, decimate=1):
    px = _to_px(points[stride_indices(len(points), decimate)], height)
    d = "M " + " L ".join(f"{p[0]:.2f} {p[1]:.2f}" for p in px)
    return f'<path d="{d}" fill="none" {style}/>'


def render_complex_svg(cx, nodal_polylines=None, path=None):
    """Draw the complex (and optionally the nodal set) as an SVG string."""
    size = 2 * MARGIN + SCALE * torus.PERIOD
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
           f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
           f'<rect x="{MARGIN}" y="{MARGIN}" width="{SCALE * torus.PERIOD:.2f}" '
           f'height="{SCALE * torus.PERIOD:.2f}" fill="white" stroke="#999"/>']
    line_style = 'stroke="#1a1a1a" stroke-width="1.6"'
    nodal_style = 'stroke="#666" stroke-width="1.2" stroke-dasharray="6 4"'
    for ln in cx.lines:
        for piece in _split_wrapped(ln.samples):
            out.append(_path(piece, size, line_style, LINE_DECIMATE))
    if nodal_polylines:
        for pl in nodal_polylines:
            for piece in _split_wrapped(pl):
                out.append(_path(piece, size, nodal_style, 1))
    r = 5.0
    for c in cx.critical_points:
        p = _to_px(c.position[None, :], size)[0]
        if c.kind == "saddle":
            out.append(f'<circle cx="{p[0]:.2f}" cy="{p[1]:.2f}" r="{r}" '
                       'fill="white" stroke="#c22" stroke-width="1.5"/>')
        elif c.kind == "maximum":
            out.append(f'<polygon points="{p[0]:.2f},{p[1] - r:.2f} '
                       f'{p[0] - r:.2f},{p[1] + r:.2f} {p[0] + r:.2f},{p[1] + r:.2f}" '
                       'fill="#c22"/>')
        else:
            out.append(f'<polygon points="{p[0]:.2f},{p[1] + r:.2f} '
                       f'{p[0] - r:.2f},{p[1] - r:.2f} {p[0] + r:.2f},{p[1] - r:.2f}" '
                       'fill="#22c"/>')
    out.append("</svg>")
    s = "\n".join(out) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(s)
    return s
