"""Hand-rolled SVG emission, deterministic byte for byte.

No drawing library: the figures are polylines, rectangles, circles and
text in a fixed viewport, so string assembly keeps the output stable
across environments.  Marker circles carry data-x / data-y attributes
with the full-precision coordinates so figures stay machine-checkable.
"""

from .attractor import _CHUNK
from .scalars import to_float

_W, _H = 800.0, 500.0
_MARGIN = 55.0

_STYLE = (
    "  <style>\n"
    "    .curve { fill: none; stroke: #222222; stroke-width: 1.4; }\n"
    "    .piece-a { fill: none; stroke: #1f6fb4; stroke-width: 2.4; }\n"
    "    .piece-b { fill: none; stroke: #c23b22; stroke-width: 2.4; }\n"
    "    .overlap { fill: #f4d35e; fill-opacity: 0.45; stroke: none; }\n"
    "    .axis { stroke: #555555; stroke-width: 1; }\n"
    "    .marker { fill: #111111; }\n"
    "    .label { font: 12px sans-serif; fill: #333333; }\n"
    "  </style>\n"
)

# everything a document holds before its first element
_OPEN = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" '
         f'height="{_H:.0f}" viewBox="0 0 {_W:.0f} {_H:.0f}">\n' + _STYLE)


def _fmt(v: float) -> str:
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


class _Frame:
    """Affine data-to-pixel transform with a padded data window."""

    def __init__(self, xlo, xhi, ylo, yhi):
        if xhi <= xlo:
            xhi = xlo + 1.0
        if yhi <= ylo:
            pad = max(1.0, abs(ylo)) * 0.5
            ylo, yhi = ylo - pad, ylo + pad
        padx = (xhi - xlo) * 0.04
        pady = (yhi - ylo) * 0.08
        self.xlo, self.xhi = xlo - padx, xhi + padx
        self.ylo, self.yhi = ylo - pady, yhi + pady

    def px(self, x):
        t = (x - self.xlo) / (self.xhi - self.xlo)
        return _MARGIN + t * (_W - 2 * _MARGIN)

    def py(self, y):
        t = (y - self.ylo) / (self.yhi - self.ylo)
        return _H - _MARGIN - t * (_H - 2 * _MARGIN)


def _polyline(frame, chunks, css):
    """The parts of a polyline element through the points of chunks, an
    iterable of (xs, ys) float lists, one part per chunk; to be joined
    with the document's.

    _Frame.px/py and _fmt inlined: the same float operations, and at
    three decimals "-0.000" can only be a whole coordinate, so it is
    replaced chunk by chunk.  Chunks of a few thousand points keep a
    string per point from being held all at once.
    """
    xlo, dx, wx = frame.xlo, frame.xhi - frame.xlo, _W - 2 * _MARGIN
    ylo, dy, hy, top = frame.ylo, frame.yhi - frame.ylo, _H - 2 * _MARGIN, _H - _MARGIN
    parts = [f'  <polyline class="{css}" points="']
    for xs, ys in chunks:
        if len(parts) > 1:
            parts.append(" ")
        parts.append(" ".join([
            f"{_MARGIN + (x - xlo) / dx * wx:.3f},{top - (y - ylo) / dy * hy:.3f}"
            for x, y in zip(xs, ys)
        ]).replace("-0.000", "0.000"))
    parts.append('"/>\n')
    return parts


def _chunked(xs, ys):
    # float columns as _polyline's chunks, _CHUNK points each
    return ((xs[i:i + _CHUNK], ys[i:i + _CHUNK]) for i in range(0, len(xs), _CHUNK))


def _axes(frame, xlo, xhi, ylo, yhi):
    x0, x1 = frame.px(xlo), frame.px(xhi)
    y0, y1 = frame.py(ylo), frame.py(yhi)
    out = [
        f'  <line class="axis" x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
        f'x2="{_fmt(x1)}" y2="{_fmt(y0)}"/>\n',
        f'  <line class="axis" x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
        f'x2="{_fmt(x0)}" y2="{_fmt(y1)}"/>\n',
    ]
    for (vx, vy, text, anchor, dy) in (
        (xlo, ylo, repr(float(xlo)), "middle", 16.0),
        (xhi, ylo, repr(float(xhi)), "middle", 16.0),
        (xlo, yhi, repr(float(yhi)), "end", 4.0),
    ):
        out.append(
            f'  <text class="label" text-anchor="{anchor}" '
            f'x="{_fmt(frame.px(vx) - (8.0 if anchor == "end" else 0.0))}" '
            f'y="{_fmt(frame.py(vy) + dy)}">{text}</text>\n'
        )
    return "".join(out)


def _markers(frame, marked):
    out = []
    for (x, y) in marked:
        xf, yf = to_float(x), to_float(y)
        out.append(
            f'  <circle class="marker" cx="{_fmt(frame.px(xf))}" '
            f'cy="{_fmt(frame.py(yf))}" r="4" data-x="{xf!r}" data-y="{yf!r}"/>\n'
        )
    return "".join(out)


def _graph_parts(sample, interval, chunks, marked=()):
    """graph_svg's document as a list of parts, its polyline drawn from
    chunks, the sample's `column_chunks()` or an iterable yielding them;
    the frame comes from the sample's extent, so no chunk is read first."""
    xlo, xhi, ylo, yhi = sample.extent()
    frame = _Frame(xlo, xhi, ylo, yhi)
    parts = [_OPEN, _axes(frame, to_float(interval[0]), to_float(interval[1]), ylo, yhi)]
    parts += _polyline(frame, chunks, "curve")
    parts += [_markers(frame, marked), "</svg>\n"]
    return parts


def graph_svg(sample, interval, marked=()) -> str:
    """Polyline of a GraphSample's float columns with axes and optional
    marked points."""
    return "".join(_graph_parts(sample, interval, sample.column_chunks(), marked))


def overlap_svg(sample, interval, sub_a, sub_b, strip_x, marked=()) -> str:
    """Attractor with two generator images overlaid and a shaded strip.

    sample is a GraphSample, drawn from its float columns; sub_a and
    sub_b are (xs, ys) float columns (the images of the sample under two
    chosen maps); strip_x = (lo, hi) is shaded over the full height.
    """
    xlo, xhi, ylo, yhi = sample.extent()
    frame = _Frame(xlo, xhi, ylo, yhi)
    lo, hi = (to_float(strip_x[0]), to_float(strip_x[1]))
    x0, x1 = frame.px(lo), frame.px(hi)
    ytop, ybot = frame.py(frame.yhi), frame.py(frame.ylo)
    parts = [
        _OPEN,
        f'  <rect class="overlap" x="{_fmt(x0)}" y="{_fmt(ytop)}" '
        f'width="{_fmt(x1 - x0)}" height="{_fmt(ybot - ytop)}"/>\n',
        _axes(frame, to_float(interval[0]), to_float(interval[1]), ylo, yhi),
    ]
    parts += _polyline(frame, sample.column_chunks(), "curve")
    parts += _polyline(frame, _chunked(*sub_a), "piece-a")
    parts += _polyline(frame, _chunked(*sub_b), "piece-b")
    parts += [_markers(frame, marked), "</svg>\n"]
    return "".join(parts)
