import random

import pytest

from fifkit.svg import _H, _MARGIN, _W, _chunked, _fmt, _Frame, _polyline


def per_point_polyline(frame, xs, ys, css):
    # the polyline as it was built before: one _Frame.px/py and _fmt per value
    coords = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in zip(xs, ys))
    return f'  <polyline class="{css}" points="{coords}"/>\n'


def x_at(frame, px):
    """An abscissa that lands near pixel column px."""
    return frame.xlo + (px - _MARGIN) / (_W - 2 * _MARGIN) * (frame.xhi - frame.xlo)


def y_at(frame, py):
    """An ordinate that lands near pixel row py."""
    return frame.ylo + (_H - _MARGIN - py) / (_H - 2 * _MARGIN) * (frame.yhi - frame.ylo)


FRAMES = {
    "plain": (0.0, 1.0, -0.25, 0.5),
    "offset": (-3.7, 12.1, 100.0, 100.03),
    "point": (0.5, 0.5, 2.0, 2.0),  # xhi <= xlo and a flat y
    "flat-zero": (-1.0, 1.0, 0.0, 0.0),
}


@pytest.mark.parametrize("bounds", FRAMES.values(), ids=FRAMES)
def test_polyline_matches_per_point_form(bounds):
    frame = _Frame(*bounds)
    xlo, xhi, ylo, yhi = bounds
    # frame corners, the padded data extremes, and the data's own corners
    xs = [frame.xlo, frame.xhi, frame.xlo, frame.xhi, xlo, xhi]
    ys = [frame.ylo, frame.yhi, frame.yhi, frame.ylo, ylo, yhi]
    # pixels just below zero print 0.000; -10.0004 prints -10.000.  They
    # come before and after 8,500 random points, so that they fall in
    # the first 4096-point chunk and in the third
    pixels = (-0.0004999, -0.0004, -0.0001, -1e-9, -0.0, 0.0, 0.0004, -0.0006,
              -10.0004, -10.0006, -123.45649)
    xs += [x_at(frame, px) for px in pixels]
    ys += [y_at(frame, px) for px in pixels]
    rng = random.Random(1986)
    for _ in range(8500):
        xs.append(rng.uniform(frame.xlo - 1.0, frame.xhi + 1.0))
        ys.append(rng.uniform(frame.ylo - 1.0, frame.yhi + 1.0))
    xs += [x_at(frame, px) for px in pixels]
    ys += [y_at(frame, px) for px in pixels]
    want = per_point_polyline(frame, xs, ys, "curve")
    got = "".join(_polyline(frame, _chunked(xs, ys), "curve"))
    assert got == want
    # chunk bounds do not show: one chunk, a first chunk of one point, and
    # a chunk of more than 4096 points
    for cuts in ((0, len(xs)), (0, 1, 17, len(xs)), (0, 5000, len(xs))):
        chunks = [(xs[u:v], ys[u:v]) for u, v in zip(cuts, cuts[1:])]
        assert "".join(_polyline(frame, chunks, "curve")) == want
    # the cases above reach both a negative zero and a negative pixel
    raw = [f"{frame.px(x):.3f}" for x in xs] + [f"{frame.py(y):.3f}" for y in ys]
    assert "-0.000" in raw and "-10.000" in raw
    assert "-0.000" not in got and "-10.000" in got

