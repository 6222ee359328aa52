"""Deterministic SVG rendering of worlds, roadmaps, plans, and runs.

Top-down orthographic view. Output is a pure function of the inputs: fixed
float formatting, stable element order, no timestamps, so re-rendering the
same scene yields byte-identical files.
"""

from __future__ import annotations

from .env import Environment
from .roadmap import EDGE_KINDS, EdgeKind, Roadmap

_CANVAS_W = 900.0
_PAD = 24.0

_EDGE_COLORS = {
    EdgeKind.GROUND: "#2a7d4f",
    EdgeKind.FLIGHT: "#4a90d9",
    EdgeKind.TRANSITION: "#e08a00",
}
_PATH_COLORS = {
    EdgeKind.GROUND: "#14532d",
    EdgeKind.FLIGHT: "#1d4ed8",
    EdgeKind.TRANSITION: "#b45309",
}
_MODE_COLORS = {
    "UGV": "#166534",
    "UAS": "#1e40af",
    "Morphing": "#b45309",
}


def _f(v: float) -> str:
    return f"{v:.3f}"


class _Canvas:
    """World-to-pixel mapping with a flipped y axis."""

    def __init__(self, env: Environment):
        lo, hi = env.bounds.min_corner, env.bounds.max_corner
        self.min_x, self.min_y = lo[0], lo[1]
        self.max_y = hi[1]
        extent_x = hi[0] - lo[0]
        extent_y = hi[1] - lo[1]
        self.scale = (_CANVAS_W - 2.0 * _PAD) / extent_x
        self.width = _CANVAS_W
        self.height = extent_y * self.scale + 2.0 * _PAD

    def px(self, x: float, y: float) -> tuple[float, float]:
        return (
            _PAD + (x - self.min_x) * self.scale,
            _PAD + (self.max_y - y) * self.scale,
        )


def _line(c: _Canvas, a, b, color: str, width: float, opacity: float = 1.0) -> str:
    x1, y1 = c.px(a[0], a[1])
    x2, y2 = c.px(b[0], b[1])
    op = "" if opacity >= 1.0 else f' stroke-opacity="{_f(opacity)}"'
    return (
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{color}" stroke-width="{_f(width)}"{op}/>'
    )


def _circle(c: _Canvas, p, r: float, fill: str) -> str:
    x, y = c.px(p[0], p[1])
    return f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(r)}" fill="{fill}"/>'


def render_svg(
    env: Environment,
    roadmap: Roadmap | None = None,
    plan=None,
    records=None,
    waypoints=None,
    start=None,
) -> str:
    """Compose an SVG scene from whatever layers are provided.

    Layers, bottom to top: arena outline and obstacles, roadmap edges
    colored by kind, planned path, executed trajectory colored by
    locomotion mode, then start and waypoint markers.
    """
    c = _Canvas(env)
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(c.width)}" '
        f'height="{_f(c.height)}" viewBox="0 0 {_f(c.width)} {_f(c.height)}">'
    )
    parts.append(f'<rect width="{_f(c.width)}" height="{_f(c.height)}" fill="#fafaf7"/>')

    lo, hi = env.bounds.min_corner, env.bounds.max_corner
    bx, by = c.px(lo[0], hi[1])
    parts.append(
        f'<rect x="{_f(bx)}" y="{_f(by)}" width="{_f((hi[0] - lo[0]) * c.scale)}" '
        f'height="{_f((hi[1] - lo[1]) * c.scale)}" fill="none" stroke="#333333" '
        f'stroke-width="1.500"/>'
    )
    for obs in env.obstacles:
        ox, oy = c.px(obs.min_corner[0], obs.max_corner[1])
        ow = (obs.max_corner[0] - obs.min_corner[0]) * c.scale
        oh = (obs.max_corner[1] - obs.min_corner[1]) * c.scale
        parts.append(
            f'<rect x="{_f(ox)}" y="{_f(oy)}" width="{_f(ow)}" height="{_f(oh)}" '
            f'fill="#8a8a8a" fill-opacity="0.750"/>'
        )

    if roadmap is not None:
        pos = roadmap.positions.tolist()
        for a, b, kind in zip(roadmap.a.tolist(), roadmap.b.tolist(), roadmap.kind.tolist()):
            parts.append(_line(c, pos[a], pos[b], _EDGE_COLORS[EDGE_KINDS[kind]], 0.8, 0.45))
        for p in pos:
            parts.append(_circle(c, p, 1.4, "#555555"))
        if plan is not None:
            for edge in plan.edges:
                parts.append(_line(c, pos[edge.a], pos[edge.b], _PATH_COLORS[edge.kind], 3.2))
            for nid in plan.node_ids:
                parts.append(_circle(c, pos[nid], 2.6, "#111111"))

    if records:
        # Split the trajectory into same-mode runs so each gets its color.
        run_start = 0
        for i in range(1, len(records) + 1):
            if i == len(records) or records[i].mode != records[run_start].mode:
                seg = records[max(0, run_start - 1) : i]
                if len(seg) >= 2:
                    pts = " ".join(
                        f"{_f(c.px(r.x, r.y)[0])},{_f(c.px(r.x, r.y)[1])}" for r in seg
                    )
                    color = _MODE_COLORS.get(records[run_start].mode, "#333333")
                    parts.append(
                        f'<polyline points="{pts}" fill="none" stroke="{color}" '
                        f'stroke-width="2.200"/>'
                    )
                run_start = i

    if waypoints:
        for i, wp in enumerate(waypoints):
            parts.append(_circle(c, wp, 4.5, "#d02020"))
            x, y = c.px(wp[0], wp[1])
            parts.append(
                f'<text x="{_f(x + 6.0)}" y="{_f(y - 6.0)}" font-size="11" '
                f'font-family="sans-serif" fill="#222222">{i + 1}</text>'
            )
    if start is not None:
        parts.append(_circle(c, start, 5.0, "#0a8a0a"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
