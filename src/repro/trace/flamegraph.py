"""Self-contained flamegraph SVG writer for folded stacks.

Renders the classic flamegraph layout — one rectangle per (stack-prefix)
node, width proportional to its cycles, children stacked above parents —
from the exact ``{"frame;frame;...": self_cycles}`` dict
:meth:`~repro.trace.Attribution.folded` produces.  No
external dependencies and no JavaScript: plain ``<rect>``/``<text>``
elements with ``<title>`` tooltips, loadable in any browser or image
viewer straight from a CI artifact.

Colors are a deterministic warm palette hashed from the frame name
(CRC32, not ``hash()``, which is salted per process), so the same
profile renders the same SVG byte for byte — diffs between runs are
meaningful.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from xml.sax.saxutils import escape

#: layout constants (pixels)
WIDTH = 1200
ROW_HEIGHT = 17
PAD_TOP = 40
PAD_BOTTOM = 24
MIN_RECT_PX = 0.3        # rectangles narrower than this are dropped
CHAR_PX = 6.6            # ~px per character at font-size 11


class _Node:
    __slots__ = ("name", "value", "children")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.children: dict[str, _Node] = {}

    def child(self, name: str) -> "_Node":
        c = self.children.get(name)
        if c is None:
            c = self.children[name] = _Node(name)
        return c


def _build_tree(folded: dict[str, int]) -> _Node:
    root = _Node("all")
    for stack, count in folded.items():
        if count <= 0:
            continue
        root.value += count
        node = root
        for frame in stack.split(";"):
            node = node.child(frame)
            node.value += count
    return root


def _color(name: str) -> str:
    """Deterministic flame palette: hue from yellow to red by name hash."""
    h = zlib.crc32(name.encode("utf-8", "replace"))
    r = 205 + (h & 0x1F)              # 205..236
    g = 60 + ((h >> 5) & 0x7F)        # 60..187
    b = (h >> 12) & 0x37              # 0..55
    return f"rgb({r},{g},{b})"


def _depth(node: _Node) -> int:
    if not node.children:
        return 1
    return 1 + max(_depth(c) for c in node.children.values())


def flamegraph_svg(folded: dict[str, int], *,
                   title: str = "repro flamegraph",
                   width: int = WIDTH) -> str:
    """Render folded stacks to an SVG document string."""
    root = _build_tree(folded)
    total = root.value
    depth = _depth(root) if total else 1
    height = PAD_TOP + depth * ROW_HEIGHT + PAD_BOTTOM
    px_per = (width / total) if total else 0.0

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#f8f8f8"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-size="14">{escape(title)}</text>',
        f'<text x="{width // 2}" y="{height - 8}" text-anchor="middle" '
        f'fill="#555">{total:,} cycles</text>',
    ]

    def emit(node: _Node, x: float, level: int) -> None:
        w = node.value * px_per
        if w < MIN_RECT_PX:
            return
        # rows grow upwards from the bottom, flamegraph style
        y = PAD_TOP + (depth - 1 - level) * ROW_HEIGHT
        pct = 100.0 * node.value / total if total else 0.0
        label = escape(node.name)
        out.append(
            f'<g><title>{label} ({node.value:,} cycles, '
            f'{pct:.2f}%)</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{max(w - 0.5, MIN_RECT_PX):.2f}" '
            f'height="{ROW_HEIGHT - 1}" fill="{_color(node.name)}" '
            f'rx="1"/>')
        max_chars = int(w / CHAR_PX)
        if max_chars >= 3:
            text = node.name if len(node.name) <= max_chars \
                else node.name[:max_chars - 1] + "…"
            out.append(
                f'<text x="{x + 3:.2f}" y="{y + ROW_HEIGHT - 5}" '
                f'fill="#111">{escape(text)}</text>')
        out.append('</g>')
        cx = x
        for name in sorted(node.children):
            child = node.children[name]
            emit(child, cx, level + 1)
            cx += child.value * px_per

    if total:
        emit(root, 0.0, 0)
    else:
        out.append(f'<text x="{width // 2}" y="{height // 2}" '
                   f'text-anchor="middle" fill="#999">(empty)</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_folded(folded: dict[str, int], path) -> Path:
    """Write folded stacks one ``stack count`` line each (sorted), the
    format every flamegraph toolchain reads; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("".join(f"{stack} {n}\n"
                         for stack, n in sorted(folded.items())))
    return p


def write_flamegraph(folded: dict[str, int], path, *,
                     title: str = "repro flamegraph",
                     width: int = WIDTH) -> Path:
    """Serialize :func:`flamegraph_svg` to ``path``; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(flamegraph_svg(folded, title=title, width=width))
    return p
