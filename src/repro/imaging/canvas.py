"""A tiny software rasteriser over numpy arrays.

Images are float64 arrays of shape ``(size, size, 3)`` with values in
[0, 1].  All primitives work in *normalised* coordinates — ``(0.0, 0.0)``
is the top-left corner and ``(1.0, 1.0)`` the bottom-right — so scene
renderers are resolution independent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.imaging.palettes import Color


class Canvas:
    """Square RGB canvas with normalised-coordinate drawing primitives."""

    def __init__(self, size: int = 32, background: Color = (0.0, 0.0, 0.0)):
        if size < 4:
            raise ConfigurationError(f"canvas size must be >= 4, got {size}")
        self.size = size
        self.pixels = np.empty((size, size, 3), dtype=np.float64)
        self.pixels[:] = np.asarray(background, dtype=np.float64)
        # Pre-computed normalised pixel-centre coordinate grids.
        centres = (np.arange(size, dtype=np.float64) + 0.5) / size
        self._ys, self._xs = np.meshgrid(centres, centres, indexing="ij")

    # ------------------------------------------------------------------
    # Whole-canvas fills
    # ------------------------------------------------------------------
    def fill(self, color: Color) -> "Canvas":
        """Flood the whole canvas with ``color``."""
        self.pixels[:] = np.asarray(color, dtype=np.float64)
        return self

    def vertical_gradient(self, top: Color, bottom: Color) -> "Canvas":
        """Fill with a top-to-bottom linear gradient."""
        t = self._ys[..., None]
        self.pixels[:] = (1.0 - t) * np.asarray(top) + t * np.asarray(bottom)
        return self

    def horizontal_gradient(self, left: Color, right: Color) -> "Canvas":
        """Fill with a left-to-right linear gradient."""
        t = self._xs[..., None]
        self.pixels[:] = (1.0 - t) * np.asarray(left) + t * np.asarray(right)
        return self

    # ------------------------------------------------------------------
    # Shapes (all accept an optional alpha for soft compositing)
    # ------------------------------------------------------------------
    def rectangle(
        self,
        x0: float,
        y0: float,
        x1: float,
        y1: float,
        color: Color,
        alpha: float = 1.0,
    ) -> "Canvas":
        """Fill the axis-aligned rectangle [x0, x1] × [y0, y1]."""
        mask = (
            (self._xs >= min(x0, x1))
            & (self._xs <= max(x0, x1))
            & (self._ys >= min(y0, y1))
            & (self._ys <= max(y0, y1))
        )
        self._blend(mask, color, alpha)
        return self

    def ellipse(
        self,
        cx: float,
        cy: float,
        rx: float,
        ry: float,
        color: Color,
        alpha: float = 1.0,
        angle: float = 0.0,
    ) -> "Canvas":
        """Fill an ellipse centred at (cx, cy), optionally rotated."""
        dx = self._xs - cx
        dy = self._ys - cy
        if angle:
            cos_a, sin_a = np.cos(angle), np.sin(angle)
            dx, dy = cos_a * dx + sin_a * dy, -sin_a * dx + cos_a * dy
        rx = max(rx, 1e-6)
        ry = max(ry, 1e-6)
        mask = (dx / rx) ** 2 + (dy / ry) ** 2 <= 1.0
        self._blend(mask, color, alpha)
        return self

    def circle(
        self, cx: float, cy: float, r: float, color: Color, alpha: float = 1.0
    ) -> "Canvas":
        """Fill a circle of radius ``r`` centred at (cx, cy)."""
        return self.ellipse(cx, cy, r, r, color, alpha)

    def polygon(
        self,
        points: Sequence[tuple[float, float]],
        color: Color,
        alpha: float = 1.0,
    ) -> "Canvas":
        """Fill a simple polygon given its vertices in order.

        Uses the even-odd (crossing-number) rule evaluated on the pixel
        grid, vectorised over edges.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
            raise ConfigurationError(
                "polygon needs >= 3 (x, y) vertices, got "
                f"array of shape {pts.shape}"
            )
        x0s = pts[:, 0]
        y0s = pts[:, 1]
        x1s = np.roll(x0s, -1)
        y1s = np.roll(y0s, -1)
        inside = np.zeros_like(self._xs, dtype=bool)
        for ex0, ey0, ex1, ey1 in zip(x0s, y0s, x1s, y1s):
            if ey0 == ey1:
                continue  # horizontal edges never toggle the crossing count
            cond = (self._ys >= min(ey0, ey1)) & (self._ys < max(ey0, ey1))
            x_int = ex0 + (self._ys - ey0) * (ex1 - ex0) / (ey1 - ey0)
            inside ^= cond & (self._xs < x_int)
        self._blend(inside, color, alpha)
        return self

    def triangle(
        self,
        p0: tuple[float, float],
        p1: tuple[float, float],
        p2: tuple[float, float],
        color: Color,
        alpha: float = 1.0,
    ) -> "Canvas":
        """Fill the triangle with vertices ``p0``, ``p1``, ``p2``."""
        return self.polygon([p0, p1, p2], color, alpha)

    def line(
        self,
        x0: float,
        y0: float,
        x1: float,
        y1: float,
        color: Color,
        width: float = 0.02,
        alpha: float = 1.0,
    ) -> "Canvas":
        """Draw a line segment of the given normalised half-width."""
        dx = x1 - x0
        dy = y1 - y0
        length_sq = dx * dx + dy * dy
        if length_sq < 1e-12:
            return self.circle(x0, y0, width, color, alpha)
        t = ((self._xs - x0) * dx + (self._ys - y0) * dy) / length_sq
        t = np.clip(t, 0.0, 1.0)
        px = x0 + t * dx
        py = y0 + t * dy
        dist_sq = (self._xs - px) ** 2 + (self._ys - py) ** 2
        mask = dist_sq <= width * width
        self._blend(mask, color, alpha)
        return self

    # ------------------------------------------------------------------
    # Textures
    # ------------------------------------------------------------------
    def noise(
        self,
        rng: np.random.Generator,
        amount: float = 0.05,
        monochrome: bool = True,
    ) -> "Canvas":
        """Add uniform pixel noise of half-width ``amount``."""
        if monochrome:
            n = rng.uniform(-amount, amount, size=(self.size, self.size, 1))
        else:
            n = rng.uniform(-amount, amount, size=(self.size, self.size, 3))
        self.pixels = np.clip(self.pixels + n, 0.0, 1.0)
        return self

    def smooth_noise(
        self,
        rng: np.random.Generator,
        cells: int = 4,
        amount: float = 0.15,
    ) -> "Canvas":
        """Add low-frequency value noise (bilinear-upsampled random grid).

        This produces cloud-like luminance variation — useful for skies,
        water, and "complicated background" clutter.
        """
        cells = max(2, min(cells, self.size))
        grid = rng.uniform(-amount, amount, size=(cells, cells))
        # Bilinear upsample to the canvas resolution.
        src = np.linspace(0, cells - 1, self.size)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, cells - 1)
        frac = src - i0
        rows = (
            grid[i0][:, i0] * np.outer(1 - frac, 1 - frac)
            + grid[i0][:, i1] * np.outer(1 - frac, frac)
            + grid[i1][:, i0] * np.outer(frac, 1 - frac)
            + grid[i1][:, i1] * np.outer(frac, frac)
        )
        self.pixels = np.clip(self.pixels + rows[..., None], 0.0, 1.0)
        return self

    def stripes(
        self,
        color: Color,
        count: int = 6,
        horizontal: bool = True,
        alpha: float = 0.5,
        phase: float = 0.0,
    ) -> "Canvas":
        """Overlay evenly spaced stripes (a strong texture signature)."""
        coord = self._ys if horizontal else self._xs
        mask = np.floor((coord + phase) * count).astype(int) % 2 == 0
        self._blend(mask, color, alpha)
        return self

    def checker(
        self, color: Color, count: int = 4, alpha: float = 0.5
    ) -> "Canvas":
        """Overlay a checkerboard pattern."""
        cx = np.floor(self._xs * count).astype(int)
        cy = np.floor(self._ys * count).astype(int)
        mask = (cx + cy) % 2 == 0
        self._blend(mask, color, alpha)
        return self

    def speckle(
        self,
        rng: np.random.Generator,
        color: Color,
        density: float = 0.05,
        alpha: float = 1.0,
    ) -> "Canvas":
        """Scatter single-pixel speckles of ``color`` (snow, stars, spray)."""
        mask = rng.random((self.size, self.size)) < density
        self._blend(mask, color, alpha)
        return self

    # ------------------------------------------------------------------
    def _blend(self, mask: np.ndarray, color: Color, alpha: float) -> None:
        """Alpha-composite ``color`` onto the masked pixels."""
        if alpha >= 1.0:
            self.pixels[mask] = np.asarray(color, dtype=np.float64)
        else:
            c = np.asarray(color, dtype=np.float64)
            self.pixels[mask] = (1.0 - alpha) * self.pixels[mask] + alpha * c

    def image(self) -> np.ndarray:
        """Return the rendered (size, size, 3) float image in [0, 1]."""
        return np.clip(self.pixels, 0.0, 1.0)
