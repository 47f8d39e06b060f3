"""Procedural imaging substrate.

The paper evaluates on 15,000 Corel photographs.  Corel is proprietary, so
this package synthesises a stand-in: every category is a parameterised
scene renderer that produces real RGB arrays with controlled intra-category
jitter.  The renderers are designed so that semantically related
subconcepts (e.g. the four poses of a white sedan, or "laptop on a clear
background" vs "laptop on a complicated background") occupy *distinct*
clusters of the 37-d feature space — the phenomenon the paper is about.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Canvas",
    "Color",
    "PALETTES",
    "jitter_color",
    "SCENE_RENDERERS",
    "render_scene",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.imaging.canvas": ("Canvas",),
        "repro.imaging.palettes": ("PALETTES", "Color", "jitter_color"),
        "repro.imaging.scenes": ("SCENE_RENDERERS", "render_scene"),
    },
)
