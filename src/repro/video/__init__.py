"""Video retrieval extension (paper §6, future work).

"Our system may also be extended to support video retrieval."  This
package supplies the substrate that extension needs and wires it to the
Query Decomposition engine:

* :mod:`repro.video.synthesis` — synthetic clips: shots rendered from
  the image scene generators, animated with camera pan / zoom-ish drift
  and hard cuts between shots;
* :mod:`repro.video.shots` — shot-boundary detection by frame-difference
  analysis;
* :mod:`repro.video.keyframes` — per-shot keyframe selection (cluster
  frame features, keep medoids);
* :mod:`repro.video.retrieval` — a keyframe database searchable with the
  QD engine, with clip-level result aggregation.
"""

from repro._lazy import lazy_exports

__all__ = [
    "select_keyframes",
    "VideoDatabase",
    "VideoSearchEngine",
    "detect_shot_boundaries",
    "frame_differences",
    "SyntheticClip",
    "render_clip",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.video.keyframes": ("select_keyframes",),
        "repro.video.retrieval": ("VideoDatabase", "VideoSearchEngine"),
        "repro.video.shots": ("detect_shot_boundaries", "frame_differences"),
        "repro.video.synthesis": ("SyntheticClip", "render_clip"),
    },
)
