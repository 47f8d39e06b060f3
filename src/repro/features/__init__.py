"""The 37-dimensional visual feature pipeline of the paper's prototype.

Three feature families (paper §4, Feature Extraction Module):

* 9 colour-moment features (Stricker & Orengo) — :mod:`repro.features.color`
* 10 wavelet-based texture features (Smith & Chang) —
  :mod:`repro.features.texture`
* 18 edge-based structural features (Zhou & Huang) —
  :mod:`repro.features.edges`

:class:`FeatureExtractor` concatenates them; :class:`FeatureNormalizer`
z-scores each dimension over a reference collection so no family dominates
the Euclidean distance.
"""

from repro._lazy import lazy_exports

__all__ = [
    "color_moments",
    "rgb_to_hsv",
    "edge_structural_features",
    "sobel_gradients",
    "FeatureExtractor",
    "FeatureNormalizer",
    "haar_dwt2",
    "wavelet_texture_features",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.features.color": ("color_moments", "rgb_to_hsv"),
        "repro.features.edges": (
            "edge_structural_features",
            "sobel_gradients",
        ),
        "repro.features.extractor": ("FeatureExtractor",),
        "repro.features.normalize": ("FeatureNormalizer",),
        "repro.features.texture": ("haar_dwt2", "wavelet_texture_features"),
    },
)
