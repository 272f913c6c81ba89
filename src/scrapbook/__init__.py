"""Headless 2D photo-composition engine.

Scenes of transformable, effect-carrying photos render through pluggable
strategies (immediate-mode raster, retained-mode scenegraph, a legacy
variant) over one shared rasterizer, with capability-based failover to a
single-endpoint processing service and a deterministic benchmark harness
on a virtual clock.
"""

from .backends import (BackendKind, Capability, CostReport, begin_interaction,
                       capability_check, render_full)
from .effects import EffectKind, EffectSpec, apply_chain, apply_effect, convolve3x3
from .geometry import Rect
from .image import RasterImage, load_ppm, save_ppm
from .photo import PhotoObject, crop_photo, move_to, photo_bbox, rotate_by, scale_to
from .scene import SceneDocument, scene_load, scene_save
from .service import dispatch, route_effect
from .viewport import ScreenSpec, to_screen, to_standard
from .zorder import ZOrderArray

__version__ = "0.1.0"

__all__ = [
    "BackendKind", "Capability", "CostReport", "EffectKind",
    "EffectSpec", "Rect", "RasterImage", "PhotoObject", "SceneDocument",
    "ScreenSpec", "ZOrderArray", "apply_chain", "apply_effect",
    "begin_interaction", "capability_check", "convolve3x3", "crop_photo",
    "dispatch", "load_ppm", "move_to", "photo_bbox", "render_full",
    "rotate_by", "route_effect", "save_ppm", "scale_to", "scene_load",
    "scene_save", "to_screen", "to_standard",
]
