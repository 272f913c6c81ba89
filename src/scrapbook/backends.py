"""Pluggable render strategies over the shared rasterizer.

Three strategies exist.  `raster` is immediate-mode: any change wipes the
whole surface and redraws everything, re-applying every photo's effect
chain.  `scenegraph` and `legacy` are retained-mode: photos persist as
nodes, only damaged regions recomposite, and a node's chain is charged
once.  `legacy` differs from `scenegraph` only through its smaller
capability table.

Every frame, whether a full render, a session's static layer or its end
composite, comes from one paint pass that prepares and draws a photo
list back-to-front; only a drag frame patches the live surface in place.
The pass draws only what can be seen.  It first walks the list top-down
over a grid of TILE x TILE tiles: a photo whose box lies wholly in tiles
already covered by opaque photos above it is culled, so it is neither
prepared nor drawn, and each kept photo's draw is clipped to the bounding
rect of its uncovered tiles.  A tile counts as covered only where the
rasterizer provably writes every pixel of it (see `raster`), so frames
are bit-identical to drawing every photo in full.  Every strategy runs
the same pixel code: an `end` copies the session's static layer and
repaints only the box at rest, through the same pass.  Strategies differ
only in their capability tables and in what they are charged, and the
charges below stay those of drawing every photo.

Work accounting is analytic and deterministic: one work unit is one pixel
written, where a photo draw is charged as its outward-rounded screen
bounding box and an effect application as the pixel area it processes.
Virtual time is work_units / throughput, in pixels per virtual ms
(DEFAULT_THROUGHPUT unless given); the wall clock is never consulted.

One redraw rule sets the charges: a redraw of a photo list costs the
clear (raster only, the whole screen) plus each photo's bbox + fx, where fx
is its effect-chain pixel count.  A full render leaves out the fx of a
chain the backend cannot run (see runs_chain).  Raster redraws; retained
nodes recomposite only damaged boxes.  Only a drag frame has its own
formula.  Per operation and strategy:

    operation     raster                          scenegraph / legacy
    full render   redraw of all photos            redraw of all photos
    begin drag    redraw of the statics           0
    drag frame    old bbox + new bbox + fx        old bbox + new bbox
    end drag      redraw of all photos            bbox at rest
    load          redraw of all photos            redraw of the newest photo
    attr change   redraw of the new state         old bbox + new bbox
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .effects import EffectKind
from .geometry import Rect
from .image import RasterImage
from .photo import PhotoObject, effect_pixels, move_to
from .raster import (Frame, covered_tiles, crop_rect, draw_photo, footprint, is_opaque,
                     prepare_content)
from .scene import SceneDocument
from .viewport import ScreenSpec


class BackendKind(str, Enum):
    RASTER = "raster"
    SCENEGRAPH = "scenegraph"
    LEGACY = "legacy"

    @property
    def retained(self) -> bool:
        return self is not BackendKind.RASTER


_ALL_KINDS = frozenset(EffectKind)

CAPABILITIES: dict[BackendKind, frozenset] = {
    BackendKind.RASTER: _ALL_KINDS,
    BackendKind.SCENEGRAPH: _ALL_KINDS - {
        EffectKind.EMBOSS, EffectKind.REDEYE, EffectKind.FLIP_H, EffectKind.FLIP_V,
    },
    BackendKind.LEGACY: _ALL_KINDS - {
        EffectKind.HUE, EffectKind.SATURATE, EffectKind.SEPIA,
        EffectKind.SHARPEN, EffectKind.REDEYE,
    },
}


class Capability(str, Enum):
    SUPPORTED = "supported"
    FALLBACK_NEEDED = "fallback_needed"


def capability_check(backend: BackendKind, kind: EffectKind) -> Capability:
    if kind in CAPABILITIES[backend]:
        return Capability.SUPPORTED
    return Capability.FALLBACK_NEEDED


class UnsupportedEffectError(RuntimeError):
    """An unsupported effect reached the rasterizer; the caller should have
    routed it through the failover service first."""


class SessionError(RuntimeError):
    """Interaction session misuse: nested begin or double end."""


# Renderer speed in pixels per virtual ms when none is given.
DEFAULT_THROUGHPUT = 1000.0


@dataclass(frozen=True)
class CostReport:
    """Work-unit and virtual-time accounting for one operation."""

    work_units: int
    virtual_ms: float
    frames: int = 0

    def __add__(self, other: "CostReport") -> "CostReport":
        return CostReport(self.work_units + other.work_units,
                          self.virtual_ms + other.virtual_ms,
                          self.frames + other.frames)


def report(units: int, throughput: float = DEFAULT_THROUGHPUT, frames: int = 1) -> CostReport:
    return CostReport(units, units / throughput, frames)


# --- work-unit arithmetic (pure; used by renders and by the harness) ---

def screen_bbox(photo: PhotoObject, screen: ScreenSpec, center=None) -> Rect:
    """Outward-rounded screen box of the photo, optionally at an
    overridden centre: the pixels one draw may touch."""
    return footprint(photo, screen, center)[4]


def draw_units(photo: PhotoObject, screen: ScreenSpec, center=None) -> int:
    return screen_bbox(photo, screen, center).area


def runs_chain(backend: BackendKind, photo: PhotoObject) -> bool:
    """Whether the backend runs the photo's whole chain; if not, resolve_scene charges it."""
    return all(spec.kind in CAPABILITIES[backend] for spec in photo.effects)


def redraw_units(backend: BackendKind, photos, screen: ScreenSpec) -> int:
    """The one redraw rule: the clear (raster only) plus each photo's box
    and effect-chain pixels."""
    units = 0 if backend.retained else screen.width * screen.height
    return units + sum(draw_units(p, screen) + effect_pixels(p) for p in photos)


def update_units(backend: BackendKind, photo: PhotoObject, screen: ScreenSpec,
                 old_center, new_center) -> int:
    """A drag frame: the box left and the box entered; raster also
    re-applies the chain."""
    units = (draw_units(photo, screen, center=old_center)
             + draw_units(photo, screen, center=new_center))
    if not backend.retained:
        units += effect_pixels(photo)
    return units


def load_units(backend: BackendKind, scene: SceneDocument, screen: ScreenSpec) -> int:
    """Cost of the newest photo appearing (scene already contains it)."""
    photos = scene.photos[-1:] if backend.retained else scene.photos
    return redraw_units(backend, photos, screen)


def attr_change_units(backend: BackendKind, scene: SceneDocument, screen: ScreenSpec,
                      before: PhotoObject, after: PhotoObject) -> int:
    """Cost of mutating one photo's attributes (rotate, crop, effect, ...).

    Raster redraws the whole updated scene; retained strategies
    recomposite the damaged region: the photo's box before and after.
    """
    if backend.retained:
        return draw_units(before, screen) + draw_units(after, screen)
    return redraw_units(backend, [after if p.id == before.id else p for p in scene.photos],
                        screen)


# --- pixel-producing entry points ---

SourceResolver = Callable[[str], RasterImage]
PrepareStep = Callable[[PhotoObject, RasterImage], RasterImage]


def _check_chains(backend: BackendKind, scene: SceneDocument) -> None:
    bad = [photo.id for photo in scene.photos if not runs_chain(backend, photo)]
    if bad:
        raise UnsupportedEffectError(f"photos {bad}: chains not supported by {backend.value}; "
                                     f"render with service.resolve_scene's prepare step")


# Edge in pixels of the square tiles the paint pass tracks occlusion on.
TILE = 16


def _visible(placed, area: Rect, screen: ScreenSpec):
    """The photos that show in `area`, back-to-front, each with the clip
    its draw needs: the bounding rect of its tiles not yet covered by an
    opaque photo above it.  A photo whose tiles are all covered is left out.
    """
    xs = np.minimum(np.arange(area.x, area.x2 + TILE, TILE), area.x2)
    ys = np.minimum(np.arange(area.y, area.y2 + TILE, TILE), area.y2)
    covered = np.zeros((len(ys) - 1, len(xs) - 1), dtype=bool)
    kept = []
    for photo, source, box in reversed(placed):
        box = box.intersect(area)
        if box.is_empty():
            continue
        c0, c1 = (box.x - area.x) // TILE, -(-(box.x2 - area.x) // TILE)
        r0, r1 = (box.y - area.y) // TILE, -(-(box.y2 - area.y) // TILE)
        under = covered[r0:r1, c0:c1]
        open_rows = np.flatnonzero(~under.all(axis=1))
        if len(open_rows) == 0:
            continue
        open_cols = np.flatnonzero(~under.all(axis=0))
        x0, x1 = xs[c0 + open_cols[0]], xs[c0 + open_cols[-1] + 1]
        y0, y1 = ys[r0 + open_rows[0]], ys[r0 + open_rows[-1] + 1]
        kept.append((photo, source, Rect(int(x0), int(y0), int(x1 - x0), int(y1 - y0))))
        if is_opaque(photo, source):
            under |= covered_tiles(photo, screen, xs[c0:c1 + 1], ys[r0:r1 + 1])
    return kept[::-1]


def _paint(photos, sources: SourceResolver, screen: ScreenSpec,
           frame: Frame | None = None, damage: Rect | None = None,
           prepare: PrepareStep | None = None) -> Frame:
    """The one paint pass: the photos drawn back-to-front into `frame` (a
    fresh one by default) over the whole screen, or only inside `damage`,
    which is cleared to white first.  Each drawn photo's texture comes from
    `prepare`, by default prepare_content as named at call time.

    Only what can be seen is drawn: a photo hidden under opaque photos in
    the painted area is neither prepared nor drawn, and each drawn photo is
    clipped to the tiles where it may show.  Every source is still
    resolved and every crop and size checked, back-to-front, so a hidden
    photo fails exactly as a drawn one does.
    """
    placed = []
    for photo in photos:
        source = sources(photo.source)
        crop_rect(photo, source)
        placed.append((photo, source, screen_bbox(photo, screen)))
    if frame is None:
        frame = Frame(screen.width, screen.height)
    area = Rect(0, 0, screen.width, screen.height)
    if damage is not None:
        area = area.intersect(damage)
        frame.array[area.y:area.y2, area.x:area.x2] = 255
    prepare = prepare or prepare_content
    for photo, source, clip in _visible(placed, area, screen):
        draw_photo(frame, photo, prepare(photo, source), screen, clip)
    return frame


def render_full(backend: BackendKind, scene: SceneDocument, sources: SourceResolver,
                screen: ScreenSpec, throughput: float = DEFAULT_THROUGHPUT,
                prepare: PrepareStep | None = None) -> tuple[Frame, CostReport]:
    """Composite the scene into a fresh frame; without `prepare`, the backend runs every chain."""
    if prepare is None:
        _check_chains(backend, scene)
    routed_fx = sum(effect_pixels(p) for p in scene.photos if not runs_chain(backend, p))
    return (_paint(scene.photos, sources, screen, prepare=prepare),
            report(redraw_units(backend, scene.photos, screen) - routed_fx, throughput))


class InteractionSession:
    """One photo detached onto the interactive layer for a drag.

    While the session is open the photo draws above everything else; end()
    commits the final position and recomposites at the photo's true z.
    """

    def __init__(self, backend: BackendKind, scene: SceneDocument,
                 sources: SourceResolver, screen: ScreenSpec, photo_id: str,
                 throughput: float = DEFAULT_THROUGHPUT):
        if getattr(scene, "_active_session", None) is not None:
            raise SessionError("scene already has an active interaction session")
        self.backend = backend
        self.scene = scene
        self.sources = sources
        self.screen = screen
        self.throughput = throughput
        self.photo = scene.photo(photo_id)  # KeyError on unknown id
        _check_chains(backend, scene)
        self.center = self.photo.center
        self.closed = False
        self._content = prepare_content(self.photo, sources(self.photo.source))
        statics = [p for p in scene.photos if p.id != photo_id]
        self._bg = _paint(statics, sources, screen)
        self._work = self._bg.copy()
        draw_photo(self._work, self.photo, self._content, screen)
        # Raster renders the static layer once; retained nodes just detach.
        units = 0 if backend.retained else redraw_units(backend, statics, screen)
        self.begin_cost = report(units, throughput, frames=0 if backend.retained else 1)
        scene._active_session = self

    def frame(self) -> Frame:
        """Snapshot of the current composite: statics plus the photo on top."""
        return self._work.copy()

    def update(self, new_center) -> tuple[Frame, CostReport]:
        """Move the interactive photo; only the damaged boxes recomposite.

        The returned frame is the session's live surface, valid until the
        next session call; use frame() for a durable snapshot.
        """
        if self.closed:
            raise SessionError("session already ended")
        units = update_units(self.backend, self.photo, self.screen,
                             self.center, new_center)
        old = screen_bbox(self.photo, self.screen, self.center).intersect(
            Rect(0, 0, self.screen.width, self.screen.height))
        self._work.array[old.y:old.y2, old.x:old.x2] = self._bg.array[old.y:old.y2, old.x:old.x2]
        self.center = (float(new_center[0]), float(new_center[1]))
        draw_photo(self._work, move_to(self.photo, *self.center), self._content,
                   self.screen)
        return self._work, report(units, self.throughput)

    def end(self, final_center=None) -> tuple[Frame, CostReport]:
        """Commit the drag and recomposite at the photo's true z position.

        The release position defaults to the last updated centre; passing
        `final_center` folds the pointer-up move into the end composite.
        """
        if self.closed:
            raise SessionError("session already ended")
        if final_center is not None:
            self.center = (float(final_center[0]), float(final_center[1]))
        self.closed = True
        self.scene._active_session = None
        moved = self.scene.replace_photo(move_to(self.photo, *self.center))
        frame = _paint(self.scene.photos, self.sources, self.screen, self._bg.copy(),
                       screen_bbox(moved, self.screen))
        # Raster is charged a redraw of everything; retained nodes only the box.
        units = (draw_units(moved, self.screen) if self.backend.retained
                 else redraw_units(self.backend, self.scene.photos, self.screen))
        return frame, report(units, self.throughput)


def begin_interaction(backend: BackendKind, scene: SceneDocument,
                      sources: SourceResolver, screen: ScreenSpec,
                      photo_id: str, throughput: float = DEFAULT_THROUGHPUT
                      ) -> InteractionSession:
    return InteractionSession(backend, scene, sources, screen, photo_id, throughput)
