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
prepared nor drawn.  Each kept photo is drawn on its region: its
uncovered tiles as a short list of disjoint rects, one per run of
uncovered tiles in a tile row, with identical neighbouring tile rows
merged.  A tile counts as covered only where the rasterizer provably
writes every pixel of it (see `raster`), so frames are bit-identical to
drawing every photo in full.  Each kept photo is also prepared only in
part, on a few windows.  Its rects, in region order, fall into runs,
each a plan with its window, the bounding rect of the content texels the
run samples: a rect joins the run before it when their joint window
costs at most WINDOW_ALLOWANCE texels more than the two apart, and the
photo keeps one window unless splitting saves more than that per extra
window (see _groups).  Each run's prepare step is given its window and
runs the chain on it mapped back through it, so its effects, its source
read and any routed request cover only that window; then the run is
drawn from exactly that window.
Every strategy runs the same pixel code:
an `end` copies the session's static layer and repaints only the box at
rest, through the same pass.  Strategies differ only in their capability
tables and in what they are charged, and the charges below stay those of
drawing every photo and running every chain on its whole crop.

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

from .effects import EffectKind, chain_output_size
from .geometry import Rect
from .image import RasterImage
from .photo import PhotoObject, effect_pixels, move_to
from .raster import (Frame, Plan, covered_tiles, crop_rect, draw_photo, footprint, is_opaque,
                     plan, prepare_content)
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

def screen_bbox(photo: PhotoObject, screen: ScreenSpec) -> Rect:
    """Outward-rounded screen box of the photo: the pixels one draw may
    touch."""
    return footprint(photo, screen).box


def draw_units(photo: PhotoObject, screen: ScreenSpec) -> int:
    return screen_bbox(photo, screen).area


def runs_chain(backend: BackendKind, photo: PhotoObject) -> bool:
    """Whether the backend runs the photo's whole chain; if not, resolve_scene charges it."""
    return all(spec.kind in CAPABILITIES[backend] for spec in photo.effects)


def redraw_units(backend: BackendKind, photos, screen: ScreenSpec, boxes=None) -> int:
    """The one redraw rule: the clear (raster only) plus each photo's box
    and effect-chain pixels.  `boxes`, when given, are the photos' screen
    boxes, already made."""
    if boxes is None:
        boxes = [screen_bbox(p, screen) for p in photos]
    units = 0 if backend.retained else screen.width * screen.height
    return units + sum(box.area + effect_pixels(p) for p, box in zip(photos, boxes))


def _frame_units(backend: BackendKind, photo: PhotoObject, left: Rect, entered: Rect) -> int:
    """A drag frame: the box left and the box entered; raster also
    re-applies the chain."""
    units = left.area + entered.area
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
# prepare(photo, source, window): exactly the texels of `window` of the
# photo's content, as an image of the window's size; the draw checks the size.
PrepareStep = Callable[[PhotoObject, RasterImage, Rect], RasterImage]


def _check_chains(backend: BackendKind, scene: SceneDocument) -> None:
    bad = [photo.id for photo in scene.photos if not runs_chain(backend, photo)]
    if bad:
        raise UnsupportedEffectError(f"photos {bad}: chains not supported by {backend.value}; "
                                     f"render with service.resolve_scene's prepare step")


# Edge in pixels of the square tiles the paint pass tracks occlusion on.
TILE = 16

# The texels one more window must save before the paint pass splits a
# drawn photo's window: the cost, in texels, of one more prepare call and
# source read.  Chosen by a sweep over one raster render of perfbench's
# seed-601 compose scene: 2**12 prepares 1.16 M texels in 136 windows,
# 2**14 1.48 M in 79 and 2**16 2.15 M in 66, against 7.11 M in 48 unsplit.
WINDOW_ALLOWANCE = 2 ** 14


def _region(opened: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> list[Rect]:
    """The open tiles as disjoint rects, where tile (i, j) holds the columns
    xs[j] to xs[j+1] and the rows ys[i] to ys[i+1]: one rect per run of open
    tiles in a tile row, over a group of identical neighbouring rows."""
    cut = np.flatnonzero((opened[1:] != opened[:-1]).any(axis=1)) + 1
    first, last = np.concatenate(([0], cut)), np.concatenate((cut, [len(opened)]))
    # A run starts and ends where a row padded with closed tiles changes;
    # the changes of each row alternate start, end.
    rows = np.zeros((len(first), opened.shape[1] + 2), dtype=bool)
    rows[:, 1:-1] = opened[first]
    group, col = np.nonzero(rows[:, 1:] != rows[:, :-1])
    group, c0, c1 = group[::2], col[::2], col[1::2]
    corners = np.stack([xs[c0], ys[first[group]], xs[c1], ys[last[group]]], axis=1)
    return [Rect(x0, y0, x1 - x0, y1 - y0) for x0, y0, x1, y1 in corners.tolist()]


def _joined(a, b) -> tuple:
    """The bounding rect of two rects given as x0, y0, x1, y1."""
    return min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3])


def _area(r) -> int:
    return (r[2] - r[0]) * (r[3] - r[1])


def _groups(drawn: Plan) -> list[Plan]:
    """The draw split into runs of its rects, each a Plan whose window is
    the union of its rects' texel bounds.  A rect joins the run before it,
    in region order, when their union window costs at most
    WINDOW_ALLOWANCE texels more than the two apart.  One run of all the
    rects, on the union of all their bounds, when the runs' texels plus
    one allowance per extra window reach that union's; none when the draw
    writes no pixel."""
    bounds = drawn.bounds
    if not len(bounds):
        return []
    runs = []  # [first rect, window as x0, y0, x1, y1]
    for k, rect in enumerate(bounds.tolist()):
        if runs:
            joined = _joined(runs[-1][1], rect)
            if _area(joined) <= _area(runs[-1][1]) + _area(rect) + WINDOW_ALLOWANCE:
                runs[-1][1] = joined
                continue
        runs.append([k, rect])
    whole = bounds[:, :2].min(axis=0).tolist() + bounds[:, 2:].max(axis=0).tolist()
    if sum(_area(window) for _, window in runs) + WINDOW_ALLOWANCE * (len(runs) - 1) \
            >= _area(whole):
        runs = [[0, whole]]
    starts = [k for k, _ in runs] + [len(drawn.rects)]
    return [(drawn if len(runs) == 1 else drawn.sub(k0, k1))._replace(
                window=Rect(x0, y0, x1 - x0, y1 - y0))
            for k0, k1, (_, (x0, y0, x1, y1)) in zip(starts, starts[1:], runs)]


def _visible(placed, area: Rect, screen: ScreenSpec):
    """The photos that show in `area`, back-to-front, each as (photo,
    source, footprint, region) with the region its draw needs: the rects of
    its tiles not yet covered by an opaque photo above it (see _region), cut
    to its box.  `placed` holds (photo, source, footprint) back-to-front.  A
    photo whose tiles are all covered is left out.
    """
    xs = np.minimum(np.arange(area.x, area.x2 + TILE, TILE), area.x2)
    ys = np.minimum(np.arange(area.y, area.y2 + TILE, TILE), area.y2)
    covered = np.zeros((len(ys) - 1, len(xs) - 1), dtype=bool)
    kept = []
    for photo, source, fp in reversed(placed):
        box = fp.box.intersect(area)
        if box.is_empty():
            continue
        c0, c1 = (box.x - area.x) // TILE, -(-(box.x2 - area.x) // TILE)
        r0, r1 = (box.y - area.y) // TILE, -(-(box.y2 - area.y) // TILE)
        under = covered[r0:r1, c0:c1]
        if under.all():
            continue
        tile_xs, tile_ys = xs[c0:c1 + 1], ys[r0:r1 + 1]
        kept.append((photo, source, fp, _region(~under, np.clip(tile_xs, box.x, box.x2),
                                                np.clip(tile_ys, box.y, box.y2))))
        if is_opaque(photo, source):
            under |= covered_tiles(photo, screen, tile_xs, tile_ys, fp)
    return kept[::-1]


def _place(photos, sources: SourceResolver, screen: ScreenSpec) -> list:
    """Each photo, back-to-front, as (photo, source, footprint): every
    source resolved and every crop and size checked, in that order, so a
    photo the paint pass hides fails exactly as a drawn one does.  The
    footprints serve the paint pass and the charge alike."""
    placed = []
    for photo in photos:
        source = sources(photo.source)
        crop_rect(photo, source)
        placed.append((photo, source, footprint(photo, screen)))
    return placed


def _boxes(placed) -> list[Rect]:
    return [fp.box for _, _, fp in placed]


def _paint(placed, screen: ScreenSpec, frame: Frame | None = None,
           damage: Rect | None = None, prepare: PrepareStep | None = None) -> Frame:
    """The one paint pass: the placed photos (see _place) drawn
    back-to-front into `frame` (a fresh one by default) over the whole
    screen, or only inside `damage`, which is cleared to white first.  Each
    drawn photo's texture comes from `prepare`, by default prepare_content
    as named at call time.

    Only what can be seen is drawn: a photo hidden under opaque photos in
    the painted area is neither prepared nor drawn, and each drawn photo is
    drawn on its region, the tiles where it may show.  Each drawn photo is
    planned once (raster.plan): its box, its region cut to the box, its
    lookups and each rect's texel bounds.  Its rects are then split into a
    few runs (see _groups), each a plan with the window its rects sample;
    each run is prepared as prepare(photo, source, window) and drawn on
    the same plan's lookups; a photo whose region writes no pixel is
    neither prepared nor drawn.
    """
    if frame is None:
        frame = Frame(screen.width, screen.height)
    area = Rect(0, 0, screen.width, screen.height)
    if damage is not None:
        area = area.intersect(damage)
        frame.array[area.y:area.y2, area.x:area.x2] = 255
    prepare = prepare or prepare_content
    for photo, source, fp, region in _visible(placed, area, screen):
        crop = crop_rect(photo, source)
        drawn = plan(photo, screen, region, fp,
                     chain_output_size(crop.w, crop.h, photo.effects))
        for part in _groups(drawn):
            draw_photo(frame, photo, prepare(photo, source, part.window), screen, part)
    return frame


def render_full(backend: BackendKind, scene: SceneDocument, sources: SourceResolver,
                screen: ScreenSpec, throughput: float = DEFAULT_THROUGHPUT,
                prepare: PrepareStep | None = None) -> tuple[Frame, CostReport]:
    """Composite the scene into a fresh frame; without `prepare`, the backend runs every chain."""
    if prepare is None:
        _check_chains(backend, scene)
    routed_fx = sum(effect_pixels(p) for p in scene.photos if not runs_chain(backend, p))
    placed = _place(scene.photos, sources, screen)
    return (_paint(placed, screen, prepare=prepare),
            report(redraw_units(backend, scene.photos, screen, _boxes(placed)) - routed_fx,
                   throughput))


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
        placed = _place(statics, sources, screen)
        self._bg = _paint(placed, screen)
        self._work = self._bg.copy()
        self._fp = footprint(self.photo, screen)
        self._draw(self.photo)
        # Raster renders the static layer once; retained nodes just detach.
        units = 0 if backend.retained else redraw_units(backend, statics, screen,
                                                        _boxes(placed))
        self.begin_cost = report(units, throughput, frames=0 if backend.retained else 1)
        scene._active_session = self

    def frame(self) -> Frame:
        """Snapshot of the current composite: statics plus the photo on top."""
        return self._work.copy()

    def _draw(self, photo: PhotoObject) -> None:
        """Draw the content whole onto the live surface at `_fp`, the
        photo's footprint."""
        size = (self._content.width, self._content.height)
        draw_photo(self._work, photo, self._content, self.screen,
                   plan(photo, self.screen, None, self._fp, size))

    def update(self, new_center) -> tuple[Frame, CostReport]:
        """Move the interactive photo; only the damaged boxes recomposite.

        The returned frame is the session's live surface, valid until the
        next session call; use frame() for a durable snapshot.  One
        footprint is made per frame: the box entered and the draw use it,
        and the next frame takes its box as the box left.
        """
        if self.closed:
            raise SessionError("session already ended")
        center = (float(new_center[0]), float(new_center[1]))
        fp = footprint(self.photo, self.screen, center)
        units = _frame_units(self.backend, self.photo, self._fp.box, fp.box)
        old = self._fp.box.intersect(Rect(0, 0, self.screen.width, self.screen.height))
        self._work.array[old.y:old.y2, old.x:old.x2] = self._bg.array[old.y:old.y2, old.x:old.x2]
        self.center, self._fp = center, fp
        self._draw(move_to(self.photo, *center))
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
        placed = _place(self.scene.photos, self.sources, self.screen)
        damage = next(fp.box for p, _, fp in placed if p is moved)
        frame = _paint(placed, self.screen, self._bg.copy(), damage)
        # Raster is charged a redraw of everything; retained nodes only the box.
        units = (damage.area if self.backend.retained
                 else redraw_units(self.backend, self.scene.photos, self.screen, _boxes(placed)))
        return frame, report(units, self.throughput)


def begin_interaction(backend: BackendKind, scene: SceneDocument,
                      sources: SourceResolver, screen: ScreenSpec,
                      photo_id: str, throughput: float = DEFAULT_THROUGHPUT
                      ) -> InteractionSession:
    return InteractionSession(backend, scene, sources, screen, photo_id, throughput)
