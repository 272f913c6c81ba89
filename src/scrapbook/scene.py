"""Scene documents: an ordered photo collection plus JSON persistence.

The document format is UTF-8 JSON with exactly these fields:

    {"standard_viewport": [1024, 768],
     "z_base": int,
     "photos": [{"id": str, "source": str, "crop": [x,y,w,h] | null,
                 "scale": num, "angle": num, "center": [x, y],
                 "effects": [{"kind": str, ...}], "z": int}]}

Photos are kept back-to-front, and list position is the only z-order held
in memory: save writes z = z_base + i for the photo at position i, and
load reads each z only to validate it and to order the photos.
save/load round-trips are lossless.
"""

from __future__ import annotations

import json

from .effects import EffectParamError, EffectSpec
from .geometry import Rect, is_finite_number, is_int
from .photo import PhotoObject
from .viewport import STANDARD_VIEWPORT
from .zorder import ZOrderArray


class SceneFormatError(ValueError):
    pass


class UnknownFieldError(SceneFormatError):
    pass


class DuplicateIdError(SceneFormatError):
    pass


class DuplicateZError(SceneFormatError):
    pass


class NonContiguousZError(SceneFormatError):
    pass


class SceneDocument:
    """Mutable container; at most one thread mutates a scene at a time."""

    def __init__(self, z_base: int = 0):
        self.standard_viewport = STANDARD_VIEWPORT
        self.z_base = z_base
        self.photos: list[PhotoObject] = []

    def __eq__(self, other) -> bool:
        if not isinstance(other, SceneDocument):
            return NotImplemented
        return (self.standard_viewport == other.standard_viewport
                and self.z_base == other.z_base
                and self.photos == other.photos)

    def ids(self) -> list[str]:
        return [p.id for p in self.photos]

    def photo(self, photo_id: str) -> PhotoObject:
        for p in self.photos:
            if p.id == photo_id:
                return p
        raise KeyError(photo_id)

    def add_photo(self, photo: PhotoObject) -> PhotoObject:
        """Append front-most."""
        if any(p.id == photo.id for p in self.photos):
            raise DuplicateIdError(f"photo id {photo.id!r} already in scene")
        self.photos.append(photo)
        return photo

    def replace_photo(self, photo: PhotoObject) -> PhotoObject:
        """Swap the entry with the same id, keeping its position."""
        for i, p in enumerate(self.photos):
            if p.id == photo.id:
                self.photos[i] = photo
                return photo
        raise KeyError(photo.id)

    def _reorder(self, order: ZOrderArray) -> None:
        by_id = {p.id: p for p in self.photos}
        self.photos = [by_id[pid] for pid in order.draw_order()]

    def zorder(self) -> ZOrderArray:
        return ZOrderArray(self.z_base, self.ids())

    def send_to_back(self, photo_id: str) -> None:
        order = self.zorder()
        order.send_to_back(photo_id)
        self._reorder(order)

    def bring_to_front(self, photo_id: str) -> None:
        order = self.zorder()
        order.bring_to_front(photo_id)
        self._reorder(order)


_PHOTO_FIELDS = {"id", "source", "crop", "scale", "angle", "center", "effects", "z"}
_SCENE_FIELDS = {"standard_viewport", "z_base", "photos"}


def _photo_to_dict(photo: PhotoObject, z: int) -> dict:
    crop = photo.crop
    return {
        "id": photo.id,
        "source": photo.source,
        "crop": [crop.x, crop.y, crop.w, crop.h] if crop is not None else None,
        "scale": photo.scale,
        "angle": photo.angle,
        "center": [photo.center[0], photo.center[1]],
        "effects": [spec.to_json_dict() for spec in photo.effects],
        "z": z,
    }


def scene_save(scene: SceneDocument) -> str:
    doc = {
        "standard_viewport": list(scene.standard_viewport),
        "z_base": scene.z_base,
        "photos": [_photo_to_dict(p, scene.z_base + i) for i, p in enumerate(scene.photos)],
    }
    return json.dumps(doc, indent=2)


def _parse_photo(entry) -> tuple[int, PhotoObject]:
    """The entry's z and its photo."""
    if not isinstance(entry, dict):
        raise SceneFormatError(f"photo entry must be an object, got {type(entry).__name__}")
    unknown = set(entry) - _PHOTO_FIELDS
    if unknown:
        raise UnknownFieldError(f"unknown photo field(s) {sorted(unknown)}")
    missing = _PHOTO_FIELDS - set(entry)
    if missing:
        raise SceneFormatError(f"photo missing field(s) {sorted(missing)}")
    for name in ("id", "source"):
        if not isinstance(entry[name], str):
            raise SceneFormatError(f"{name} must be a string, got {entry[name]!r}")
    pid = entry["id"]
    crop = entry["crop"]
    if crop is not None:
        if (not isinstance(crop, list) or len(crop) != 4 or not all(map(is_int, crop))
                or crop[2] <= 0 or crop[3] <= 0):
            raise SceneFormatError(
                f"photo {pid!r}: crop must be [x, y, w, h] ints with w, h > 0, or null, "
                f"got {crop!r}")
        crop = Rect(*crop)
    center = entry["center"]
    if not isinstance(center, list) or len(center) != 2 or not all(map(is_finite_number, center)):
        raise SceneFormatError(f"photo {pid!r}: center must be [x, y] numbers, got {center!r}")
    for name in ("scale", "angle"):
        if not is_finite_number(entry[name]):
            raise SceneFormatError(f"photo {pid!r}: {name} must be a finite number, "
                                   f"got {entry[name]!r}")
    if not is_int(entry["z"]):
        raise SceneFormatError(f"photo {pid!r}: z must be an integer, got {entry['z']!r}")
    if not isinstance(entry["effects"], list):
        raise SceneFormatError(f"photo {pid!r}: effects must be a list, got {entry['effects']!r}")
    try:
        effects = tuple(EffectSpec.from_json_dict(e) for e in entry["effects"])
    except EffectParamError as exc:
        raise SceneFormatError(f"photo {pid!r}: {exc}") from exc
    try:
        return entry["z"], PhotoObject(
            id=pid,
            source=entry["source"],
            crop=crop,
            scale=entry["scale"],
            angle=entry["angle"],
            center=(float(center[0]), float(center[1])),
            effects=effects,
        )
    except ValueError as exc:
        raise SceneFormatError(f"photo {pid!r}: {exc}") from exc


def scene_load(text: str) -> SceneDocument:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SceneFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SceneFormatError("document root must be an object")
    unknown = set(doc) - _SCENE_FIELDS
    if unknown:
        raise UnknownFieldError(f"unknown document field(s) {sorted(unknown)}")
    missing = _SCENE_FIELDS - set(doc)
    if missing:
        raise SceneFormatError(f"document missing field(s) {sorted(missing)}")
    if doc["standard_viewport"] != list(STANDARD_VIEWPORT):
        raise SceneFormatError(f"standard_viewport must be {list(STANDARD_VIEWPORT)}")
    z_base = doc["z_base"]
    if not is_int(z_base):
        raise SceneFormatError(f"z_base must be an integer, got {z_base!r}")
    if not isinstance(doc["photos"], list):
        raise SceneFormatError(f"photos must be a list, got {type(doc['photos']).__name__}")
    parsed = [_parse_photo(entry) for entry in doc["photos"]]

    seen_ids = set()
    for _, p in parsed:
        if p.id in seen_ids:
            raise DuplicateIdError(f"duplicate photo id {p.id!r}")
        seen_ids.add(p.id)
    z_values = sorted(z for z, _ in parsed)
    if len(set(z_values)) != len(z_values):
        raise DuplicateZError(f"duplicate z-index in {z_values}")
    expected = list(range(z_base, z_base + len(parsed)))
    if z_values != expected:
        raise NonContiguousZError(f"z-indexes {z_values} are not the contiguous set {expected}")

    scene = SceneDocument(z_base=z_base)
    scene.photos = [p for _, p in sorted(parsed, key=lambda zp: zp[0])]
    return scene
