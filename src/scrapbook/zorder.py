"""Global z-axis ordering of photos over one host surface.

Index 0 is the backmost photo everywhere in this repository.  The photo at
list position i has z-index z_base + i, so the set of z-values is always
the contiguous range z_base .. z_base + n - 1 and its size equals the
photo count.
"""

from __future__ import annotations


class ZOrderError(ValueError):
    pass


class DuplicatePhotoError(ZOrderError):
    pass


class UnknownPhotoError(ZOrderError):
    pass


class ZOrderArray:
    """Ordered photo ids plus the host surface's base z-index."""

    def __init__(self, z_base: int = 0, ids=()):
        self.z_base = z_base
        self._ids: list[str] = []
        for photo_id in ids:
            self.insert(photo_id)

    def insert(self, photo_id: str) -> None:
        """Add a photo at the front-most position.

        Its z-index is z_base plus the number of photos already present.
        """
        if photo_id in self._ids:
            raise DuplicatePhotoError(f"photo {photo_id!r} already ordered")
        self._ids.append(photo_id)

    def _index_of(self, photo_id: str) -> int:
        try:
            return self._ids.index(photo_id)
        except ValueError:
            raise UnknownPhotoError(f"photo {photo_id!r} not in z-order") from None

    def send_to_back(self, photo_id: str) -> None:
        """Eject the photo, right-shift everything beneath it, re-insert at 0."""
        pos = self._index_of(photo_id)
        ids = self._ids
        for i in range(pos, 0, -1):
            ids[i] = ids[i - 1]
        ids[0] = photo_id

    def bring_to_front(self, photo_id: str) -> None:
        """Eject the photo, left-shift everything above it, re-insert on top."""
        pos = self._index_of(photo_id)
        ids = self._ids
        last = len(ids) - 1
        for i in range(pos, last):
            ids[i] = ids[i + 1]
        ids[last] = photo_id

    def z_of(self, photo_id: str) -> int:
        return self.z_base + self._index_of(photo_id)

    def draw_order(self) -> list[str]:
        """Photo ids back to front."""
        return list(self._ids)

    def z_values(self) -> dict[str, int]:
        return {photo_id: self.z_base + i for i, photo_id in enumerate(self._ids)}
