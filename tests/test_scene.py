import json

import pytest

from scrapbook import effects as fx
from scrapbook.geometry import Rect
from scrapbook.photo import PhotoObject
from scrapbook.scene import (DuplicateIdError, DuplicateZError,
                             NonContiguousZError, SceneDocument,
                             SceneFormatError, UnknownFieldError, scene_load,
                             scene_save)


def sample_scene() -> SceneDocument:
    scene = SceneDocument(z_base=3)
    scene.add_photo(PhotoObject(id="a", source="a.ppm", center=(100.5, 200.25),
                                scale=1.25, angle=33.3,
                                effects=(fx.invert(), fx.brightness(-12))))
    scene.add_photo(PhotoObject(id="b", source="b.ppm", crop=Rect(50, 50, 300, 300),
                                center=(512.0, 384.0),
                                effects=(fx.border(2, (1, 2, 3, 4)),)))
    scene.add_photo(PhotoObject(id="c", source="c.ppm", center=(-10.0, 900.0),
                                effects=(fx.redeye(Rect(1, 2, 3, 4)),)))
    return scene


def test_empty_scene_round_trip():
    scene = SceneDocument()
    assert scene_load(scene_save(scene)) == scene


def test_three_photo_round_trip():
    scene = sample_scene()
    loaded = scene_load(scene_save(scene))
    assert loaded == scene
    assert list(loaded.zorder().z_values().values()) == [3, 4, 5]
    # centres survive exactly, including fractional values
    assert loaded.photos[0].center == (100.5, 200.25)


def test_document_schema_fields_exact():
    doc = json.loads(scene_save(sample_scene()))
    assert set(doc) == {"standard_viewport", "z_base", "photos"}
    assert doc["standard_viewport"] == [1024, 768]
    for entry in doc["photos"]:
        assert set(entry) == {"id", "source", "crop", "scale", "angle",
                              "center", "effects", "z"}
    assert doc["photos"][0]["crop"] is None
    assert doc["photos"][1]["crop"] == [50, 50, 300, 300]


def test_add_photo_assigns_contiguous_z():
    scene = SceneDocument(z_base=7)
    for name in "xyz":
        scene.add_photo(PhotoObject(id=name, source="s"))
    assert list(scene.zorder().z_values().values()) == [7, 8, 9]
    with pytest.raises(DuplicateIdError):
        scene.add_photo(PhotoObject(id="x", source="s"))


def test_scene_reorder_rewrites_z():
    scene = sample_scene()
    scene.bring_to_front("a")
    assert scene.ids() == ["b", "c", "a"]
    assert [e["z"] for e in json.loads(scene_save(scene))["photos"]] == [3, 4, 5]
    scene.send_to_back("a")
    assert scene.ids() == ["a", "b", "c"]


def test_duplicate_z_rejected():
    doc = json.loads(scene_save(sample_scene()))
    doc["photos"][0]["z"] = 4
    doc["photos"][1]["z"] = 4
    with pytest.raises(DuplicateZError):
        scene_load(json.dumps(doc))


def test_non_contiguous_z_rejected():
    doc = json.loads(scene_save(sample_scene()))
    doc["photos"][2]["z"] = 42
    with pytest.raises(NonContiguousZError):
        scene_load(json.dumps(doc))


def test_duplicate_id_rejected():
    doc = json.loads(scene_save(sample_scene()))
    doc["photos"][1]["id"] = "a"
    with pytest.raises(DuplicateIdError):
        scene_load(json.dumps(doc))


def test_unknown_fields_rejected():
    doc = json.loads(scene_save(sample_scene()))
    doc["theme"] = "dark"
    with pytest.raises(UnknownFieldError):
        scene_load(json.dumps(doc))
    doc = json.loads(scene_save(sample_scene()))
    doc["photos"][0]["shadow"] = True
    with pytest.raises(UnknownFieldError):
        scene_load(json.dumps(doc))


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("z_base"),
    lambda d: d.update(standard_viewport=[800, 600]),
    lambda d: d["photos"][0].update(center=[1, 2, 3]),
    lambda d: d["photos"][0].update(crop=[1, 2, 3]),
    lambda d: d["photos"][0].update(crop=[0, 0, -4, 4]),
    lambda d: d["photos"][0].update(scale=-1.0),
    lambda d: d["photos"][0]["effects"].append({"kind": "vortex"}),
    lambda d: d["photos"][0]["effects"].append({"kind": "opacity", "alpha": 9}),
    lambda d: d["photos"][2]["effects"][0].update(region=[0, 0, -1, 2]),
    lambda d: d["photos"][0]["effects"].append(5),
    lambda d: d["photos"][0].update(scale=float("nan")),
    lambda d: d["photos"][0].update(scale=True),
    lambda d: d["photos"][0].update(angle=float("inf")),
    lambda d: d["photos"][0].update(angle=float("-inf")),
    lambda d: d["photos"][0].update(id=7),
    lambda d: d["photos"][0].update(source=7),
    lambda d: d["photos"][0].update(crop=[0, 0, 0, 5]),
    lambda d: d["photos"][0].update(crop=[0, 0, 2 ** 24, 5]),
])
def test_malformed_documents_rejected(mutate):
    doc = json.loads(scene_save(sample_scene()))
    mutate(doc)
    with pytest.raises(SceneFormatError):
        scene_load(json.dumps(doc))


def test_invalid_json_rejected():
    with pytest.raises(SceneFormatError):
        scene_load("{not json")


def test_deeply_nested_json_rejected():
    with pytest.raises(SceneFormatError):
        scene_load("[" * 100_000)


def test_load_normalizes_photo_order_by_z():
    doc = json.loads(scene_save(sample_scene()))
    doc["photos"].reverse()
    loaded = scene_load(json.dumps(doc))
    assert loaded == sample_scene()


def test_source_size_cache_not_compared():
    scene = sample_scene()
    loaded = scene_load(scene_save(scene))
    assert loaded.photos[0].source_size is None
    assert loaded == scene  # equality ignores the resolution cache
