import csv
import json

import pytest

from scrapbook import effects as fx
from scrapbook.backends import BackendKind, render_full
from scrapbook.cli import main
from scrapbook.image import RasterImage, load_ppm, save_ppm
from scrapbook.photo import PhotoObject
from scrapbook.scene import SceneDocument, scene_save
from scrapbook.viewport import ScreenSpec

from conftest import random_image


def test_effects_apply_invert(tmp_path):
    src = tmp_path / "in.ppm"
    dst = tmp_path / "out.ppm"
    save_ppm(RasterImage.filled(2, 2, (10, 20, 30, 255)), src)
    assert main(["effects", "apply", "--op", "invert",
                 "--in", str(src), "--out", str(dst)]) == 0
    assert load_ppm(dst).get_pixel(0, 0) == (245, 235, 225, 255)


def test_effects_apply_with_params(tmp_path):
    src = tmp_path / "in.ppm"
    dst = tmp_path / "out.ppm"
    save_ppm(RasterImage.filled(2, 2, (100, 100, 100, 255)), src)
    assert main(["effects", "apply", "--op", "brightness", "--param", "delta=-50",
                 "--in", str(src), "--out", str(dst)]) == 0
    assert load_ppm(dst).get_pixel(0, 0) == (50, 50, 50, 255)
    assert main(["effects", "apply", "--op", "border",
                 "--param", "width=2", "--param", "color=9,8,7,255",
                 "--in", str(src), "--out", str(dst)]) == 0
    out = load_ppm(dst)
    assert (out.width, out.height) == (6, 6)
    assert out.get_pixel(0, 0) == (9, 8, 7, 255)


def write_scene_fixture(tmp_path, rng, effects=()):
    img = random_image(rng, max_side=24, opaque=True)
    save_ppm(img, tmp_path / "photo.ppm")
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="p", source="photo.ppm",
                                source_size=(img.width, img.height),
                                center=(512.0, 384.0), scale=4.0, angle=20.0,
                                effects=tuple(effects)))
    (tmp_path / "scene.json").write_text(scene_save(scene), encoding="utf-8")
    return scene, img


def test_render_writes_frame_and_cost(tmp_path, rng):
    write_scene_fixture(tmp_path, rng)
    out = tmp_path / "frame.ppm"
    cost_csv = tmp_path / "cost.csv"
    assert main(["render", "--scene", str(tmp_path / "scene.json"),
                 "--backend", "raster", "--screen", "320x240",
                 "--out", str(out), "--cost", str(cost_csv)]) == 0
    frame = load_ppm(out)
    assert (frame.width, frame.height) == (320, 240)
    rows = list(csv.DictReader(cost_csv.open()))
    assert len(rows) == 1
    assert int(rows[0]["work_units"]) > 320 * 240  # clear plus a draw


def test_render_backends_agree_via_cli(tmp_path, rng):
    write_scene_fixture(tmp_path, rng)
    outs = {}
    for backend in ("raster", "scenegraph"):
        out = tmp_path / f"{backend}.ppm"
        assert main(["render", "--scene", str(tmp_path / "scene.json"),
                     "--backend", backend, "--screen", "200x150",
                     "--out", str(out)]) == 0
        outs[backend] = out.read_bytes()
    assert outs["raster"] == outs["scenegraph"]


def test_render_fails_over_unsupported_effect_in_process(tmp_path, rng):
    scene, img = write_scene_fixture(tmp_path, rng, effects=(fx.sepia(),))
    out = tmp_path / "legacy.ppm"
    assert main(["render", "--scene", str(tmp_path / "scene.json"),
                 "--backend", "legacy", "--screen", "200x150",
                 "--out", str(out)]) == 0
    reference, _ = render_full(BackendKind.RASTER, scene, lambda k: img,
                               ScreenSpec.fit(200, 150))
    assert load_ppm(out) == reference


def test_exp_a_cli(tmp_path):
    out = tmp_path / "a.csv"
    plot = tmp_path / "a.svg"
    assert main(["exp-a", "--backend", "raster", "--throughput", "2000",
                 "--csv", str(out), "--plot", str(plot)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 8 * 4 * 2
    assert rows[0]["backend"] == "raster"
    assert plot.read_text().startswith("<svg")


def test_exp_b_cli(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["exp-b", "--backend", "scenegraph", "--size", "480x360",
                 "--throughput", "inf", "--csv", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["delta_ms"] == "0.0"


def test_exp_c_cli(tmp_path):
    out = tmp_path / "c.csv"
    plot = tmp_path / "c.svg"
    assert main(["exp-c", "--backend", "scenegraph", "--seed", "5",
                 "--quantize-clock", "15", "--csv", str(out),
                 "--plot", str(plot)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[-1]["stop_rule"] == "max_photos"
    assert plot.exists()


def test_unknown_backend_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["exp-b", "--backend", "opengl"])
    assert "backend must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["exp-c", "--backend", "raster", "--max-photos", "101"],
    ["exp-c", "--backend", "raster", "--max-photos", "0"],
    ["exp-a", "--throughput", "0"],
    ["exp-c", "--backend", "raster", "--throughput", "-5"],
    ["exp-b", "--backend", "raster", "--throughput", "nan"],
    ["render", "--scene", "s.json", "--backend", "raster", "--out", "f.ppm",
     "--throughput", "0"],
    ["exp-a", "--quantize-clock", "-1"],
    ["exp-c", "--backend", "raster", "--quantize-clock", "0"],
    ["exp-c", "--backend", "raster", "--quantize-clock", "inf"],
    ["exp-b", "--backend", "raster", "--screen", "0x0"],
    ["exp-b", "--backend", "raster", "--size", "0x360"],
    ["render", "--scene", "s.json", "--backend", "raster", "--out", "f.ppm",
     "--screen", "1024x0"],
    ["serve", "--port", "70000"],
    ["serve", "--port", "-1"],
    ["exp-b", "--backend", "raster", "--size", "100x100"],
], ids=" ".join)
def test_bad_number_argument_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_infinite_throughput_is_accepted(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["exp-c", "--backend", "scenegraph", "--throughput", "inf",
                 "--csv", str(out)]) == 0
    assert list(csv.DictReader(out.open()))[-1]["stop_rule"] == "max_photos"


def _user_error(capsys, argv) -> str:
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("scrapbook: error: ") and err.count("\n") == 1
    return err


def test_bad_effect_param_is_one_line_error(tmp_path, capsys):
    src = tmp_path / "in.ppm"
    save_ppm(RasterImage.filled(8, 6, (10, 20, 30, 255)), src)
    err = _user_error(capsys, ["effects", "apply", "--op", "redeye",
                               "--param", "region=1,1,-3,3",
                               "--in", str(src), "--out", str(tmp_path / "out.ppm")])
    assert "region" in err
    _user_error(capsys, ["effects", "apply", "--op", "border", "--param", "width=1000000",
                         "--param", "color=1,2,3,255",
                         "--in", str(src), "--out", str(tmp_path / "out.ppm")])


@pytest.mark.parametrize("content", [b"P5\n1 1\n255\n\x00", b"P6\n4 4\n255\n\x00", b""])
def test_bad_input_image_is_one_line_error(tmp_path, capsys, content):
    src = tmp_path / "in.ppm"
    src.write_bytes(content)
    _user_error(capsys, ["effects", "apply", "--op", "invert",
                         "--in", str(src), "--out", str(tmp_path / "out.ppm")])


def test_missing_input_file_is_one_line_error(tmp_path, capsys):
    err = _user_error(capsys, ["effects", "apply", "--op", "invert",
                               "--in", str(tmp_path / "nope.ppm"),
                               "--out", str(tmp_path / "out.ppm")])
    assert "nope.ppm" in err
    _user_error(capsys, ["render", "--scene", str(tmp_path / "nope.json"),
                         "--backend", "raster", "--out", str(tmp_path / "f.ppm")])


def _one_photo_scene(crop=None, scale=1):
    """A well-formed document of one photo over the 8x6 photo.ppm."""
    return json.dumps(
        {"standard_viewport": [1024, 768], "z_base": 0,
         "photos": [{"id": "a", "source": "photo.ppm", "crop": crop, "scale": scale,
                     "angle": 0, "center": [500, 400], "effects": [], "z": 0}]})


@pytest.mark.parametrize("text", [
    '{"photos": 3}', "not json", '{"standard_viewport": [',
    pytest.param(_one_photo_scene(crop=[100, 100, 5, 5]), id="crop-outside-source"),
    pytest.param(_one_photo_scene(scale=1e308), id="scale-1e308"),
    pytest.param(_one_photo_scene(scale=1e300), id="scale-1e300"),
    pytest.param(_one_photo_scene(crop=[0, 0, 10 ** 160, 10 ** 160]), id="crop-1e160"),
    pytest.param(_one_photo_scene(crop=[0, 0, 10 ** 400, 10 ** 400], scale=1e-300),
                 id="crop-past-float-range"),
])
def test_malformed_scene_is_one_line_error(tmp_path, capsys, text):
    save_ppm(RasterImage.filled(8, 6, (10, 20, 30, 255)), tmp_path / "photo.ppm")
    scene = tmp_path / "scene.json"
    scene.write_text(text, encoding="utf-8")
    _user_error(capsys, ["render", "--scene", str(scene), "--backend", "raster",
                         "--out", str(tmp_path / "f.ppm")])


def test_undecodable_scene_and_missing_source_are_one_line_errors(tmp_path, rng, capsys):
    scene = tmp_path / "scene.json"
    scene.write_bytes(b"\xff\xfe\x00{")
    _user_error(capsys, ["render", "--scene", str(scene), "--backend", "raster",
                         "--out", str(tmp_path / "f.ppm")])
    write_scene_fixture(tmp_path, rng)
    (tmp_path / "photo.ppm").unlink()
    _user_error(capsys, ["render", "--scene", str(tmp_path / "scene.json"),
                         "--backend", "raster", "--out", str(tmp_path / "f.ppm")])


@pytest.mark.parametrize("screen", ["990x747", "800x600"])
def test_exp_c_screen_too_small_is_one_line_error(tmp_path, capsys, screen):
    out = tmp_path / "c.csv"
    err = _user_error(capsys, ["exp-c", "--backend", "raster", "--screen", screen,
                               "--csv", str(out)])
    assert screen in err
    assert not out.exists()


def _hidden_photo_scene(tmp_path, under):
    """A scene whose photo "under" sits beneath a large opaque photo, or
    off screen, with `under`'s source and crop as given."""
    save_ppm(RasterImage.filled(8, 6, (10, 20, 30, 255)), tmp_path / "small.ppm")
    save_ppm(RasterImage.filled(60, 60, (200, 90, 10, 255)), tmp_path / "large.ppm")
    photos = [{"id": "under", "scale": 1, "angle": 0, "effects": [], "z": 0, **under},
              {"id": "top", "source": "large.ppm", "crop": None, "scale": 8, "angle": 10,
               "center": [500, 400], "effects": [], "z": 1}]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"standard_viewport": [1024, 768], "z_base": 0,
                                 "photos": photos}), encoding="utf-8")
    return scene


@pytest.mark.parametrize("under", [
    {"source": "small.ppm", "crop": [100, 100, 5, 5], "center": [500, 400]},
    {"source": "gone.ppm", "crop": None, "center": [500, 400]},
    {"source": "small.ppm", "crop": [100, 100, 5, 5], "center": [-900, 400]},
], ids=["hidden-crop-outside-source", "hidden-missing-source", "off-screen-crop-outside-source"])
@pytest.mark.parametrize("backend", ["raster", "scenegraph", "legacy"])
def test_hidden_photo_errors_are_one_line_errors(tmp_path, capsys, under, backend):
    scene = _hidden_photo_scene(tmp_path, under)
    err = _user_error(capsys, ["render", "--scene", str(scene), "--backend", backend,
                               "--out", str(tmp_path / "f.ppm")])
    assert "under" in err or "gone.ppm" in err
    assert not (tmp_path / "f.ppm").exists()
