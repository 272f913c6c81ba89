"""Golden sha256 digests of the engine's pixel outputs.

The values below were captured from the mgrid rasterizer and the effect
kernels as they stood before any pixel path was optimised.  Every later
kernel change must reproduce them bit for bit.  Never regenerate a digest
to make a change pass: a mismatch means some pixel path changed.

Covered:
* all 17 effect kinds over three `bench.photo_pool()` images;
* each backend's frame of the 100-photo exp-c scene at
  `ScreenSpec.fit(1920, 1200)`;
* exp-b's drag of the rotated exp-c probe photo, every frame of the replay
  plus the release frame, on the two drag backends.
"""

import hashlib

import pytest

from scrapbook import bench
from scrapbook import effects as fx
from scrapbook.backends import BackendKind, begin_interaction, render_full
from scrapbook.geometry import Rect
from scrapbook.photo import rotate_by
from scrapbook.scene import STANDARD_VIEWPORT, SceneDocument
from scrapbook.viewport import ScreenSpec

SEED = 601
POOL_IMAGES = ("b480x360", "f480x360", "pool/576x384/002")
DRAG_PHOTOS = 25

EFFECTS = {
    "grayscale": fx.grayscale(),
    "invert": fx.invert(),
    "sepia": fx.sepia(),
    "brightness": fx.brightness(-40),
    "contrast": fx.contrast(1.7),
    "hue": fx.hue(137.5),
    "saturate": fx.saturate(1.6),
    "desaturate": fx.desaturate(),
    "blackwhite": fx.blackwhite(100),
    "blur": fx.blur(),
    "sharpen": fx.sharpen(),
    "emboss": fx.emboss(),
    "opacity": fx.opacity(0.37),
    "flip_h": fx.flip_h(),
    "flip_v": fx.flip_v(),
    "border": fx.border(3, (10, 200, 30, 128)),
    "redeye": fx.redeye(Rect(40, 30, 200, 150)),
}

EFFECT_DIGESTS = {
    "b480x360": {
        "grayscale":
            "e04e97aad24837b117bbb8014023035830ec000e26f9fbb964c65a259a1df76e",
        "invert":
            "7a80857c7e225bbce2ec26952c1258e234b1f26e82298c8563bed0a0956679cc",
        "sepia":
            "c3a7db1643091029d9dc0249d25d55a18ed7e8ea3561222fc6eab0339926743a",
        "brightness":
            "4f74aac7c5dee507e855b8389f28a6cd03eae85140e0898eb1008dabfcd2b37d",
        "contrast":
            "9bbd605f75baa9a8d156ddc734d50bbbc58dad5c0cfa1953f1c2c531bdc73386",
        "hue":
            "150c2fa76b8b19b63c366be0edf260b3bd8acc5b91b18262dda9120847c782a0",
        "saturate":
            "374afa0642ee6b5821ff0758801887e556d408885f1f02e3acd75976081d0153",
        "desaturate":
            "e04e97aad24837b117bbb8014023035830ec000e26f9fbb964c65a259a1df76e",
        "blackwhite":
            "a1bc144b8d398378b176d521ab4fae11971e0227de0747aa27fb07691770fc5a",
        "blur":
            "f95fb0fd115ae63ebb1bb5bcb5be2cdb1a3c848fb2ab39eda5397e78ac8c4598",
        "sharpen":
            "2c6d66c3c4771f9657ed13df73fccf4baf41c3053ac481625675aea0129e3e92",
        "emboss":
            "459cb15a7bbb9dd4096e22c5f5fcca0f2925069c55d48d53bb1aa0685eba0689",
        "opacity":
            "85a29b6d2e05df103d7dee9afb3367a2c0051329256511746587b187d2df7793",
        "flip_h":
            "1fbe167c2bfea6cd2a294fc0e2dcaff4db754c74dd202277aacb9bf0b34ee86d",
        "flip_v":
            "fbbee5a335318dc64768fa9c16f8aead0e6972504e154d70e8baaa9a52d7949f",
        "border":
            "77a1fe3c0dc1656e5c04270d9072cdcb585b3c446e48939fb72c86923ae2eb04",
        "redeye":
            "e5a192cac7bb0b13fed7787a1701dd72d36dbc7bc2ca10d58f962e0c8211ab26",
    },
    "f480x360": {
        "grayscale":
            "5de45fabc57d4a373f160e7ab3b2427b5a0377718f7b538956c7bc58e8ff0259",
        "invert":
            "70d3a33ae8284bf15569fbe6fffc3daf9c56ce492a39b1c1aa89978540dfb052",
        "sepia":
            "fdd0d3dd83400818c1b87d7e8080bad822fa19d6baf8beddc7051aa744cebca3",
        "brightness":
            "2e803bc9989709ba4856c507bd513b3f78a6213284a762a5dcbd48858f26dd5b",
        "contrast":
            "81e70574f0259d3e9ded9bd1e55e3439a7aa5f46e2df444af35015f43c390e43",
        "hue":
            "5de45fabc57d4a373f160e7ab3b2427b5a0377718f7b538956c7bc58e8ff0259",
        "saturate":
            "5de45fabc57d4a373f160e7ab3b2427b5a0377718f7b538956c7bc58e8ff0259",
        "desaturate":
            "5de45fabc57d4a373f160e7ab3b2427b5a0377718f7b538956c7bc58e8ff0259",
        "blackwhite":
            "b1740f5a01ca0e7e395b958384034d74e527867f836710d664a7bd387c9f1601",
        "blur":
            "5de45fabc57d4a373f160e7ab3b2427b5a0377718f7b538956c7bc58e8ff0259",
        "sharpen":
            "5de45fabc57d4a373f160e7ab3b2427b5a0377718f7b538956c7bc58e8ff0259",
        "emboss":
            "b1740f5a01ca0e7e395b958384034d74e527867f836710d664a7bd387c9f1601",
        "opacity":
            "bd1994e264d2f8fe6e3a8a0e54090fb7a3cd2d6539da6958af2948e4283b34e9",
        "flip_h":
            "5de45fabc57d4a373f160e7ab3b2427b5a0377718f7b538956c7bc58e8ff0259",
        "flip_v":
            "5de45fabc57d4a373f160e7ab3b2427b5a0377718f7b538956c7bc58e8ff0259",
        "border":
            "a310152ef3d6bbe18bfa0b89848525953902cd90fd86b2b416231fe035340ef7",
        "redeye":
            "5de45fabc57d4a373f160e7ab3b2427b5a0377718f7b538956c7bc58e8ff0259",
    },
    "pool/576x384/002": {
        "grayscale":
            "717b27a425d65daed382b6352446f300949a3a9bf7345e89603f01df7a804a9c",
        "invert":
            "9aa03221fc0b98aa893fcf952ae25966203ac1102cbfa9974f420aaefd132d8b",
        "sepia":
            "ff4f043eeb026534b601c906d11de686d9648d8861c17397168a8d834a07994d",
        "brightness":
            "158d868a542147dda6cd8f4e3c8685c9a0171d8c4baf7ef81df9c0921973ef6e",
        "contrast":
            "3711fb98e32783d585c1e7c3f67f21883a0fce10643805418c65829d1d33de39",
        "hue":
            "db800b0594d28db743cd2d87643e8367679da1371299992979161a82c6829378",
        "saturate":
            "cd9d4c5d05a7733c94a96c44b6a26b9d28f58e98e39cadba3c3206560d23b700",
        "desaturate":
            "717b27a425d65daed382b6352446f300949a3a9bf7345e89603f01df7a804a9c",
        "blackwhite":
            "85bb70f3fdd08dd3ed89817b6f46bdc84d354ccaf7de03ff9e2e6bf572a32224",
        "blur":
            "c00c07e0b0a1877432edadb98aa36badd826814636165d66402ec44f94672dec",
        "sharpen":
            "776b79963bacbece83487392960fea2410e49a17c9225ae86f2d1a6b2eccc25b",
        "emboss":
            "d4c1d188a4e963692986a9604a6fbdb73ad20f3d518e760a078e28d04dc71e11",
        "opacity":
            "8dc6a986758fb9db9624757dd7b4c70ba490dfe43e79c27b1d1fd214069c560f",
        "flip_h":
            "90bd4a711d593db3b40702499e8da96ed57c9c1c5f0483e8d2ed0c4d6de2685e",
        "flip_v":
            "7109eefb50c993e0501642217558baf648bad4f2e1cc74b1a213f9314d02d62c",
        "border":
            "d6af985c33f3001d00c223b96933cc4e6cc1b8d3edb659901837346cc9b6e266",
        "redeye":
            "7f6340a3d9bde4cd910a052426f04a8df0bc3967ade6d47e51a9f764d9a01e1d",
    },
}

SCENE_DIGESTS = {
    "raster": "c3b52658910e96797b9520e72177b103612e9b4979ee879dd3df4eba3a760457",
    "scenegraph": "c3b52658910e96797b9520e72177b103612e9b4979ee879dd3df4eba3a760457",
    "legacy": "c3b52658910e96797b9520e72177b103612e9b4979ee879dd3df4eba3a760457",
}

DRAG_DIGESTS = {
    "raster": ("043d3648a7f30b95d6826fbca8c9a614c913e1aea5bb97e7f119c24e4e2cb2d5",
               "5aa07ffeea5816bad5c5bfd38857bc69137e73cbb2830dee7a4068d550229bf8"),
    "scenegraph": ("043d3648a7f30b95d6826fbca8c9a614c913e1aea5bb97e7f119c24e4e2cb2d5",
                   "5aa07ffeea5816bad5c5bfd38857bc69137e73cbb2830dee7a4068d550229bf8"),
}


def _image_digest(image) -> str:
    header = b"%dx%d\n" % (image.width, image.height)
    return hashlib.sha256(header + bytes(image.data)).hexdigest()


def _frame_digest(frame) -> str:
    return hashlib.sha256(frame.rgb.tobytes()).hexdigest()


def _exp_c_scene(count: int, screen_size) -> SceneDocument:
    scene = SceneDocument()
    for i in range(1, count + 1):
        scene.add_photo(bench.plan_photo(bench.sim_plan(i, SEED, screen_size)))
    return scene


def effect_digests(name: str) -> dict:
    image = bench.photo_pool()(name)
    return {kind: _image_digest(fx.apply_effect(image, spec))
            for kind, spec in EFFECTS.items()}


def scene_digests() -> dict:
    scene = _exp_c_scene(100, STANDARD_VIEWPORT)
    screen = ScreenSpec.fit(1920, 1200)
    pool = bench.photo_pool()
    return {backend.value: _frame_digest(render_full(backend, scene, pool, screen)[0])
            for backend in BackendKind}


def drag_digests() -> dict:
    """Digest of every drag frame in order, and of the release frame."""
    pool = bench.photo_pool()
    screen = ScreenSpec.identity(*bench.SIM_SCREEN)
    trace = bench.make_mouse_trace()
    probe = f"photo{bench.PROBE_PHOTO_INDEX:03d}"
    out = {}
    for backend in (BackendKind.RASTER, BackendKind.SCENEGRAPH):
        scene = _exp_c_scene(DRAG_PHOTOS, bench.SIM_SCREEN)
        scene.replace_photo(rotate_by(scene.photo(probe), bench.PROBE_DEGREES))
        grab = scene.photo(probe).center
        session = begin_interaction(backend, scene, pool, screen, probe)
        frames = hashlib.sha256()
        for _tick, idx in bench._frame_targets(trace):
            s = trace.samples[idx]
            frame, _ = session.update((grab[0] + s.x, grab[1] + s.y))
            frames.update(frame.rgb.tobytes())
        s = trace.samples[-1]
        release, _ = session.end(final_center=(grab[0] + s.x, grab[1] + s.y))
        out[backend.value] = (frames.hexdigest(), _frame_digest(release))
    return out


@pytest.mark.parametrize("name", POOL_IMAGES)
def test_effect_digests(name):
    assert effect_digests(name) == EFFECT_DIGESTS[name]


def test_scene_frame_digests():
    assert scene_digests() == SCENE_DIGESTS


def test_drag_frame_digests():
    assert drag_digests() == DRAG_DIGESTS
