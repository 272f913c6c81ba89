"""Golden sha256 digests of the experiment CSVs and of one saved scene.

The values below were captured from the cost accounting and the scene
model as they stood before the redraw rule and the position-only z-order
replaced the per-operation unit functions and the stored z field.  Every
later change must reproduce them byte for byte.  Never regenerate a
digest to make a change pass: a mismatch means a modelled cost or the
document format changed.

Covered:
* the exp-a CSV, unquantized and with a 15 ms clock;
* the exp-b CSV per backend at 480x360 and 1280x720, with and without
  the invert chain;
* the exp-c CSV per backend on seeds 0 and 601, at the default throughput
  and at infinite throughput with a 15 ms clock (both seeds give the
  same bytes: every exp-c photo starts fully on screen and a draw is
  charged its whole box, so positions never enter the cost);
* `scene_save` of the benchmark's seeded 100-photo compose scene after
  one bring-to-front and one send-to-back.
"""

import hashlib
import io
import random
from dataclasses import replace

import pytest

from scrapbook import bench
from scrapbook import effects as fx
from scrapbook.backends import BackendKind
from scrapbook.geometry import Rect
from scrapbook.scene import SceneDocument, scene_save

INF = float("inf")

EXP_A_DIGESTS = {
    None: "c66eb1efcb5fcee4e951d4e8eeb76d041519bdd6e5a5d8f05b18b971129e9bec",
    15.0: "21ca34da442b105397ce702dc7298159ddddf5c6a82f4010e848314a6e8dcada",
}

EXP_B_DIGESTS = {
    ("raster", (480, 360), None):
        "1bc59f461d7957549916d96b41d0ea4bdb74eeb3b5f278bed2240da097cd0d03",
    ("raster", (480, 360), "invert"):
        "e654ecdd3b2bf51e3d848a765d79d7d016c7d024c4df932b3efe0da4e45a75da",
    ("raster", (1280, 720), None):
        "6adae72f0db12a9c84ff059a7fef177af066d6ea4814111a8d4d089ed6228c72",
    ("raster", (1280, 720), "invert"):
        "4a226f255ad28a8457eb653e0feb29d15fa397e08b892b78c05246b409a415d3",
    ("scenegraph", (480, 360), None):
        "ea2f4d7fe243c56893afb568845fa474c0051007d6a36a4db596bf068f34f0cc",
    ("scenegraph", (480, 360), "invert"):
        "0a81cb9f27e833ed8f9da9e21c8d985b746efb9332c87538b7663a0c4ed455bb",
    ("scenegraph", (1280, 720), None):
        "23fe9ef4158fde1348589b5dea7f8a0fc2a1fb7cd587f49e017d4d7cab8d1e6a",
    ("scenegraph", (1280, 720), "invert"):
        "cbca16f8350a9b0f91c18c91e998ee6d63b0282af58552bd24ce468a426796c3",
    ("legacy", (480, 360), None):
        "099fef1a0a4d971a055a4a5c92a5df3cba763c51c41a716adbafbf541f4e21ec",
    ("legacy", (480, 360), "invert"):
        "309914a12134f2ad67f2d7a87bcc9a7a4fbad8fe1fafa14c4116c9587fe15492",
    ("legacy", (1280, 720), None):
        "4a57636b5cef8d2893ed8f6fddf52ad84f363897778db6acaa41816b7dec62f4",
    ("legacy", (1280, 720), "invert"):
        "8df94fd781e79805ca24073c83dd3c1c095cb507457cbfbf61ab027fb6ef8447",
}

EXP_C_DIGESTS = {
    ("raster", 0, 1000.0, None):
        "34e8512b443c0ad47b4264704234e11aa65c5708293403db5c41c2d0afba54eb",
    ("raster", 0, INF, 15.0):
        "6144b9fa959335734dce18b799f3a2ebd1ac2507d77204b4603d9ed8ad391e18",
    ("raster", 601, 1000.0, None):
        "34e8512b443c0ad47b4264704234e11aa65c5708293403db5c41c2d0afba54eb",
    ("raster", 601, INF, 15.0):
        "6144b9fa959335734dce18b799f3a2ebd1ac2507d77204b4603d9ed8ad391e18",
    ("scenegraph", 0, 1000.0, None):
        "3f40f91fcc06d318c8d3313397395ccdf68ee794942474e78cfc653662f9a859",
    ("scenegraph", 0, INF, 15.0):
        "d5a11e506989b0355082d66d2bbbd40d393faea5c0c91259fada8041f6059194",
    ("scenegraph", 601, 1000.0, None):
        "3f40f91fcc06d318c8d3313397395ccdf68ee794942474e78cfc653662f9a859",
    ("scenegraph", 601, INF, 15.0):
        "d5a11e506989b0355082d66d2bbbd40d393faea5c0c91259fada8041f6059194",
    ("legacy", 0, 1000.0, None):
        "a8a41b5a08db709731123f09bff3bbd0aba1dcbf73fe23b5da4827e89a442ae0",
    ("legacy", 0, INF, 15.0):
        "9147a8d39bd761f13f5299952d3d89bb5a6889fcc448b35aee88b3f2edb161d4",
    ("legacy", 601, 1000.0, None):
        "a8a41b5a08db709731123f09bff3bbd0aba1dcbf73fe23b5da4827e89a442ae0",
    ("legacy", 601, INF, 15.0):
        "9147a8d39bd761f13f5299952d3d89bb5a6889fcc448b35aee88b3f2edb161d4",
}

SCENE_JSON_DIGEST = "ae8555d5bf664825ef076461fb2dc65bdc5cb738c656ada660d49f6b4a44c09f"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv(write, rows) -> str:
    fh = io.StringIO()
    write(rows, fh)
    return fh.getvalue()


def exp_a_digest(quantize) -> str:
    return _sha256(_csv(bench.write_exp_a_csv, bench.exp_a_run(quantize=quantize)))


def exp_b_digest(backend: BackendKind, size, effect) -> str:
    return _sha256(_csv(bench.write_exp_b_csv, [bench.exp_b_run(backend, size, effect=effect)]))


def exp_c_digest(backend: BackendKind, seed: int, throughput: float, quantize) -> str:
    result = bench.exp_c_run(backend, seed=seed, throughput=throughput, quantize=quantize)
    return _sha256(_csv(bench.write_exp_c_csv, result))


# --- the compose scene, restated from the benchmark's set-up --------------

def _random_effect(rng: random.Random, kind: str) -> fx.EffectSpec:
    params = {
        "brightness": lambda: {"delta": rng.randint(-60, 60)},
        "contrast": lambda: {"factor": round(rng.uniform(0.6, 1.4), 2)},
        "hue": lambda: {"degrees": rng.randint(15, 345)},
        "saturate": lambda: {"factor": round(rng.uniform(0.3, 1.7), 2)},
        "blackwhite": lambda: {"threshold": rng.randint(64, 192)},
        "opacity": lambda: {"alpha": round(rng.uniform(0.5, 0.95), 2)},
        "border": lambda: {"width": rng.randint(2, 10),
                           "color": (rng.randrange(256), rng.randrange(256),
                                     rng.randrange(256), 255)},
        "redeye": lambda: {"region": Rect(rng.randint(0, 100), rng.randint(0, 100),
                                          rng.randint(40, 160), rng.randint(40, 120))},
    }.get(kind, dict)()
    return fx.EffectSpec(fx.EffectKind(kind), params)


def compose_scene(seed: int, photos: int = 100, deck_per_kind: int = 3) -> SceneDocument:
    """The exp-c rule table on the standard viewport with seeded effect
    chains dealt per (source size, rotated) class."""
    rng = random.Random(seed)
    entries = [bench.sim_plan(i, seed, screen_size=(1024, 768))
               for i in range(1, photos + 1)]
    classes: dict = {}
    for entry in entries:
        if entry.scale == 1.0 and entry.crop is None:
            key = (entry.source_size, entry.rotation != 0.0)
            classes.setdefault(key, []).append(entry.index)
    small, large = bench.SIM_SMALL, bench.SIM_LARGE
    dealt: dict = {}
    for j, kind in enumerate(fx.EffectKind):
        targets = [(small, False), (large, False), (small if j % 2 == 0 else large, True)]
        for copy in range(deck_per_kind):
            dealt.setdefault(targets[copy % 3], []).append(kind.value)
    chains = {}
    for key, kinds in sorted(dealt.items()):
        rng.shuffle(kinds)
        candidates = classes.get(key, [])
        chosen = rng.sample(candidates, min(len(kinds) - len(kinds) // 3, len(candidates)))
        for n, i in enumerate(chosen):
            chains[i] = tuple(_random_effect(rng, k) for k in kinds[n::len(chosen)])
    scene = SceneDocument()
    for entry in entries:
        scene.add_photo(replace(bench.plan_photo(entry),
                                effects=chains.get(entry.index, ())))
    return scene


def scene_json_digest() -> str:
    scene = compose_scene(601)
    scene.bring_to_front("photo003")
    scene.send_to_back("photo050")
    return _sha256(scene_save(scene))


# --- tests -----------------------------------------------------------------

@pytest.mark.parametrize("quantize", list(EXP_A_DIGESTS), ids=str)
def test_exp_a_csv_digest(quantize):
    assert exp_a_digest(quantize) == EXP_A_DIGESTS[quantize]


@pytest.mark.parametrize("key", list(EXP_B_DIGESTS), ids=str)
def test_exp_b_csv_digest(key):
    backend, size, effect = key
    assert exp_b_digest(BackendKind(backend), size, effect) == EXP_B_DIGESTS[key]


@pytest.mark.parametrize("key", list(EXP_C_DIGESTS), ids=str)
def test_exp_c_csv_digest(key):
    backend, seed, throughput, quantize = key
    assert exp_c_digest(BackendKind(backend), seed, throughput, quantize) \
        == EXP_C_DIGESTS[key]


def test_reordered_compose_scene_json_digest():
    assert scene_json_digest() == SCENE_JSON_DIGEST
