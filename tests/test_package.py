import importlib
import pkgutil

import medlink
import medlink.codec as codec
from medlink.synth import synth_image


def test_submodules_are_not_shadowed_by_package_exports():
    for info in pkgutil.iter_modules(medlink.__path__):
        module = importlib.import_module(f"medlink.{info.name}")
        assert getattr(medlink, info.name) is module, info.name


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(medlink.__path__):
        module = importlib.import_module(f"medlink.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"medlink.{info.name}.{name}"
        exec(f"from medlink.{info.name} import *", {})


# the layer functions the benchmark tracer wraps as attributes of
# medlink.codec; the codec must keep calling each through the module
TRACED_CODEC_NAMES = (
    "dwt_forward",
    "dwt_inverse",
    "quantize",
    "dequantize",
    "huffman_build",
    "huffman_encode",
    "huffman_decode",
    "pack_header",
)


def test_codec_calls_every_traced_layer_through_the_module(monkeypatch):
    calls = dict.fromkeys(TRACED_CODEC_NAMES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in TRACED_CODEC_NAMES:
        monkeypatch.setattr(codec, name, counting(name, getattr(codec, name)))
    image = synth_image("blobs", 64, 64, bit_depth=16, seed=1)
    codec.decompress(codec.compress(image, target_cr=10.0))
    assert all(calls.values()), calls
