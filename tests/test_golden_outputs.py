"""Golden digests: the sha256 of the CSV and JSON bytes of a fixed list of small CLI runs.

Each run writes its results with --out into a fresh directory, and the digest of every
result file (not the .run.json execution record) must equal the one pinned here.  A change
that is meant to leave every output byte-identical is checked by this test as it stands.
A change that moves a byte on purpose updates the digest of each run it moves, and says
in CHANGES.md which runs moved and why.  The bytes come from numpy's float kernels, so
another numpy build or CPU may move them too.
"""

import hashlib

import pytest

from homsys import cli
from test_proofcheck import TWO_TABLES

MODELS = {"distance": "distance(0.5)", "resistance": "resistance(0.5)", "hipster": "hipster",
          "lazy_hipster": "lazy_hipster", "power_mean": "power_mean(1,-1)", "two_tables": TWO_TABLES}

# (id, argv without --out, suffix of --out: "" for the commands that write a .csv/.json pair)
RUNS = (
    [(f"{command}-{name}", [command, "--model", model], ".json")
     for command in ("gamma", "classify") for name, model in MODELS.items()]
    + [(f"evolve-{name}", ["evolve", "--model", MODELS[name], "--n", "8", "--grid", "1024", "--checkpoints", "4,8"], "")
       for name in ("hipster", "resistance", "distance")]
    + [(f"simulate-{name}", ["simulate", "--model", MODELS[name], "--n", "6", "--pool", "4096", "--seed", "7",
                             "--checkpoints", "3,6"], "")
       for name in ("hipster", "resistance", "distance", "lazy_hipster")]
    + [("lambda-check-hipster", ["lambda-check", "--model", "hipster", "--n-range", "64:128"], ""),
       ("lambda-check-resistance", ["lambda-check", "--model", "resistance(0.5)", "--n-range", "256:256",
                                    "--vgrid", "8"], "")]
    + [(f"serpar-{p}", ["serpar", "--p", p, "--n", "10", "--seeds", "20", "--check-exact"], "") for p in ("0.5", "0.9")]
)

GOLDEN = {
    "gamma-distance": {".json": "9bbce0d936f4b1d5c78a6a0b25273da5c5e15f08a3fa3cbd59225533c6545aa2"},
    "gamma-resistance": {".json": "b4ae91a1f426c95d2a8dc4060f316614a98547aeb84ce0ef0b5464b17c9b103c"},
    "gamma-hipster": {".json": "6b2230200a1ce00bbf92e2e8726ebf64345ff14f9947a6dc99a05ecaea48845b"},
    "gamma-lazy_hipster": {".json": "90bd5c278b7a9e01df5ab447ac451314047f454b7b2454907becda5c5f247f3c"},
    "gamma-power_mean": {".json": "d14721ee46ab150b11e2ad3a96a39c791d2cbfbb1ff5c97523083b60435d8799"},
    "gamma-two_tables": {".json": "6478822aa753d24ed5daaecc1f69efe895ab807ade1c7a4195ba3d1ce5ec7a32"},
    "classify-distance": {".json": "a47fbd148e076084edd565458ab80fdfd599bebfae2c69cee4c3f44641daa76e"},
    "classify-resistance": {".json": "e512046b28634f069e56e17df6d28b77bf84dd8bbf08ad0e6088063853950ea8"},
    "classify-hipster": {".json": "0d390df75f3d58498a0981c0771e845514837f676fb112f956b88a8c78a10d7b"},
    "classify-lazy_hipster": {".json": "7caccde6470461a586100034a8d67394848b6b847f775e7ff68d2e50a132a804"},
    "classify-power_mean": {".json": "a2d6850d608f5def805c7a27c06738d4dbecd99e461c828941ce5ec255de27df"},
    "classify-two_tables": {".json": "ade732cf5c1277a43958a275df2600ade05868a176a0e1f4e8c354d07bc24b2f"},
    "evolve-hipster": {".csv": "2acd4d38ed9f63c5742666851c17d01d71bf28f71bcacbb6ecf491e508fca501",
                       ".json": "276e43825d79a2dbdbf3b332468b119838c1ce69e3d8ed222d7244838c90beff"},
    "evolve-resistance": {".csv": "1b06676a0102f99ad8feb54b20262373224e275de6a7c0ec6d3109e22fefd806",
                          ".json": "7fd81d2311bf729c3f134c99249bed8880d309d80890348907fca3171f59da1e"},
    "evolve-distance": {".csv": "d176cfedc881209a615381bd799d164d483530ab03af29b85a2ce81ec959ff31",
                        ".json": "22ed945b34acb5c6689b26a7f28d650c29e577a731017fd9e09bc585554effd0"},
    "simulate-hipster": {".csv": "6d18652dfcee7782d2329491212a2af6306eab530b0825d2b50045e276bdecc9",
                         ".json": "68493a9d54155be9c8291f0bea17cd334f30dd996e50c79e8cc645512274721b"},
    "simulate-resistance": {".csv": "3b0ec86139d69b359fa227c162e9fd492d8113a510fbe9323aae1526391e1ee7",
                            ".json": "8783d791a9415fa743e5ffd958b594eaa4ced143e2cbe78ab657b99a4d3fe982"},
    "simulate-distance": {".csv": "90b43373392c9e4e70e059400850843d353c06791557c5cb7937cc7232f4dca9",
                          ".json": "90b6f5531ecc9da6a1184258897d3986a6c2f05d701e315d9ba09fe56f8de55a"},
    "simulate-lazy_hipster": {".csv": "473f8263531cb739caf1aa730759684964f8291dd2945327e67746eddcdae93d",
                              ".json": "2c89d5550774531997984b65cbc31662bd5fc1d8fda8ab486dcf551350c09d0e"},
    "lambda-check-hipster": {".csv": "6b757e69181bcf5ee7e4dc3a479f2d555ec495dd3184b63483a6eb96620b016f",
                             ".json": "fbeaf3a63ff25abca741cf0227a0092531d9fd096258b876eb3900d058ed439f"},
    "lambda-check-resistance": {".csv": "d811a0444ec94f824aaad9f99460f852758a83a5a60b964641bb3b8dd0a7ae52",
                                ".json": "3a9df800cdc3a413903125522bd9ea2a004454d6beafd3ec117035ff684fdf78"},
    "serpar-0.5": {".csv": "275ac79214d55d2aed29aefbcf085f91e4177587f785a22962e5b983a95e61c4",
                   ".json": "f5d3586f4dfed4a0d0d6e7fa4a30dc92953057d2662dd319312d5057dad60acd"},
    "serpar-0.9": {".csv": "a511647b073158457b51ecc109de5fbe731733dcab7554f33c93373e338db846",
                   ".json": "98c494ba2560a00dfcbbd7da6cd5249a1ff6769d7d6253a2cc73b81a57ebfc9a"},
}


def _result_digests(argv: list[str], suffix: str, tmp_path) -> dict[str, str]:
    out = tmp_path / f"run{suffix}"
    assert cli.main([*argv, "--out", str(out)]) == 0
    paths = [out] if suffix else [tmp_path / "run.csv", tmp_path / "run.json"]
    return {path.suffix: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


@pytest.mark.parametrize("name, argv, suffix", RUNS, ids=[name for name, _, _ in RUNS])
def test_outputs_match_their_golden_digests(name, argv, suffix, tmp_path):
    assert _result_digests(argv, suffix, tmp_path) == GOLDEN[name]
