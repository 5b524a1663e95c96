"""Golden CLI artifacts: every file each command writes at a fixed seed.

The CLI promises byte-identical files for a fixed config and seed. This test
runs each command once, at seed 3 with a small config, and compares the
sha256 of every file written with a pin. A change that moves a pinned file on
purpose updates its pin and says which file moved and why. The pins assume
the NumPy and BLAS builds that ``tests/test_agent.py``'s ``PINNED_DIGESTS``
assume.
"""

import contextlib
import hashlib
import io

from testscope.cli import run_command

GOLDEN_CONFIG = "train.episodes = 6\neval.n_runs = 2\n"
SEED = "3"

# (output directory, argv after the common flags); each invocation writes to
# its own directory, so no file overwrites another
INVOCATIONS = (
    ("trace-standard", ["trace-gen"]),
    ("trace-adversarial", ["trace-gen", "--mode", "adversarial"]),
    ("train", ["train"]),
    ("eval-static", ["eval", "--policy", "static"]),
    ("eval-heuristic", ["eval", "--policy", "heuristic"]),
    ("eval-classifier", ["eval", "--policy", "classifier"]),
    ("eval-rl", ["eval", "--policy", "rl", "--weights", "{train}/train-3-0.json"]),
    ("compare", ["compare"]),
    ("sweep", ["sweep"]),
)

PINNED_SHA256 = {
    "trace-standard/trace-gen-3-0.csv": "08a423f77d15ec7da88d8f7e7b7ee0fe89121fedca5925124a05057ec8945350",
    "trace-adversarial/trace-gen-3-0.csv": "81ddbbbde0bc37ebb302712bef97e4642de46ddf5140b2cc9caf58f10ac78eb9",
    "train/train-3-0.json": "a5bd15e3e52533bba9a1c330e26e4e93a6983af5d890c61bbf8a59ee032caa6b",
    "train/train-3-1.csv": "538923cf03a211361f085cd7ec25d73a7e90f7fdadb5d6d88083dbb8b2768307",
    "eval-static/eval-3-0.csv": "6e3e317bd7153e132dc39c259037597adbb1983a5d0ad78661db373363158b55",
    "eval-static/eval-3-1.json": "0baf242e92799aa63f6904b13d4c9d98fcfe59a1e41208479cdd79e421eeed35",
    "eval-heuristic/eval-3-0.csv": "2616db434dc852c453892ca4f30a7bbf6d7bb51fcb70417e6f4bfd217b32877e",
    "eval-heuristic/eval-3-1.json": "600b55f26920ec7b5ec068195c77ddb8881b0dbe11e326041b4bd4a0ead54f49",
    "eval-classifier/eval-3-0.csv": "18c49192bc23a8b74812cf881ca9c4d99c88ea5d464deebbcc5616fd162b38b2",
    "eval-classifier/eval-3-1.json": "77b57c0eaca5b040f7c1a5fa554995935f6bcea1a6c13f2f3576c03ea7afabc7",
    "eval-rl/eval-3-0.csv": "7d8dfaac0ab81bb28039b1fa45c7a2fdb75571619a8e557c7cef689a1fd0af6e",
    "eval-rl/eval-3-1.json": "9b0988d806a8a038df8efe95db065002a803d8054fba32af5eec9b3e99dd1713",
    "compare/compare-3-0.csv": "04b43a5e6fd4978be1db65cfd57feb0bed72a6a4a399eae8c377fa90ac56f99a",
    "compare/compare-3-1.json": "5152a1b83a9d107cb390bc03c3413881fa78b5258fc088f17c90c99ad166b12e",
    "sweep/sweep-3-0.csv": "197a92ad043c848251b034ddad0d187ef8e07def5fc928378f758a760b430480",
    "sweep/sweep-3-1.json": "31e069e1313c285fb3f991053950928ed14e4e5495cf841587f8736455e9b321",
}


def test_every_cli_artifact_matches_its_pin(tmp_path):
    config = tmp_path / "golden.cfg"
    config.write_text(GOLDEN_CONFIG)
    written = {}
    for name, argv in INVOCATIONS:
        out = tmp_path / name
        argv = [arg.format(train=tmp_path / "train") for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            status = run_command([*argv, "--config", str(config), "--seed", SEED, "--out", str(out)])
        assert status == 0, name
        for path in sorted(out.iterdir()):
            written[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert written == PINNED_SHA256
