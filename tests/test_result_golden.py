"""Bitwise golden result files of every CLI experiment.

Each case runs one experiment through `main(argv)` on a small config and
hashes the bytes of its result file, once with `--format json` and once
with `--format csv`. The digests pin the result format: the field names,
the key order, the float text and the rows. A change to how results are
written must leave every digest unchanged; a change that moves draws on
purpose moves these digests too, and must name them.

Print the current digests with

    PYTHONPATH=src python tests/test_result_golden.py
"""

import contextlib
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from levy_passage.cli import main

EXP2 = "pow(2.718281828459045, -2*x)"
DMP = {"family": "drift-minus-poisson", "a": 2.0}
CL = {"family": "cramer-lundberg", "lam": 1.0, "alpha": 2.0, "premium": 1.0}

# (experiment, config) per case; every config is small enough that all
# cases together run in about a second
CASES = {
    "classify": ("classify", {"model": DMP, "regime": "prob-large"}),
    # a horizon of 3 censors most paths: inf and nan in the rows
    "simulate": ("simulate", {"model": CL, "sim": {"horizon": 3.0},
                              "seed": 3, "n": 100, "u_grid": [0.5]}),
    # rho keys 2.0 and 10.0 sort as text ("10.0" < "2.0"), not as numbers
    "stability": ("stability", {"model": DMP, "sim": {"horizon": 500.0},
                                "seed": 11, "n": 100, "u_grid": [2.0, 8.0],
                                "regime": "prob-large",
                                "rho_list": [0.5, 2.0, 10.0]}),
    "stability-skeleton": ("stability", {
        "model": {"family": "custom", "gamma": 1.0, "sigma2": 1.0,
                  "pos_tail": EXP2, "neg_tail": EXP2},
        "sim": {"horizon": 60.0, "dt": 0.05}, "seed": 5, "n": 100,
        "u_grid": [2.0], "regime": "prob-large"}),
    "last-max": ("last-max", {"model": DMP, "sim": {"horizon": 500.0},
                              "seed": 12, "n": 100, "u_grid": [2.0, 8.0],
                              "rho_list": [0.0, 1.0]}),
    "mean-exit": ("mean-exit", {"model": DMP, "sim": {"horizon": 500.0},
                                "seed": 13, "n": 100, "u_grid": [2.0, 8.0]}),
    "as-stability": ("as-stability", {"model": DMP,
                                      "sim": {"horizon": 1e4}, "seed": 14,
                                      "n": 100, "tail_window": 2,
                                      "levels": [10.0, 1000.0, 4000.0]}),
    "overshoot": ("overshoot", {
        "model": {"family": "compound-poisson-drift", "rate": 1.0,
                  "law": {"kind": "exponential", "alpha": 2.0},
                  "drift": 0.5},
        "sim": {"horizon": 500.0}, "seed": 15, "n": 100, "u_grid": [3.0],
        "rho_list": [0.0, 1.0, 2.0, 10.0]}),
    "lt-identity": ("lt-identity", {"model": DMP, "seed": 21, "n": 300,
                                    "transform": {"mu": 1.0, "nu": 0.5,
                                                  "theta": 0.5}}),
    "ruin": ("ruin", {"model": CL, "sim": {"horizon": 600.0}, "seed": 16,
                      "n": 200, "u_grid": [1.0, 2.0]}),
    # lattice jumps: the overshoot-law fields are written as NaN
    "ruin-lattice": ("ruin", {
        "model": {"family": "compound-poisson-drift", "rate": 0.5,
                  "law": {"kind": "atom", "size": 1.0}, "drift": -1.0},
        "sim": {"horizon": 600.0}, "seed": 17, "n": 100, "u_grid": [2.0]}),
    # the general Esscher tilt of a tail-expression model
    "ruin-tail-expression": ("ruin", {
        "model": {"family": "custom", "pos_tail": EXP2,
                  "gamma": -1.0 + (1.0 - 3.0 * math.exp(-2.0)) / 2.0},
        "sim": {"horizon": 600.0}, "seed": 18, "n": 100, "u_grid": [2.0]}),
    "conditional": ("conditional", {"model": CL, "sim": {"horizon": 600.0},
                                    "seed": 19, "n": 200,
                                    "u_grid": [2.0, 4.0]}),
    "appendix-demo": ("appendix-demo", {"model": DMP, "seed": 3, "n": 100,
                                        "times": [1.0, 10.0]}),
    # an infinite-activity model: the cutoff epsilon is written per time
    "appendix-demo-cutoff": ("appendix-demo", {
        "model": {"family": "counterexample1"}, "seed": 4, "n": 100,
        "times": [0.01, 0.1]}),
}
FORMATS = ("json", "csv")


def result_digest(name: str, fmt: str, workdir: Path) -> str:
    command, cfg = CASES[name]
    path = workdir / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = workdir / f"{name}.{fmt}"
    assert main([command, "--config", str(path), "--out", str(out),
                 "--format", fmt]) in (0, 2)
    return hashlib.sha256(out.read_bytes()).hexdigest()


GOLDEN = {
    "appendix-demo.json":
        "5e22ccf9fb0853ff6b5f8a9a3b76464d1a26a047146b0c55b52b914ba3f8ead7",
    "appendix-demo.csv":
        "431473b0dbf5edea2e6493845483b409e92ab216ab10a2873d9918900b611fce",
    "appendix-demo-cutoff.json":
        "43aaa5e95418a78b11f062041b72ac01db3234e191a723fb6d004ceca8450773",
    "appendix-demo-cutoff.csv":
        "a601716069d0656686c1b070256649e2dea90c1126437d2eb11f7608eca0cf1d",
    "as-stability.json":
        "ceb419589e08879b366e6f227195567cdff661cf5b61cbf7d037d4874b2307a5",
    "as-stability.csv":
        "fcb99ed8f40cbf1f59f4d2e1340a5b6864f241e58e792b9e06c233f84cdee2b1",
    "classify.json":
        "856881dbd0c699e86da0e94de3efcb45b790a679337d83f0cf5f12111c5fab14",
    "classify.csv":
        "094a64a94d8901fe76a56c50dee6cdb7a124d183569a8579fb865b3a1d034bfc",
    "conditional.json":
        "050bba489d804365f2875728ae811d6b0188e0ccf55d41f6cca13c766ab8583a",
    "conditional.csv":
        "97086ed07221ac050dd0f9dddba53ee7fda0bae3447bf8bb5f1f344ac73a9c4f",
    "last-max.json":
        "af34b15f2f15b4693cb59c288c230ec42b9b8f6059eed635551b6194f8415780",
    "last-max.csv":
        "d5970474305f1f3ea2b45b4b11a9b947db72747062537acacc491ac6f48a53c3",
    "lt-identity.json":
        "032f51b6471089b8bc6691d2fa2a9ef33be596a723a8c20f53258e6282e4f360",
    "lt-identity.csv":
        "36dc892b1aa7251baaa0bfb530ad371b63fb1b4b22bb051c5bb73f84102f648d",
    "mean-exit.json":
        "ad036d4d7f3c78c2d48cc56e16151fcde214bc782c28e278904b5ce2575f0f1a",
    "mean-exit.csv":
        "eb1273c6dd1a31e6f9b869f7124b7c0a42c80febfbb7aab2230bdf2c40ae8de5",
    "overshoot.json":
        "3fa55b6875dcd728f9b907f3e478281719a0052e023f68091c3d488f54d5cfaa",
    "overshoot.csv":
        "019288331087fae4ecd5310e19de3a24032a1c3631ab538ff2f3f746a9247069",
    "ruin.json":
        "96516968c319e22235f1251c08d1a4961ba5cb44d704a26ebfbfede94fd0d42e",
    "ruin.csv":
        "46dd6fe3b92703bb13bd5d8633fbe23c32e5447d1a74b5ee723948926322f84a",
    "ruin-lattice.json":
        "7114a7b1f1b79406c00ace7204154740a85d38450cae2ff36f6d272f437cfbb0",
    "ruin-lattice.csv":
        "f0da475d61f05fdc775ff40c121f28c5e24f26e49d323d18a36df8528671fe7f",
    "ruin-tail-expression.json":
        "fb09e5e4b6bf7358f793a1e47018e6f92dadf4292c56196dbb97ae563cb4767e",
    "ruin-tail-expression.csv":
        "31c2583681149df35bf585c49ca901988621c004ca64f838d379bf0bc10f8ef0",
    "simulate.json":
        "8b374876476516ec21482747ccaf7d756329cdb8416b2082b60880bb577c6f56",
    "simulate.csv":
        "a5c807faacd100edc072096ea94c58b233c0dc2d6e4c42ce49d0e4c155c3178a",
    "stability.json":
        "34294b449ce86c4c2c84ccd3b484c2c9636f4a88c838976073a15090ef2629fc",
    "stability.csv":
        "21f55f6a478f309627d664f1e0e7c1cbc78da8b492e570cae0a61b0ce7081c19",
    "stability-skeleton.json":
        "9adebd028f555bbdb8fbd6594f6fc1ca4341318498a7ef4c3515de84af8ea9e4",
    "stability-skeleton.csv":
        "5fd1f72a0316361244af72182dddac0dfa0288561388daedf481743797ab8ea6",
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_result_file_is_bitwise_golden(name, fmt, tmp_path, capsys):
    assert result_digest(name, fmt, tmp_path) == GOLDEN[f"{name}.{fmt}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        lines = [f'    "{name}.{fmt}":\n        '
                 f'"{result_digest(name, fmt, Path(tmp))}",'
                 for name in sorted(CASES) for fmt in FORMATS]
    print("\n".join(lines))
