"""Bitwise golden outputs of every engine and path consumer at fixed seeds.

Each case runs one consumer (first passage, fixed time, coupled levels,
ladder records, or a library call built on them) on one model and hashes
the raw bytes of every output array. The digests pin the random draw order
and the floating-point arithmetic of the path engines: a refactor of the
engines must leave every digest unchanged, and a change that moves draws on
purpose must re-record the digests and name the moved draws.

Print the current digests with

    PYTHONPATH=src python tests/test_engine_golden.py
"""

import hashlib

import numpy as np
import pytest

from levy_passage.cramer import esscher_tilt, ruin_is, solve_lundberg
from levy_passage.ladder import (Backend, LadderExponent, renewal_estimate,
                                 verify_lt_identity)
from levy_passage.models import (brownian_drift, cramer_lundberg,
                                 custom_model, drift_minus_poisson,
                                 make_counterexample1, spectrally_negative)
from levy_passage.rng import stream
from levy_passage.simulate import (SimConfig, cutoff_for_rate,
                                   extract_ladder, fixed_time_sample,
                                   passage_sample, prepare, ratio_path,
                                   ratio_paths)

DMP = drift_minus_poisson(2.0)
SN = spectrally_negative(2.0, 1.0, 1.0)
CL = cramer_lundberg(1.0, 2.0, 1.0)
LINE = brownian_drift(2.0, 0.0)             # event-exact with rate 0
BD = brownian_drift(1.0, 1.0)               # skeleton without jumps
EXP2 = "pow(2.718281828459045, -2*x)"
JD = custom_model(gamma=1.0, sigma2=1.0, pos_tail=EXP2, neg_tail=EXP2)

# the tilt-setup benchmark model: Cramer-Lundberg (1, 2, 1) written as
# tails, so the general Esscher tilt runs; its small jumps leave a Gaussian
# variance of about 6.7e-10
TAILS_CL = custom_model(gamma=-1.0 + (1.0 - 3.0 * np.exp(-2.0)) / 2.0,
                        sigma2=0.0, pos_tail=EXP2, neg_tail="0")

LONG = SimConfig(horizon=60.0, dt=0.05)
SHORT = SimConfig(horizon=1.5, dt=0.05)
LEVELS = np.array([0.3, 0.7, 1.5, 3.0, 6.0])


def _passage(model, u, cfg, n=200, seed=11, level=0):
    b = passage_sample(model, u, n, seed=seed, level_index=level, cfg=cfg)
    return [b.tau, b.ruined, b.x_at_tau, b.overshoot, b.undershoot,
            b.g_last_max]


def _fixed(model, t, cfg, n=200, seed=12, level=1):
    return list(fixed_time_sample(model, t, n, seed=seed, level_index=level,
                                  cfg=cfg))


def _coupled(model, cfg, n=40, seed=13):
    out = [ratio_paths(model, LEVELS, n, seed=seed, cfg=cfg)]
    for r in range(n):
        out.extend(ratio_path(model, LEVELS, stream(seed, 3, r), cfg=cfg,
                              with_max=True))
    return out


def _ladder(model, cfg, n=6, seed=14):
    out = []
    for r in range(n):
        epochs = extract_ladder(model, cfg, rng=stream(seed, 0, r))
        out.append(np.asarray(epochs, dtype=float).reshape(-1, 2))
    return out


def _ce1_fixed(t, n=200, seed=18):
    # appendix_demo's cutoff: about 50 jumps by t, so a path ends inside
    # its first block of segments
    model = make_counterexample1()
    eps = cutoff_for_rate(model, 50.0 / t)
    return _fixed(prepare(model, SimConfig(epsilon=eps)), t, None, n=n,
                  seed=seed)


def _tilted(model, u, cfg, n=100):
    tilted = esscher_tilt(model, solve_lundberg(model)).tilted
    return _passage(tilted, u, cfg, n=n, seed=19)


def _lt(model, cfg, n):
    # only the simulated side is pinned; any exponent serves for the rhs
    kappa = LadderExponent(Backend.DRIFT_MINUS_POISSON, 0.0, 0.0, 0.0,
                           lambda a, b: 1.0 + a + b)
    rep = verify_lt_identity(model, kappa, mu=1.0, nu=0.5,
                             theta=0.5, n=n, seed=15, cfg=cfg)
    return [np.array([rep["lhs"], rep["se"]])]


def _ruin(model, cfg, u, n=300):
    e = ruin_is(model, cfg, u, n, seed=16)
    return [np.array([e.psi_hat, e.se, e.C_hat, e.cond_tau_ratio,
                      e.cond_g_ratio, e.cond_x_ratio])]


def _renewal(model, cfg):
    r = renewal_estimate(model, cfg, [0.5, 1.0, 2.0, 4.0], n_paths=30,
                         seed=17)
    return [r.values, r.value_se, np.array([r.EL1_inv, r.EH1])]


CASES = {
    # event-exact engine
    "exact-dmp-passage": lambda: _passage(DMP, 2.0, LONG),
    "exact-dmp-passage-short": lambda: _passage(DMP, 5.0, SHORT),
    "exact-dmp-fixed": lambda: _fixed(DMP, 3.0, LONG),
    "exact-dmp-coupled": lambda: _coupled(DMP, LONG),
    "exact-dmp-coupled-short": lambda: _coupled(DMP, SHORT),
    "exact-dmp-ladder": lambda: _ladder(DMP, SimConfig(horizon=40.0)),
    "exact-sn-passage": lambda: _passage(SN, 3.0, LONG),
    "exact-sn-fixed": lambda: _fixed(SN, 2.5, LONG),
    "exact-sn-coupled": lambda: _coupled(SN, LONG),
    "exact-sn-coupled-short": lambda: _coupled(SN, SHORT),
    "exact-sn-ladder": lambda: _ladder(SN, SimConfig(horizon=40.0)),
    "exact-cl-passage": lambda: _passage(CL, 1.0, LONG),
    "exact-cl-passage-short": lambda: _passage(CL, 1.0, SHORT),
    "exact-cl-fixed": lambda: _fixed(CL, 4.0, LONG),
    "exact-cl-coupled": lambda: _coupled(CL, LONG),
    "exact-cl-ladder": lambda: _ladder(CL, SimConfig(horizon=40.0)),
    "exact-line-passage": lambda: _passage(LINE, 2.0, LONG, n=20),
    "exact-line-passage-short": lambda: _passage(LINE, 5.0, SHORT, n=20),
    "exact-line-fixed": lambda: _fixed(LINE, 3.0, LONG, n=20),
    "exact-line-coupled": lambda: (_coupled(LINE, LONG, n=3)
                                   + _coupled(LINE, SHORT, n=3)),
    "exact-line-ladder": lambda: _ladder(LINE, LONG, n=2),
    # gaussian skeleton with jumps
    "skeleton-jumps-passage": lambda: _passage(JD, 2.0, LONG, n=100),
    "skeleton-jumps-passage-short": lambda: _passage(JD, 4.0, SHORT, n=100),
    "skeleton-jumps-fixed": lambda: _fixed(JD, 2.0, LONG, n=100),
    "skeleton-jumps-coupled": lambda: _coupled(JD, LONG, n=20),
    "skeleton-jumps-coupled-short": lambda: _coupled(JD, SHORT, n=20),
    "skeleton-ce1-fixed-small-t": lambda: _ce1_fixed(1e-3),
    "skeleton-tilted-tails-passage": lambda: _tilted(
        TAILS_CL, 2.0, SimConfig(horizon=600.0)),
    # pure diffusion: one bridge to the horizon
    "diffusion-passage": lambda: _passage(BD, 2.0, LONG),
    "diffusion-passage-default": lambda: _passage(BD, 5.0, None, n=50),
    "diffusion-passage-short": lambda: _passage(BD, 4.0, SHORT),
    "diffusion-fixed": lambda: _fixed(BD, 2.0, LONG, n=100),
    "diffusion-coupled": lambda: _coupled(BD, LONG, n=20),
    "diffusion-coupled-one-bridge": lambda: [ratio_paths(
        BD, [0.25, 0.5, 0.75, 1.0, 1.25, 1.5], 200, seed=20, cfg=SHORT)],
    # library calls built on the consumers
    "lt-identity-dmp": lambda: _lt(DMP, SimConfig(horizon=1e4), 300),
    "lt-identity-skeleton": lambda: _lt(JD, LONG, 40),
    "ruin-cl": lambda: _ruin(CL, SimConfig(horizon=600.0), 2.0),
    "renewal-dmp": lambda: _renewal(DMP, SimConfig(horizon=100.0)),
}


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


GOLDEN = {
    "diffusion-coupled":
        "f5dc82939d425a894aa2dd17cf236c31c8050f022e0837c981ecebbbcef29f14",
    "diffusion-coupled-one-bridge":
        "8bccb88bcc086bb0b07faf626c1793f5ca1b2d6d5994c8e3ac6db80ef39b1f67",
    "diffusion-fixed":
        "e80be910ff548df34455efc5cb0407f4832ea5518f675641cc89f54e23e2db40",
    "diffusion-passage":
        "b85cf00bc3ab824006901dd436d887629024a15796dc835504a90e95d4dc75fd",
    "diffusion-passage-default":
        "cad5a5869a2cc67a140289e917d8d4c42cf35a086b3526625c7b9a3e7aaf3430",
    "diffusion-passage-short":
        "ab8c5e5afc168d0a757a9821a7d98dbdc2c2faf376e9bf4a7dfc26dae8bcf232",
    "exact-cl-coupled":
        "ab3e06706dfe2f7fdb89c3e0330a937b3b313bc30146ae2ab91e8ab0c80f5c99",
    "exact-cl-fixed":
        "a5a8b61f2f91440f7f8b5fe49b304527a987551fa254677644d0c09f90337c8d",
    "exact-cl-ladder":
        "970044a1f007d46d4ebcf45ee53042fc8644b32b767a8f4ec1db307af626ee8f",
    "exact-cl-passage":
        "d1847bb9e968f61726f441c80ae0586679b54f8b387d4024908cbd3ae99b7412",
    "exact-cl-passage-short":
        "d72337b4e09f2867a53e70303e21b717239e4f6791a7897c6faafaa11cde27d6",
    "exact-dmp-coupled":
        "378d3fc767ef22e3bbe2afd5f4671fbf82271122a4ab1d344c97731e60f7b9f9",
    "exact-dmp-coupled-short":
        "d6d3bccd3c6aa8241a438258b37151d866407547144a372ea53cb0b62de460e8",
    "exact-dmp-fixed":
        "8ab911918dfca6272ebfa1ee3ff41870c689c769688b440b8d32017544e76fd3",
    "exact-dmp-ladder":
        "7e11f9f72dc7a5544614bedff2f26f1f75ca92f4ef1f10fd7ab0544c518956c8",
    "exact-dmp-passage":
        "1791035e9532a3c1cd563c65b82c874b53815eec08512027f3019f08cb52632f",
    "exact-dmp-passage-short":
        "6b046beee7b78b0ad1f6efd7dc21dba1c8cccdec3627d7856d97e07e0cd61e4b",
    "exact-line-coupled":
        "8669dc87a9df535585b1e0524616be8ea85f6c4fcbdf91b3443c4a4e4fb5df3e",
    "exact-line-fixed":
        "88397243a9987f47ecef7a32fac1e6b26caf97472e5813f85084f62960dad05f",
    "exact-line-ladder":
        "85ecd2cb08d0087294ce02e4083b4270eb0b97cf4e9186a4135b8f02044cb8e0",
    "exact-line-passage":
        "a22c6c188995493add4c3d9b989a0aa0b39b38bfd413d4092fa12e8e0046faec",
    "exact-line-passage-short":
        "db2854a5d93c59f9ef418746f335760c5dfa6d811c991fca60638c7277315ee5",
    "exact-sn-coupled":
        "fdb506f6c5ec7c113fe10f1efb30a1b4c9db8d1fa014aff4492dd6e39a6fe1a5",
    "exact-sn-coupled-short":
        "094e8dd878d7a6239af3e64a43752e33dcc0807418f832ee541fcfa3098eeee0",
    "exact-sn-fixed":
        "d862ec5b0980183ce69ed00ec006deca5477579260387464a29b51054fce45f0",
    "exact-sn-ladder":
        "fe3add61e535611424409422a2e47a5e9e447daed35b09541d1b4f760ec72fbe",
    "exact-sn-passage":
        "7558b6c4fd7253b1cb93423e56bb9e0daa9a41d3b40fe6f696c5460fbb3bbdca",
    "lt-identity-dmp":
        "05cfea131229a2598d1a9dc5c9ecbca4d0c7b1878b6f177ca471e19483d69698",
    "lt-identity-skeleton":
        "3f2028e105bf321bf7d8ad18a97e4210988ad840a9edc44ce1d30987bb0dbded",
    "renewal-dmp":
        "8ca86b73e0b5ea85e8979b30c0e30686544a0ecd4ee4420fe84c1b5aba24ac03",
    "ruin-cl":
        "f0a7e531001b2b7349cf967b707fe232dbb7f5845ec2ee615e10e704ffcf154b",
    "skeleton-ce1-fixed-small-t":
        "7b1d733a7cc601b01ecbeb4edafc90b77692091ec66ea9717a7ae372655e5ba1",
    "skeleton-jumps-coupled":
        "2d12d2d715cdc25a21d49be337b675421494a9bb856ac60e239694df1b5fae4b",
    "skeleton-jumps-coupled-short":
        "a383137838fdbd738b962f7c89594c8d5986659589c7c775591e7d152ef35a61",
    "skeleton-jumps-fixed":
        "322cafaec048be8886902b7aa45a0eeeca5834495c96e2549d459612156c8d73",
    "skeleton-jumps-passage":
        "8d604b13d49c1bc305ef9495c98e86bdb67f105258c58f79117ee744b30b0398",
    "skeleton-jumps-passage-short":
        "d3a8592df5c5c08e0daed7adf3e09f84154672e99c130c4eb748779687e77668",
    "skeleton-tilted-tails-passage":
        "9fda0c0f3310e3c241423401854af4082c87db821dd136d648392510c68b7868",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_output_is_bitwise_golden(name):
    assert digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}":\n        "{digest(CASES[name]())}",')
