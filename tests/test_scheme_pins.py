"""Every named scheme's simulated result, pinned to committed digests.

One small ``mcf`` cell per :data:`repro.core.schemes.SCHEMES` entry (200
references per core, 4 cores, seed 1), both fault-free and under
:data:`tests.golden.STRESS_FAULTS` at lifetime 0.7, is compared with the
:func:`tests.golden.result_digest` recorded here (every field of the
``SimulationResult``, its scheme label included).  ``GOLDEN.json`` pins
only the schemes the experiments run at their own scale; this pins each
name the CLI offers, so a change to how a scheme is spelt or resolved
that moves any of them fails here.
"""

from __future__ import annotations

import pytest

from repro.core import schemes
from repro.experiments.common import cell
from repro.perf.cellspec import simulate_cell

from .golden import STRESS_FAULTS, result_digest

PLAIN = {
    "DIN": "7d04a817cbf8065315b1c56325798a68dc177cf6841b1e15a0861249a9482cb6",
    "baseline": "68793c727625e2cb902b7cf5cfe5325fc6b9f70984167bcd2295a9c00cc9fc0b",
    "LazyC": "6708ade1c6fbe71e5187e3db5c63016dba160523c1de80f0cb410e6e1e41beeb",
    "LazyC+PreRead": "1b850ea1b796fec157862f971ffb2ce698c208087cff8538d7b71148a19d8707",
    "LazyC+(2:3)": "f74ef7b9f39754848cb6eb8fe196a23987bf7b5cc227be755cf27dd0df1f962b",
    "LazyC+PreRead+(2:3)": "76663bc7a3f0e24d70be49842f42817b1a9a08ac8f314c0a7905e13266361dd6",
    "(1:2)": "a58edc0366b30855d4daf0fd92e4d7d78bbb51113fd46611fbc7ecd1f0f2860a",
    "PreRead": "30225560f6632111f5835adb4f45899fa92ecd7cce6f1b0da82bfaece439584e",
    "VnC": "68793c727625e2cb902b7cf5cfe5325fc6b9f70984167bcd2295a9c00cc9fc0b",
    "WC": "eb4ddfc95d7bea1936bbfbfc44c8b1a1059dfe221baaff57dc00a51d8025fbb9",
    "WC+LazyC": "4b264030fe6ef534b626dc1892afd7d4175596690597047239e1b8963efb8bf7",
    "WP": "87eeecbe609f4ddb55486c476a0aafb2125f987aeae4213411083123a0fae804",
    "WP+LazyC": "f3cddf860ab4b926172a7d92b88c09d1f709fa251d274e3f00d6bb498c1bf420",
    "eager": "f1240408a369580c7ea884d08266cfcfee85e447a1d23a120145ca6cf8c740d4",
    "LazyC-denseECP": "bb6e72269f3bb4004ebabc73e9e87a0cdbe5880b5866ec5b7feb275c0db4e4b1",
}

#: The same cells under ``STRESS_FAULTS`` at lifetime fraction 0.7.
STRESS = {
    "DIN": "5277851a3107ae51c46759b406971bef07acd2eedb5556b307306cab3f062de3",
    "baseline": "6239897b8d6b18ce8ff8f53994a987e69a50c4d86094af019282ff895c228ef3",
    "LazyC": "4318c71f162943d2eba442c0bee680fd9cf9212fc848f2143c5a845b512e0d0e",
    "LazyC+PreRead": "527481cb55b265137d9cdfd218169818bc92fdccb790ce6eb3b0a11bb54721e9",
    "LazyC+(2:3)": "94859766ed77cd62170c4e0f079ae82539fee5f70fbb5fec0ac3d506e76839fb",
    "LazyC+PreRead+(2:3)": "22b7cbccc70b4a8feb5e13528151ec2ffff125d0e0ef65e6b4206f95697f220e",
    "(1:2)": "0f3f988d0502a89a996d1ba9c512d7118b69ad8008ca605dbd9123d26a4d4133",
    "PreRead": "14fb92031811c378c9fde94491143f5d2a7657aa75d65f36bf7766140cb3f69c",
    "VnC": "6239897b8d6b18ce8ff8f53994a987e69a50c4d86094af019282ff895c228ef3",
    "WC": "3681e795192bd1a20994977c8439f9d746718f90397c28ec8246f80454c57278",
    "WC+LazyC": "b4874e94d83c1976b903dae977019ac86f22b7e403aecb4092443c885973ee49",
    "WP": "def2628655e364d3c1f81c60f62ab3eaf939b60ac73c926baac6a6a074153c62",
    "WP+LazyC": "1d73fa7827fbefbbc1200a22ad686cba377d6ed1072b6d4a134c2a1f4d119c58",
    "eager": "a0a74f1dbed16f928ae588f60d0a2d20b9adba4989ef6442c4a7593e225994a9",
    "LazyC-denseECP": "384a1371fedb573c5d09211dcef43ede060c287663c7b56e60befe903bd840b8",
}


def test_every_named_scheme_is_pinned():
    assert list(PLAIN) == list(schemes.SCHEMES) == list(STRESS)


@pytest.mark.parametrize("variant", ["plain", "stress"])
@pytest.mark.parametrize("name", list(schemes.SCHEMES))
def test_scheme_result_matches_pin(name, variant):
    options = {}
    if variant == "stress":
        options = {"faults": STRESS_FAULTS, "lifetime_fraction": 0.7}
    spec = cell("mcf", schemes.by_name(name), length=200, cores=4, seed=1,
                **options)
    pins = PLAIN if variant == "plain" else STRESS
    assert result_digest(simulate_cell(spec)) == pins[name]
