"""Bit-identity gate: fixed-seed chains, model-call counts and stage counts
on the bundled examples under every kind of back-off policy.

Each entry pins the sha256 of ``chain.tobytes()``, ``call_count`` and
``step_count`` after 300 transitions. A change to the sampler's arithmetic
that moves any chain by one bit, or spends one model call more or less,
fails here; a change that alters chains on purpose must say why and
re-record the table.
"""

import hashlib

import numpy as np
import pytest

import gnmh
from gnmh.cli import exp_series_datagen
from gnmh.posterior import GaussianPrior

N_TRANSITIONS = 300
_EXPSERIES_X0 = [4.0, 2.0, 0.5, 1.0]


def _quickstart():
    return gnmh.quickstart_handle(), [0.5], GaussianPrior.create([0.0], [[1.0]])


def _simple2d():
    return (gnmh.simple2d_handle(), [1.0, 0.0],
            GaussianPrior.create([0.0, 0.0], np.eye(2)))


def _expseries():
    handle = gnmh.exp_series_handle(exp_series_datagen(seed=14), n_terms=2)
    return (handle, _EXPSERIES_X0,
            GaussianPrior.create(_EXPSERIES_X0, 0.5 * np.eye(4)))


EXAMPLES = {"quickstart": _quickstart, "simple2d": _simple2d, "expseries": _expseries}

POLICIES = {
    "none": lambda s: None,
    "static(1, 0.5)": lambda s: s.set_static(1, 0.5),
    "static(3, 0.5)": lambda s: s.set_static(3, 0.5),
    "static(5, 0.5)": lambda s: s.set_static(5, 0.5),
    "dynamic(2)": lambda s: s.set_dynamic(2),
    "dynamic(4)": lambda s: s.set_dynamic(4),
}

# (example, policy, seed): (chain sha256, call_count, step_count)
EXPECTED = {
    ("quickstart", "none", 1): (
        "23acfe3c293d98ad6ef3f3edc6947370d0fd26e2aff248a103803c9e3546adf8",
        301, {-1: 51, 1: 249}),
    ("quickstart", "none", 2): (
        "8c6407a4978daa44700b319c1b945247db11daf3af9799bdd2105bc72fe94b3c",
        301, {-1: 84, 1: 216}),
    ("quickstart", "static(1, 0.5)", 1): (
        "3b5eccb52aa2c4afa1e6b40348b3f5f2d8d68eb4aa04166fb30b281709fd9459",
        359, {-1: 44, 1: 242, 2: 14}),
    ("quickstart", "static(1, 0.5)", 2): (
        "ec1e39722d5995c911d681595189975b25f398f9bd418dc227292752cae103bf",
        371, {-1: 39, 1: 230, 2: 31}),
    ("quickstart", "static(3, 0.5)", 1): (
        "7a9a3a94ab9c178525ac4b048940639eb03e8a74c4d808caa1162f51a4d13532",
        410, {-1: 15, 1: 246, 2: 19, 3: 15, 4: 5}),
    ("quickstart", "static(3, 0.5)", 2): (
        "7f4c20140e7b4ef2bfde1c3d07addc6d5b50499e1cc42d6b9bf9825289b1cc9e",
        425, {-1: 17, 1: 235, 2: 29, 3: 13, 4: 6}),
    ("quickstart", "static(5, 0.5)", 1): (
        "77dc9bcc71c3e3eea9293a25bceae762442159353140af7a120443d4878fc491",
        445, {-1: 9, 1: 250, 2: 14, 3: 12, 4: 6, 5: 2, 6: 7}),
    ("quickstart", "static(5, 0.5)", 2): (
        "3835266aecf60b30f94d75dcb9d419fe5f6e19170e6b8bf1f3e320ced5985bcb",
        467, {-1: 12, 1: 233, 2: 28, 3: 14, 4: 7, 5: 1, 6: 5}),
    ("quickstart", "dynamic(2)", 1): (
        "1c177b5e8e3ebf190ed86c7aabb79e3f1343e9105795b52c4763321b09c13b5b",
        390, {-1: 25, 1: 251, 2: 9, 3: 15}),
    ("quickstart", "dynamic(2)", 2): (
        "73c57eb8cb98b4dcaef1d16e769b1eceab49ac49bf1bd8ec68d978d88b469c95",
        401, {-1: 29, 1: 239, 2: 22, 3: 10}),
    ("quickstart", "dynamic(4)", 1): (
        "3074616522e6c5b947d10c9069a373eb39bed9a87cdd30d0da38e8f6b14d44ce",
        451, {-1: 18, 1: 243, 2: 16, 3: 11, 4: 8, 5: 4}),
    ("quickstart", "dynamic(4)", 2): (
        "56d1e0d34f71d43147db773770b03047f6df3e0fd043e8544f4c195f4693f7ba",
        516, {-1: 16, 1: 212, 2: 28, 3: 19, 4: 15, 5: 10}),
    ("simple2d", "none", 1): (
        "142a689eb8b077d62829c19efd4d69e4b4c4e956979e8ed875696124aad8f5dc",
        301, {-1: 143, 1: 157}),
    ("simple2d", "none", 2): (
        "bd7b47db0e75f52dc8cbb3236c406e9fc71def46b5af1d44303ddfca0c344792",
        301, {-1: 160, 1: 140}),
    ("simple2d", "static(1, 0.5)", 1): (
        "324f489539d94e57b3e8bcea680fc377b4c75073a459b82e721182312f975bd2",
        445, {-1: 86, 1: 156, 2: 58}),
    ("simple2d", "static(1, 0.5)", 2): (
        "b6a5636ef788ffd963feed5992f982fa117d1f871001c67bac3e95e5f3ccf9b0",
        457, {-1: 119, 1: 144, 2: 37}),
    ("simple2d", "static(3, 0.5)", 1): (
        "1b3c944f4e44020832ec3194e636ee2c606edaf867073d760d613db194d3264e",
        596, {-1: 44, 1: 163, 2: 44, 3: 28, 4: 21}),
    ("simple2d", "static(3, 0.5)", 2): (
        "3775e908563929eab2fcb374fc87af50def749f8aeab0f1601c05f871e8ed752",
        627, {-1: 47, 1: 151, 2: 44, 3: 33, 4: 25}),
    ("simple2d", "static(5, 0.5)", 1): (
        "f691ec77911eea6689cabaa1549d4107734449c140724456f8fb01b3a0ba23ea",
        777, {-1: 30, 1: 132, 2: 48, 3: 31, 4: 31, 5: 17, 6: 11}),
    ("simple2d", "static(5, 0.5)", 2): (
        "c45d8b1b3ca57019a0b067a4551e444ab7c8f395b1e3fb59608da6bddcf3dd53",
        764, {-1: 26, 1: 134, 2: 55, 3: 28, 4: 21, 5: 21, 6: 15}),
    ("simple2d", "dynamic(2)", 1): (
        "abc48540b18b58c55b44b8069d9af784072098fee591c003bfb4b73074d0702b",
        566, {-1: 73, 1: 140, 2: 55, 3: 32}),
    ("simple2d", "dynamic(2)", 2): (
        "64296ba184aab5d627f455944ad33809607b64084ff168f02c5584a19c76bfb7",
        564, {-1: 82, 1: 146, 2: 45, 3: 27}),
    ("simple2d", "dynamic(4)", 1): (
        "5d5399d6ac32dba35f42d81fc1283f7f85bda333e55336e0da8c90a66e6816f9",
        672, {-1: 39, 1: 155, 2: 45, 3: 27, 4: 20, 5: 14}),
    ("simple2d", "dynamic(4)", 2): (
        "6ac97f71086fe354ecf7d4c7ecbe9abc1bb5f8ec850505bd8e236c5c93de4e5c",
        748, {-1: 52, 1: 144, 2: 34, 3: 25, 4: 25, 5: 20}),
    ("expseries", "none", 1): (
        "8e904c695a48104e5831c171ca88851879809e64ad89e4cc9393a716b78b8116",
        301, {-1: 154, 1: 146}),
    ("expseries", "none", 2): (
        "76fba8b6b7c52875a1b693e3152eabcc2fd958cedd18f88e521cc0c46e6ccc21",
        301, {-1: 254, 1: 46}),
    ("expseries", "static(1, 0.5)", 1): (
        "b9ab014bc948698209d13c7d5c3732d36169f06f99ddec8c68474855c3d5c921",
        454, {-1: 126, 1: 147, 2: 27}),
    ("expseries", "static(1, 0.5)", 2): (
        "e608008518b20d9d57b54fbdb6a0dd82e04a3a56a5f9387be04a351bc0eee6eb",
        597, {-1: 296, 1: 4, 2: 0}),
    ("expseries", "static(3, 0.5)", 1): (
        "afe37efc5299da411f87e3d3d354c89de6e7ea42b51f33cf0e2fbc16447100cc",
        683, {-1: 108, 1: 154, 2: 22, 3: 12, 4: 4}),
    ("expseries", "static(3, 0.5)", 2): (
        "6208b7b9b899f71b5d5df77c8c6756f152e57ca0d12051de695c438b41e6d332",
        735, {-1: 121, 1: 129, 2: 34, 3: 11, 4: 5}),
    ("expseries", "static(5, 0.5)", 1): (
        "c74f92764a3b9ea5697acff6cb0829083632a0fc887a3790e61b0da491c81f66",
        902, {-1: 99, 1: 142, 2: 36, 3: 10, 4: 4, 5: 7, 6: 2}),
    ("expseries", "static(5, 0.5)", 2): (
        "e9ef6bba901b0eef1041a3df139edf2ef861eb6a1abdceb3ce31900cca082443",
        1786, {-1: 297, 1: 3, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}),
    ("expseries", "dynamic(2)", 1): (
        "b4f9f242c7b0fd97dd78e164a44f0725a32f421bbbf719d37cc9c13ebad1533c",
        569, {-1: 117, 1: 155, 2: 22, 3: 6}),
    ("expseries", "dynamic(2)", 2): (
        "b2965171db9c87b6612785a538ad8d2f0c1e0eeb2d77930bf8f18002e859d563",
        628, {-1: 146, 1: 128, 2: 17, 3: 9}),
    ("expseries", "dynamic(4)", 1): (
        "f9082f6087eeefa9fe70585baacbca0d9634d454ec7d5b028bac469cc6ae5289",
        806, {-1: 104, 1: 150, 2: 22, 3: 10, 4: 9, 5: 5}),
    ("expseries", "dynamic(4)", 2): (
        "6b534b890f145ae0b4ed99bfdf00c0b4e2183ba5446e59059e2faa5180a6d7b5",
        905, {-1: 131, 1: 129, 2: 17, 3: 11, 4: 7, 5: 5}),
}


@pytest.mark.parametrize("example,policy,seed", sorted(EXPECTED))
def test_chain_digest(example, policy, seed):
    handle, x0, prior = EXAMPLES[example]()
    sampler = gnmh.Sampler(x0, handle, seed=seed, prior=prior)
    POLICIES[policy](sampler)
    sampler.run_sample(N_TRANSITIONS)
    sha, calls, steps = EXPECTED[example, policy, seed]
    assert hashlib.sha256(sampler.chain.tobytes()).hexdigest() == sha
    assert sampler.call_count == calls
    assert sampler.step_count == steps
