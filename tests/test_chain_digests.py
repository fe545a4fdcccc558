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
        "fb9b11d31df71fc3cdf8d988839a3de407f726667720f3b0cfd5cf72c9723694",
        301, {-1: 51, 1: 249}),
    ("quickstart", "none", 2): (
        "829707eb91710d991b198b6524e0dbce831f9e728cc01f9393aab0f467a8a543",
        301, {-1: 84, 1: 216}),
    ("quickstart", "static(1, 0.5)", 1): (
        "ddae42f079fb085d67f67e491ec03af28a76e7c6a9ab36a886fff5e8b69d64a1",
        359, {-1: 44, 1: 242, 2: 14}),
    ("quickstart", "static(1, 0.5)", 2): (
        "f29977bbc08dca87b0ca27dd591a1fffc4b81265c20699ccb8595ca941cb5c42",
        371, {-1: 39, 1: 230, 2: 31}),
    ("quickstart", "static(3, 0.5)", 1): (
        "a1909946c9ed9bd1f37da174b391d2b0b6f3427ad55d9054cebdeeef0a5db3c5",
        410, {-1: 15, 1: 246, 2: 19, 3: 15, 4: 5}),
    ("quickstart", "static(3, 0.5)", 2): (
        "6f540878296748584fc2525d20fe72370868d93b6e7d99ab6f48afd81e8d1b99",
        425, {-1: 17, 1: 235, 2: 29, 3: 13, 4: 6}),
    ("quickstart", "static(5, 0.5)", 1): (
        "200aa630f411a406a019415fc0c29d3cbbafe45f65d45dfebdfb0160c510be01",
        445, {-1: 9, 1: 250, 2: 14, 3: 12, 4: 6, 5: 2, 6: 7}),
    ("quickstart", "static(5, 0.5)", 2): (
        "1a3efde5cc752d2c9c24e0a92cf3f9319f3d026b8b11f1ebc0155abd4cf22481",
        467, {-1: 12, 1: 233, 2: 28, 3: 14, 4: 7, 5: 1, 6: 5}),
    ("quickstart", "dynamic(2)", 1): (
        "ff7fa35727dd72d5755ca822bf2c19102c09b395398ab9e3c054ab6fe7c241d7",
        390, {-1: 25, 1: 251, 2: 9, 3: 15}),
    ("quickstart", "dynamic(2)", 2): (
        "9a22729d380b758c5ed94294b5961ccb1412f0bc99f41b898eb7307bc06f512c",
        401, {-1: 29, 1: 239, 2: 22, 3: 10}),
    ("quickstart", "dynamic(4)", 1): (
        "7e3a9dae0d378a49de3e982db29f75881518fb4770b6f88efee3af5b94038878",
        451, {-1: 18, 1: 243, 2: 16, 3: 11, 4: 8, 5: 4}),
    ("quickstart", "dynamic(4)", 2): (
        "fdfdd7a5bc0dc80b815cc9c2fea888fbe8a235996c6e72740194b291b7b9c8a8",
        516, {-1: 16, 1: 212, 2: 28, 3: 19, 4: 15, 5: 10}),
    ("simple2d", "none", 1): (
        "81bcb92cd56471402174e47b0c059882eaa787f87a5af6bd9737dfe35ca3b54c",
        301, {-1: 143, 1: 157}),
    ("simple2d", "none", 2): (
        "aa569b52803ca7fb9401e26d2250d89b813f3199955ff035a83dc7c66cb2eebb",
        301, {-1: 160, 1: 140}),
    ("simple2d", "static(1, 0.5)", 1): (
        "15562aa6e85bb369031b6bc04f1cdba3cc9714e2ee3ceba57bace26701dd32b3",
        445, {-1: 86, 1: 156, 2: 58}),
    ("simple2d", "static(1, 0.5)", 2): (
        "accaba0364d91d4690e626bc8935bdec8af47fa96269f31c392d62ed51d3d9c5",
        457, {-1: 119, 1: 144, 2: 37}),
    ("simple2d", "static(3, 0.5)", 1): (
        "f53cfad3a53546488018abc1b6b00b9cf71073b528195f894c8805f2b9a199a1",
        596, {-1: 44, 1: 163, 2: 44, 3: 28, 4: 21}),
    ("simple2d", "static(3, 0.5)", 2): (
        "0c474ce64da51b8cc396a40dec98e718f4b64cd6a4510b74cb45a707c4de03be",
        627, {-1: 47, 1: 151, 2: 44, 3: 33, 4: 25}),
    ("simple2d", "static(5, 0.5)", 1): (
        "5136a286a9fa69edf39ced2900219a94188068538bfa15c5d5a410f56567b34f",
        746, {-1: 29, 1: 144, 2: 48, 3: 25, 4: 25, 5: 18, 6: 11}),
    ("simple2d", "static(5, 0.5)", 2): (
        "a44c6a7c9ad8710c5507337731983fcde970b0b93441d38f40ae24ac27231e6d",
        764, {-1: 26, 1: 134, 2: 55, 3: 28, 4: 21, 5: 21, 6: 15}),
    ("simple2d", "dynamic(2)", 1): (
        "1f69afcce47ee5652110c9d6486888cccd0a82d061907dbecbad3fc8fa716fea",
        566, {-1: 73, 1: 140, 2: 55, 3: 32}),
    ("simple2d", "dynamic(2)", 2): (
        "4593b79808681866200fba5f920bfaefde67c132f90a5f89d17873293fba229a",
        574, {-1: 93, 1: 144, 2: 39, 3: 24}),
    ("simple2d", "dynamic(4)", 1): (
        "25fe23e4625f7769c0b838ac7bbfa4b965b8b1cfbd6fe3bdd045479a8cd83ad9",
        672, {-1: 39, 1: 155, 2: 45, 3: 27, 4: 20, 5: 14}),
    ("simple2d", "dynamic(4)", 2): (
        "f9bd0de4399a4744da320f474e853c4bf509ed8ffe09b39f99657df92acd64c1",
        751, {-1: 53, 1: 139, 2: 37, 3: 28, 4: 27, 5: 16}),
    ("expseries", "none", 1): (
        "513be38439141bb01e7a04784c87c7cfc201348f982a2d7ee28b7d94dfcb9875",
        301, {-1: 154, 1: 146}),
    ("expseries", "none", 2): (
        "02ef45612437ccf650cca59a70606d14f5cf029daa65d6972f49a33b202a1d94",
        301, {-1: 254, 1: 46}),
    ("expseries", "static(1, 0.5)", 1): (
        "824fa06a414edcb9fdd801cb8364da5b725f9fb3643c580f4c759b7d58436f92",
        454, {-1: 126, 1: 147, 2: 27}),
    ("expseries", "static(1, 0.5)", 2): (
        "1fdd0707408e3b2a6656af9d64aada0fa632c7501d878dcd0c68e18c101c9acd",
        597, {-1: 296, 1: 4, 2: 0}),
    ("expseries", "static(3, 0.5)", 1): (
        "8c54836a53633329a288c2bbc6b9efee123fc42c565e4478f9a76c0dc55c8ac4",
        683, {-1: 108, 1: 154, 2: 22, 3: 12, 4: 4}),
    ("expseries", "static(3, 0.5)", 2): (
        "7e22e01831a7b16127ca9344931474c370f2c1d0be306bac02ec57643e5d0ab1",
        735, {-1: 121, 1: 129, 2: 34, 3: 11, 4: 5}),
    ("expseries", "static(5, 0.5)", 1): (
        "632ceb820450e43f3ca0794b06f28af40a4ffe231ddaa9a909a1ba80d7a79cbd",
        902, {-1: 99, 1: 142, 2: 36, 3: 10, 4: 4, 5: 7, 6: 2}),
    ("expseries", "static(5, 0.5)", 2): (
        "09baa6c080ce3d308e2f16e9a89a6ecf5b89694888c101b0c095c87100b5dfe1",
        1786, {-1: 297, 1: 3, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}),
    ("expseries", "dynamic(2)", 1): (
        "2499a7144546ceb4d0a224f6ef86c3d5c976365d381af0a9741d63be416b8f7d",
        569, {-1: 117, 1: 155, 2: 22, 3: 6}),
    ("expseries", "dynamic(2)", 2): (
        "bc589106e244c6fd6f5af3621b6945ccc0ae382c13b7d7417840983709287e6d",
        628, {-1: 146, 1: 128, 2: 17, 3: 9}),
    ("expseries", "dynamic(4)", 1): (
        "bfe7b50dcad4fc8cdb5f7ecb2e659b2c8dff2bfda00dd7750f415dbb2505f583",
        806, {-1: 104, 1: 150, 2: 22, 3: 10, 4: 9, 5: 5}),
    ("expseries", "dynamic(4)", 2): (
        "dc227e1963b7476f21dc3a674457d44870842978ac26502d25ffdbc6b2bd5857",
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
