"""Bit-identity gate: fixed-seed chains, model-call counts and stage counts
on the bundled examples under every kind of back-off policy.

Each entry pins the sha256 of ``chain.tobytes()``, ``call_count`` and
``step_count`` after 300 transitions. A change to the sampler's arithmetic
that moves any chain by one bit, or spends one model call more or less,
fails here; a change that alters chains on purpose must say why and
re-record the table.

A back-off policy named without ``alpha`` runs the paper's kernel, mean
exponent 1, so those cells keep the chains recorded before the exponent
existed; the ``alpha=2`` cells run the default kernel.
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
    "static(1, 0.5)": lambda s: s.set_static(1, 0.5, alpha=1),
    "static(3, 0.5)": lambda s: s.set_static(3, 0.5, alpha=1),
    "static(5, 0.5)": lambda s: s.set_static(5, 0.5, alpha=1),
    "dynamic(2)": lambda s: s.set_dynamic(2, alpha=1),
    "dynamic(4)": lambda s: s.set_dynamic(4, alpha=1),
    "static(1, 0.5, alpha=2)": lambda s: s.set_static(1, 0.5),
    "static(3, 0.5, alpha=2)": lambda s: s.set_static(3, 0.5),
    "static(5, 0.5, alpha=2)": lambda s: s.set_static(5, 0.5),
    "dynamic(2, alpha=2)": lambda s: s.set_dynamic(2),
    "dynamic(4, alpha=2)": lambda s: s.set_dynamic(4),
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
    ("quickstart", "static(1, 0.5, alpha=2)", 1): (
        "91c5f91835fbb32ab79eac63f4aca8ba5a271b0f8c4f79b99ee36f15fdb40006",
        362, {-1: 37, 1: 239, 2: 24}),
    ("quickstart", "static(1, 0.5, alpha=2)", 2): (
        "7010789d8854360ea097f57bf41e983f3f50982a181f74849024f2d17d779191",
        384, {-1: 37, 1: 217, 2: 46}),
    ("quickstart", "static(3, 0.5, alpha=2)", 1): (
        "f07a70782b6a64dfb6fff6673cd456c50bbd47572b8d53d8340f1b52ebb1afbd",
        387, {-1: 4, 1: 252, 2: 19, 3: 20, 4: 5}),
    ("quickstart", "static(3, 0.5, alpha=2)", 2): (
        "292c807b625444b528da00ce0399bdf3c42a0a729fac95f4f2c5e0065434c40c",
        462, {-1: 5, 1: 206, 2: 47, 3: 27, 4: 15}),
    ("quickstart", "static(5, 0.5, alpha=2)", 1): (
        "d3c28bda20953adb9782b23d05e7f6548bde4c722ee4b0385b54165a2faa178a",
        410, {-1: 0, 1: 242, 2: 22, 3: 26, 4: 6, 5: 3, 6: 1}),
    ("quickstart", "static(5, 0.5, alpha=2)", 2): (
        "3141d82c15f44f88fdd229b455d613e9d898095e7392eac91e10348f0b0cc326",
        442, {-1: 0, 1: 216, 2: 48, 3: 19, 4: 14, 5: 2, 6: 1}),
    ("quickstart", "dynamic(2, alpha=2)", 1): (
        "033637c368575bd82fede619f035ba177f8fffb6b3f759f031664eac492f402c",
        404, {-1: 17, 1: 235, 2: 27, 3: 21}),
    ("quickstart", "dynamic(2, alpha=2)", 2): (
        "a25e6e546d6b49627962c3a21fbb53a952231581692c3919e31e94f7d2fbcd16",
        398, {-1: 12, 1: 233, 2: 37, 3: 18}),
    ("quickstart", "dynamic(4, alpha=2)", 1): (
        "9e871ff81d0aee6f35518367114d42ea3c73278dade59b89b3cac85bafe57593",
        425, {-1: 4, 1: 237, 2: 26, 3: 22, 4: 6, 5: 5}),
    ("quickstart", "dynamic(4, alpha=2)", 2): (
        "bab02271dd607565b25a244c0796e1e1fe1487f01f2bbacd34261190bb2a079c",
        441, {-1: 2, 1: 220, 2: 39, 3: 27, 4: 9, 5: 3}),
    ("simple2d", "static(1, 0.5, alpha=2)", 1): (
        "ce1b60090929b8c40ee60141bd3d839956fd9dae4bfbe0edf1cfb944c7ff2937",
        435, {-1: 99, 1: 166, 2: 35}),
    ("simple2d", "static(1, 0.5, alpha=2)", 2): (
        "be3d9c74946d9b3921e679a11502f31c6d69b894d0f596b1e2fe7c45c3616bd5",
        448, {-1: 99, 1: 153, 2: 48}),
    ("simple2d", "static(3, 0.5, alpha=2)", 1): (
        "70f9365be8fdedc91ac2ec01d1a272c91a46cb95f0a260df18b591494adf5c9c",
        586, {-1: 17, 1: 150, 2: 61, 3: 43, 4: 29}),
    ("simple2d", "static(3, 0.5, alpha=2)", 2): (
        "47a393c8d7feb27bfc0e6498dc37a526df116d7ff8d3c5c136db374dade803d2",
        624, {-1: 29, 1: 141, 2: 58, 3: 38, 4: 34}),
    ("simple2d", "static(5, 0.5, alpha=2)", 1): (
        "6d28f95255af0c102e0673f20b7b5d9e4bfad0a2127ee7c623806685283670ec",
        634, {-1: 3, 1: 149, 2: 56, 3: 42, 4: 30, 5: 12, 6: 8}),
    ("simple2d", "static(5, 0.5, alpha=2)", 2): (
        "3c6eb90398594d8b78de3bf1a992665d241553dcd4a393e8c798686e2f3883fa",
        657, {-1: 3, 1: 139, 2: 53, 3: 50, 4: 36, 5: 15, 6: 4}),
    ("simple2d", "dynamic(2, alpha=2)", 1): (
        "c3a9750b03035968b01e4b07ac540f4079b34328065080c67aa3d58fe1f3e16d",
        550, {-1: 47, 1: 145, 2: 61, 3: 47}),
    ("simple2d", "dynamic(2, alpha=2)", 2): (
        "ab9baa42cab5513bd491a89c6135d40a4e8f4ada2c202d4b85f38f3458365a66",
        540, {-1: 50, 1: 154, 2: 53, 3: 43}),
    ("simple2d", "dynamic(4, alpha=2)", 1): (
        "fb65d28db3a99d0e2a6096e0f4e0c07a1dcfb16acec2c20267541a30fe4cfab4",
        602, {-1: 12, 1: 158, 2: 55, 3: 38, 4: 26, 5: 11}),
    ("simple2d", "dynamic(4, alpha=2)", 2): (
        "8acf5840f5d5e529047d47cff13cdcd4577f5dd59ed4f218a5006245e4f74201",
        643, {-1: 15, 1: 149, 2: 51, 3: 40, 4: 29, 5: 16}),
    ("expseries", "static(1, 0.5, alpha=2)", 1): (
        "75719c5884d594cb2a01183d38f80b47d982ee0a31b8add99d8698ca5272ff6c",
        464, {-1: 81, 1: 137, 2: 82}),
    ("expseries", "static(1, 0.5, alpha=2)", 2): (
        "1ee12c0af311030fd0b79a9dbc60cc7f6570894a8fad784be5519ba8bf8bab3b",
        596, {-1: 290, 1: 5, 2: 5}),
    ("expseries", "static(3, 0.5, alpha=2)", 1): (
        "54674b38dfcb19ea54801d1e52a459d6ee63a55c799797d087f43c9ec3d501be",
        590, {-1: 20, 1: 144, 2: 65, 3: 49, 4: 22}),
    ("expseries", "static(3, 0.5, alpha=2)", 2): (
        "dbc49e5177256efea74c18730c7cc852f8eb588db589fa671376b3339b9dd2a4",
        631, {-1: 39, 1: 137, 2: 56, 3: 47, 4: 21}),
    ("expseries", "static(5, 0.5, alpha=2)", 1): (
        "4a54070e1de861533fda4bc27b4da351fa145e7bb905e1900b5cbeb03f79e291",
        591, {-1: 2, 1: 151, 2: 74, 3: 38, 4: 17, 5: 11, 6: 7}),
    ("expseries", "static(5, 0.5, alpha=2)", 2): (
        "83a1ae6bf8478a7f2ca2f08383964532bec9c6fa8c8e5ee770cf777110941b42",
        1127, {-1: 29, 1: 43, 2: 28, 3: 44, 4: 82, 5: 51, 6: 23}),
    ("expseries", "dynamic(2, alpha=2)", 1): (
        "073d32216b07f6912ba22b227c5a5b37865984cde9bd2c599a67dc08b4b30091",
        548, {-1: 50, 1: 142, 2: 69, 3: 39}),
    ("expseries", "dynamic(2, alpha=2)", 2): (
        "a231ed987e87d0b84884c284e73e8b8a86d02bec335f21d7cab3ce201072d8e4",
        569, {-1: 71, 1: 138, 2: 56, 3: 35}),
    ("expseries", "dynamic(4, alpha=2)", 1): (
        "54b0d37514eda0004ccc7926bcb44e038586deeff0dc6b6f5004594c65e8b659",
        622, {-1: 17, 1: 151, 2: 57, 3: 43, 4: 18, 5: 14}),
    ("expseries", "dynamic(4, alpha=2)", 2): (
        "3d6ad6d8321eb7f9c38f2be0e1bc808cf82c60762442c3dc7e767b93a70a62ff",
        683, {-1: 33, 1: 136, 2: 60, 3: 35, 4: 24, 5: 12}),
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
