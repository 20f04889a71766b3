"""Golden artifact hashes: runs must stay byte-identical.

Pins the sha256 of ``trace.jsonl``, ``summary.json`` and ``world.json``, and
of the trace's three exports, for every shipped world config x four policy
variants x two seeds, and for the one-arm world of ``test_probe_oracle`` x
{bandit, uniform} x two seeds.  The
tulu run is shortened to keep the test quick.  A performance change must pass with
these hashes untouched; a change that alters behaviour on purpose re-pins
them with

    PYTHONPATH=src python tests/test_golden.py

which prints the current hashes in the format of ``GOLDEN`` below, and says
why in the change log.
"""

import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from banditmix.config import ExperimentConfig
from banditmix.runner import SUMMARY_FILENAME, TRACE_FILENAME, WORLD_FILENAME, run_experiment
from banditmix.trace import EXPORT_KINDS, export_plot_data

from test_probe_oracle import ONE_ARM

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WORLDS = ("tulu_default", "deep_gap_world", "volatile_world")
POLICIES = ("bandit", "delta_entropy", "uniform", "static")
SEEDS = (0, 1)
ONE_ARM_POLICIES = ("bandit", "uniform")
TULU_STEPS = 500
ARTIFACTS = (TRACE_FILENAME, SUMMARY_FILENAME, WORLD_FILENAME)


def golden_config(world: str, policy: str) -> ExperimentConfig:
    if world == "one_arm":
        obj = copy.deepcopy(ONE_ARM)
    else:
        obj = json.loads((CONFIGS / f"{world}.json").read_text(encoding="utf-8"))
    if world == "tulu_default":
        obj["bandit"]["total_steps"] = TULU_STEPS
    if policy == "delta_entropy":
        obj["policy"] = {"variant": "bandit", "reward_kind": "delta_entropy"}
    elif policy == "uniform":
        obj["policy"] = {"variant": "uniform"}
    elif policy == "static":
        # Linearly increasing weights: later arms get more mass.
        k = ExperimentConfig.from_dict(obj).resolve().registry.num_arms
        total = k * (k + 1) / 2
        obj["policy"] = {"variant": "static", "static_probs": [(i + 1) / total for i in range(k)]}
    return ExperimentConfig.from_dict(obj)


def artifact_hashes(world: str, policy: str, seed: int, out_dir: Path) -> tuple[str, ...]:
    run_experiment(golden_config(world, policy), seed=seed, out_dir=out_dir)
    texts = [(out_dir / name).read_bytes() for name in ARTIFACTS]
    texts += [export_plot_data(out_dir / TRACE_FILENAME, kind).encode() for kind in EXPORT_KINDS]
    return tuple(hashlib.sha256(text).hexdigest() for text in texts)


def cases() -> list[str]:
    shipped = [f"{w}/{p}/{s}" for w in WORLDS for p in POLICIES for s in SEEDS]
    return shipped + [f"one_arm/{p}/{s}" for p in ONE_ARM_POLICIES for s in SEEDS]


# case -> sha256 of (trace.jsonl, summary.json, world.json) and of the exports
# (proportions_over_time, instance_coverage, q_over_time)
GOLDEN = {
    "tulu_default/bandit/0": (
        "e3eacbc98a77afd7b958c693cc3d9a94be7205c2efc8b5fccd91558c0cb0fb94",
        "2ce8565aaa12b38c1869867aad10e17f479108831174f0cd5924bc59d46fd2a4",
        "6b1f9011fc03947c3f5828685b49123eb68eefa8bac287837e36b3a971bb3802",
        "4e1b450eda68aa03f689555ead1c0f7efe24a6dc1c674895aa1da77ff671c2e0",
        "e7e1071a9b6e49e280b034f97878c3f38f773a2419da970990ae1d4632e7c037",
        "3daac855a4505ce34a0d4043eddf904b1709b15d8800b360e12f63487e2432f0",
    ),
    "tulu_default/bandit/1": (
        "0e90092725a4ead85d3f7ee689a48e53e627a908215f2c7670c9f0394866b92b",
        "1600db34aa0b414b89e33f4577456d8cfa1ce6eb6734462f88ade8399a47da4b",
        "ddc9748a1b51b952cd6144fdd6eee1088056f9e94f1c2bda1d177833e7961a4a",
        "51d9ed46acc332f0ac8070e1625004bb128b9a74828dc38a6389bb12aaf632e1",
        "e9f4a97bf2fbf6c648010aeb87104bc8d7b9da8719c96c0871d27df104b2195e",
        "6002c298758fb40993c06959b2b5b64336355efb9ab303f5f043b8fb7de6d55a",
    ),
    "tulu_default/delta_entropy/0": (
        "67f8f31dc828d41ff23c65163b02cdf9267ebbaf49a993322a505df06c75b00a",
        "69f0a006ed2875ab765868cdc5c25669044b4465f4ae33623c268a9495413886",
        "6b1f9011fc03947c3f5828685b49123eb68eefa8bac287837e36b3a971bb3802",
        "840da4f5fbc048b7440474ece204a0a842f1026e149cc3123cb14d8035f4ce45",
        "e7e1071a9b6e49e280b034f97878c3f38f773a2419da970990ae1d4632e7c037",
        "a95f9565d3b097404e43d22b9969beae7f41053dc984c847ca7d415bcd580718",
    ),
    "tulu_default/delta_entropy/1": (
        "4acf01083a9422c85fa2fe0b5c0cd379008f83689ed66db677caef7ed5fa2213",
        "42c4d9bc135e2a3d12a901a89ef010de6d542f0cfac77dc72d06188219a5c8c2",
        "ddc9748a1b51b952cd6144fdd6eee1088056f9e94f1c2bda1d177833e7961a4a",
        "a44ebf87d2a0beb93ea4617cdc32caa62d2afa02ce626d049d3b28bc89d80c59",
        "e9f4a97bf2fbf6c648010aeb87104bc8d7b9da8719c96c0871d27df104b2195e",
        "a164578b477729646c92944bd119f02dc76bdb28579769166e9dc2c4148686f0",
    ),
    "tulu_default/uniform/0": (
        "a2eca0928b3837c5e06bd78b20ca42c81ccabad6d0c31893bd48de0f8433679b",
        "b3dd11f25f0884639dd80bdcebba8736979eabc7e7519a28f1b27f5236a76523",
        "e4e277b16c02847973570c1c4468042a52ceae5e2d3755257a93662475bfaa07",
        "44cf2d7bbc4cb6a199863e5b0212f6d9ded9997dd94a0388b09e915501baa691",
        "ac489caff48287430ce42ab8d104bc8f8eff6584aacad156a4e7e613ac7377d0",
        "58e0a490269000f94197ff9c00dd684543b8d264a48ee793d0e983266c332a1f",
    ),
    "tulu_default/uniform/1": (
        "a12e25d816fd4b8140174f5fc5afacb6a5d8a844500598becb2608e4339af62e",
        "104b9d5cbf8037dec100c6232968b7495990ca89d1e97ee3ec7651204b03d2de",
        "c3dd77c4426a625c336c93658a88605f13c057e4811d165c2e0ae130e6bb2451",
        "44cf2d7bbc4cb6a199863e5b0212f6d9ded9997dd94a0388b09e915501baa691",
        "795f785b059c63fb82504bddcc3647e50430431e48185595f4ee24104d1210bc",
        "58e0a490269000f94197ff9c00dd684543b8d264a48ee793d0e983266c332a1f",
    ),
    "tulu_default/static/0": (
        "a297888e745e6631602112d0079627b89efaf838e7e95217b5a430868a541690",
        "2479fe62c1f32a464b8663cfe54799913930d751c9af3c4908e548e68980d1a4",
        "f941f5ee5de5641fe76d6aef6ead968c0b4bc65ba39fa379142a4d8782dc91b2",
        "7d5fde1b4ca3915242652cf8346e67bd06bb16c28eba2be427b3b8be756395de",
        "6a0937d8ad24c89ee26810b30d26b50348997e1ea8146e63d9119a9703ce1ead",
        "58e0a490269000f94197ff9c00dd684543b8d264a48ee793d0e983266c332a1f",
    ),
    "tulu_default/static/1": (
        "3ca0f892b82185f7762925533b62224ce89ff44c50ebb24c2ce357401f668d70",
        "e156378179c616ab3655695423e5ad48629dddfd07ebde0c5c3be332155f2f43",
        "d4464bfaf7f30b83cda67573b852499ff1b93084c8309c80fc05f109148bc49f",
        "7d5fde1b4ca3915242652cf8346e67bd06bb16c28eba2be427b3b8be756395de",
        "e7d90fa71712503958b28b103d6f1f71e2be36644d0f1c0b1cea2f576911f2d1",
        "58e0a490269000f94197ff9c00dd684543b8d264a48ee793d0e983266c332a1f",
    ),
    "deep_gap_world/bandit/0": (
        "99ffb18628f5f11062c5a9d68ebc911e55461405b7fb1ee376132bfa2bf4b2b5",
        "331d81336127a1bb0405cb06e928a599b05527186e83e06beb1722a246d6176a",
        "6f81c2248512ccaaeeb0916edeeb821f87fa227851bf7393c54f5d2f93f42e54",
        "825593a96f266cd54553d2c78ed5b706b23d1aa35b1137db90275e26e5c1bdce",
        "1c6eada8a9400b7a1c3b9739b58dad1e1f57ee5304e28b3ff25b091592246a48",
        "3900dcc4675326f7a9f6b9aef389fc56c436fc57191cb7884eaf5161555b4e7a",
    ),
    "deep_gap_world/bandit/1": (
        "585686f1eb8047b2e1f2daa588241638bf77051e8a81d8b341d62845039c397f",
        "c473d53532aa196bae5c6a5273e44765613e4947a45f6b03db87a8537da956a7",
        "a34e6d854d2171a622ff7c5c90ef5b104f453f662c35823f4b7ad4161e6a0a8c",
        "3423368b8d6f9ff383ca622be32f360dea3861e3bba1d4157ffa36160f7f1296",
        "5dd26ed9c9f9e94b3d599679e8ae3dba6f99813c02764eb497b7e553dce5df90",
        "3a6001742ff023d44bfcece2c594f935d49f17a22670c5c0c0a15bc95ea6c495",
    ),
    "deep_gap_world/delta_entropy/0": (
        "9cec3e9b3c6a84b42a96badf35c093bbbb1d2bffd8f7271a85a2a3fb64c050ed",
        "7514b64eb94578f35e92e0b8d3b69832171edf15fe14bc38e2530a5ba70baac0",
        "6f81c2248512ccaaeeb0916edeeb821f87fa227851bf7393c54f5d2f93f42e54",
        "88eed60b5679e58b37b38e24609f30d131e4d0681b5efc3601050d26a56599e1",
        "1c6eada8a9400b7a1c3b9739b58dad1e1f57ee5304e28b3ff25b091592246a48",
        "4b95a156a981d1bf63bef6aeb2cb11026b6e3abb6537c185d64c1d273568d17e",
    ),
    "deep_gap_world/delta_entropy/1": (
        "bf482828864ca72108bd09c4769d19b7f31e1d89132874a8dfa718a4d4541789",
        "de455735e94f0d777de2260526d075f02c8054af11a0b533f6ecea06c2929454",
        "a34e6d854d2171a622ff7c5c90ef5b104f453f662c35823f4b7ad4161e6a0a8c",
        "f6b565b4f4bacc7bbc1f02359a03221863b669fcd3756ab86494b5db01f8f767",
        "5dd26ed9c9f9e94b3d599679e8ae3dba6f99813c02764eb497b7e553dce5df90",
        "fb71c8777ffa49587f39fd34f7db4e51e09e0f88b295beccc6acc9ff4bed48e7",
    ),
    "deep_gap_world/uniform/0": (
        "e248edb487ed8df4aab89f3dfb36bf24fa310dda7b7c26613e34a000e0726c45",
        "ed960e964bc9cde505d205d9baf3e635ee6f070db216f362ddfacb91bc49364a",
        "958cf767cfd13c3382acc38b3857de863d021d985d5de1f909c790bf85a849cb",
        "2b7a510c53fc9f726cb923be74a61fe4d863b8fea5369adc3e4ccc4fb125d931",
        "8fc13c410d18402e243ec14f9e275e4bac21469ceadd17e6faf2601d0e273110",
        "4141e06a691ed28e2ffb7eca11bd455bf506b528c0dd0adb45c58c2aab1a8d7d",
    ),
    "deep_gap_world/uniform/1": (
        "777d935b40d0ea63217b505c0050ae7827b97919400d47e37c9558893e055bfa",
        "c213aa3e82be44c2057bd3cbc1665a7b58e2f1a97e76dc4461b82450fa1c3733",
        "0844d89739b370f84b41a4e1949f056fcf40fae413d027cee5cbcb6fc9f47ef8",
        "2b7a510c53fc9f726cb923be74a61fe4d863b8fea5369adc3e4ccc4fb125d931",
        "f5a0d6b4d158d62614b5897bba144dccd1b1071ef6540d050190e7f36f895694",
        "4141e06a691ed28e2ffb7eca11bd455bf506b528c0dd0adb45c58c2aab1a8d7d",
    ),
    "deep_gap_world/static/0": (
        "42a57857d85427c0280f061077a82a8643b65b7a4bc218e095faa1a7c9908867",
        "0cbac708df9cbce385c80e82f8779d44dc7d33fbeb1c8eab5db2620a96d60847",
        "cbdbac8ac37613b2c0b88bc58fd672febb907710da57ffbff95c112dea1e8d22",
        "a3c8713e713dc8f1940c7ca1c244d7d0c549de78cf1b7db50d595b6a3845bbc7",
        "34c54c7dc33712e4e18fe564e897ba6884ad64f5541217f067f855b92a87f053",
        "4141e06a691ed28e2ffb7eca11bd455bf506b528c0dd0adb45c58c2aab1a8d7d",
    ),
    "deep_gap_world/static/1": (
        "f2969e959b4336289f8d637b2d52044033626101b5ca6de391f8844ef3c9617f",
        "04ebbb94154c1c89d747d5f5533f5b6d11182473d3ebcec5e234f06260743d6b",
        "6be9c087df383cf40f748241aba435d7561b845ede8e2174f1c3eaecce820bd3",
        "a3c8713e713dc8f1940c7ca1c244d7d0c549de78cf1b7db50d595b6a3845bbc7",
        "27f76741fc172f8937c0e4bcc1453e504f5b09e812d94a0acff9232b08350ee8",
        "4141e06a691ed28e2ffb7eca11bd455bf506b528c0dd0adb45c58c2aab1a8d7d",
    ),
    "volatile_world/bandit/0": (
        "bd2f478300d0b4751248499a2af71807356e3d7173410cf6272d672baea34b69",
        "62b067fbb1e2a5a89ea28d9f0bc3c58cf342510134c6bdf76b21bb35fdf074fb",
        "ea9d38bc1851a8948f64c0906144ee9a03662d8defe340a9bae1df0aaec22a7e",
        "3901ddfdefc55f283dab9bb9442036f573c1e0bfd65970dbcb00580e91de9b70",
        "8af405bdd54b063ec9faf3ffa404d0301bf7155d2005b71c2386b29a41942fa8",
        "f643606fd57a2664f8780da71f0211078bb511c68625fdecc04daf5667bd0783",
    ),
    "volatile_world/bandit/1": (
        "53f758288627162b9e32389f31e9aa4f4d9c98248783d0f91d9da47b3f344fbc",
        "d3e30c5029baec448b8731c9a713ac4b076bfd13b8847b1a192001038e3f8ca3",
        "890722e25d944644fddace50c20db1a691c9d1f3cdb8359e6f19f2c210f7458d",
        "a8318a3063abd0687f0b50017ae604bcf316ea7ab3e78816122ebbd921a12dec",
        "7ee6e563f9b6de100ae928d29dafc598087dc94619cf18bde2563afc42f7621c",
        "baed363317ba4d1aa173e3f3858f1eb2d9ef605da733fbd712de4a78463b0666",
    ),
    "volatile_world/delta_entropy/0": (
        "55220922dd6c5e6d3544e6b6f167b83483db0d91e687f54006b01fdbd3145272",
        "1d4ad60725fced25c369a70113f9923d873560d58a52c22cb2647c6cc961b0fb",
        "ea9d38bc1851a8948f64c0906144ee9a03662d8defe340a9bae1df0aaec22a7e",
        "cc115a46c8e8cfd2dd705898c47cbbd0ef175a894fd656f72222b6a9bd1f3ea7",
        "8af405bdd54b063ec9faf3ffa404d0301bf7155d2005b71c2386b29a41942fa8",
        "8cb5a7a30a7fdc67d845beb7e7fbffea984e0f7d32a658c213a0eed70a4becb4",
    ),
    "volatile_world/delta_entropy/1": (
        "0184af54ef4b95596b2d25a6067048d533e4074679ff82d5e817209d584e6095",
        "fc117936f92df7f9f13d38836f633913b5f8348ca383382220898e1548298dc3",
        "890722e25d944644fddace50c20db1a691c9d1f3cdb8359e6f19f2c210f7458d",
        "71072f7eca4101afb400fd7768441bd5fcb7ffdb3a9c1c184b43edef58822fa7",
        "7ee6e563f9b6de100ae928d29dafc598087dc94619cf18bde2563afc42f7621c",
        "efec1c01a6bd627203cd6c352be78768878ce9aa9653588d972ff66952b0ac8f",
    ),
    "volatile_world/uniform/0": (
        "f7b31e5342f6296734ae08f924bf9fe248dd2fa8e8f81743e88d826b56f720a6",
        "3c20ea489d7b4b302b8066a3ee43d61c0be0b45752f76c4f2d1205238d1cdf8c",
        "0a04b1abab2189ab396d8aafb096613c91f77734ed7c873f412700975791613e",
        "ca507ee16591a11a67d027d82b31e578ebb4761d880a9b0187b43dbf57d2a117",
        "e047f27d7aa69ba95c700a33155c02d5c6c31045540efdf55e9f98d347cc520d",
        "092f9b45be03478c0c55f86f6a8d144d94139b68d5214f05f7635610675a6e2b",
    ),
    "volatile_world/uniform/1": (
        "00a9d182d7fd8a95707ae3be91a9dcb155069e4fce9eb1952c95831d61730da8",
        "5f87cbaa8d371980416cd9474316d18a65b2fc2fbd62302cdb39ab9a7b7209f3",
        "8a32dc5c219dc7b32c950acf659d8d849e0054aa99509cfb0fce237bfe66b667",
        "ca507ee16591a11a67d027d82b31e578ebb4761d880a9b0187b43dbf57d2a117",
        "5df7e2fdeae0d2502437596b623b00a8527e5efecabfed1e58c3c9d28b6a99fc",
        "092f9b45be03478c0c55f86f6a8d144d94139b68d5214f05f7635610675a6e2b",
    ),
    "volatile_world/static/0": (
        "49e3c7230b6fc76e1e25480c5c5d4367db02adf87ff8a606f37781a38e1e02d0",
        "e9d600860ae1f812a0641571dc0125f8cb0e5476c0f01ee62530359a77999cc6",
        "83004ee287de8416bc5a016788c7465c8c1b3b2d7e3790beea4c967d03f11e60",
        "244782884550686bd95f438ee7e977e71d98c47ff0f654a2442353ac22753666",
        "ab26d6bbb05e7caabcfb0f2a2d2a84ec8f04e77b0b76c3e401606ea327ca94d6",
        "092f9b45be03478c0c55f86f6a8d144d94139b68d5214f05f7635610675a6e2b",
    ),
    "volatile_world/static/1": (
        "ffb04156ebe58ec2974ca29f21c5ead8889a6594d37fb454893bac84977609a0",
        "117b3109979b07b9acdeb535aec638c63b9d66935d2a1f8fa847a08d571990b0",
        "382a17d21c0567a3fed10458c25cbef9663aa576f80a06756e9215b301873b51",
        "244782884550686bd95f438ee7e977e71d98c47ff0f654a2442353ac22753666",
        "b89c95cf1309a88646369b9b64b274e93c851006c3320952fcdbeae339de639a",
        "092f9b45be03478c0c55f86f6a8d144d94139b68d5214f05f7635610675a6e2b",
    ),
    "one_arm/bandit/0": (
        "53315b859c729d74f933248604975e14ff5ad1cbdfbbd05622aaf685378f9d93",
        "34c49f8f3c8691686bea5e652b139e2e65a8fcec65eeeda9bddc19626f46d414",
        "e829f233d864b983b08d37221c58970a2904477c8a06495bd0b2d9ed7a3408b0",
        "38955efb276a6d7ae51cd8ec24fdf975583f5d9f3b965c63d5d5de4dd582fdc2",
        "5b2ef62a8271c77a635cf2411ed6667d2f856c0febda9570aa8648a311dbdf58",
        "b18731d537ac7a9b072b61b926292014396f672e8dd1ee396f1584e8d5cd0e03",
    ),
    "one_arm/bandit/1": (
        "7c8a3562c08eaa17b5530e7b1f50ad7569273973833015aa6dc7783018b1533e",
        "9f70c5f3fd9196f68756be398f30773f6ff8123addd9d3e4d267a2cde927cbd8",
        "7f8a1fc6b64d70cfe6b61c2ee8e8bd9e3655e74bcfdbebd510ee1a495b39154e",
        "38955efb276a6d7ae51cd8ec24fdf975583f5d9f3b965c63d5d5de4dd582fdc2",
        "5b2ef62a8271c77a635cf2411ed6667d2f856c0febda9570aa8648a311dbdf58",
        "15caa8b02a4eaf25082fbeaafcd2b28bb7128dbc1a98b0e742235c754ec6adec",
    ),
    "one_arm/uniform/0": (
        "b26a23e44fabcbb34ee659dd470dec518ca2ec5e8e7e713de4ade52cb1b8358c",
        "90298dd10fe5e1bb32e95828eea017680a45dfe07e47f37af30e55a3c129c169",
        "e829f233d864b983b08d37221c58970a2904477c8a06495bd0b2d9ed7a3408b0",
        "38955efb276a6d7ae51cd8ec24fdf975583f5d9f3b965c63d5d5de4dd582fdc2",
        "5b2ef62a8271c77a635cf2411ed6667d2f856c0febda9570aa8648a311dbdf58",
        "10de9ce5bc0e26001270cbb633743315342644ff5b440fdfb79fe5a03df863b1",
    ),
    "one_arm/uniform/1": (
        "7bf64e6e37c0515a3e79607d809c105a22168035dcef79eeaee592af2c44c268",
        "647c8c7cbbeb2f7432f4db3df939c1d99e688124de5718056327b7e2eae92a39",
        "7f8a1fc6b64d70cfe6b61c2ee8e8bd9e3655e74bcfdbebd510ee1a495b39154e",
        "38955efb276a6d7ae51cd8ec24fdf975583f5d9f3b965c63d5d5de4dd582fdc2",
        "5b2ef62a8271c77a635cf2411ed6667d2f856c0febda9570aa8648a311dbdf58",
        "10de9ce5bc0e26001270cbb633743315342644ff5b440fdfb79fe5a03df863b1",
    ),
}


@pytest.mark.parametrize("case", cases())
def test_artifacts_match_golden_hashes(case, tmp_path):
    world, policy, seed = case.split("/")
    assert artifact_hashes(world, policy, int(seed), tmp_path) == GOLDEN[case]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases())


def main() -> None:
    print("GOLDEN = {")
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases():
            world, policy, seed = case.split("/")
            hashes = artifact_hashes(world, policy, int(seed), Path(tmp) / case)
            print(f'    "{case}": (')
            for h in hashes:
                print(f'        "{h}",')
            print("    ),")
    print("}")


if __name__ == "__main__":
    sys.exit(main())
