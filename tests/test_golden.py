"""Golden artifact hashes: runs must stay byte-identical.

Pins the sha256 of ``trace.jsonl``, ``summary.json`` and ``world.json`` for
every shipped world config x four policy variants x two seeds, and for the
one-arm world of ``test_probe_oracle`` x {bandit, uniform} x two seeds.  The
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
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS)


def cases() -> list[str]:
    shipped = [f"{w}/{p}/{s}" for w in WORLDS for p in POLICIES for s in SEEDS]
    return shipped + [f"one_arm/{p}/{s}" for p in ONE_ARM_POLICIES for s in SEEDS]


# case -> sha256 of (trace.jsonl, summary.json, world.json)
GOLDEN = {
    "tulu_default/bandit/0": (
        "d7ba4cd15c8965fc69d104e3cdadc7de26b6744556904a7ecf534f0c5c451e57",
        "2ce8565aaa12b38c1869867aad10e17f479108831174f0cd5924bc59d46fd2a4",
        "6b1f9011fc03947c3f5828685b49123eb68eefa8bac287837e36b3a971bb3802",
    ),
    "tulu_default/bandit/1": (
        "782fb1a3d3cc89fd632f570b9e4e1de4b46290e562f7e9e2667afe5900df3f13",
        "1600db34aa0b414b89e33f4577456d8cfa1ce6eb6734462f88ade8399a47da4b",
        "ddc9748a1b51b952cd6144fdd6eee1088056f9e94f1c2bda1d177833e7961a4a",
    ),
    "tulu_default/delta_entropy/0": (
        "17181285475073358e7fb27ed9bdaa3ff33b063cf31eb4ee361a935352b354c1",
        "69f0a006ed2875ab765868cdc5c25669044b4465f4ae33623c268a9495413886",
        "6b1f9011fc03947c3f5828685b49123eb68eefa8bac287837e36b3a971bb3802",
    ),
    "tulu_default/delta_entropy/1": (
        "0eb0eaf55132991dddd96cb980315deb76a619903bad23bff6587499e4632117",
        "42c4d9bc135e2a3d12a901a89ef010de6d542f0cfac77dc72d06188219a5c8c2",
        "ddc9748a1b51b952cd6144fdd6eee1088056f9e94f1c2bda1d177833e7961a4a",
    ),
    "tulu_default/uniform/0": (
        "4f3e79f72a45e784104f3237109170aec243fa598a6ab3a58917f3096f1ff2ba",
        "b3dd11f25f0884639dd80bdcebba8736979eabc7e7519a28f1b27f5236a76523",
        "e4e277b16c02847973570c1c4468042a52ceae5e2d3755257a93662475bfaa07",
    ),
    "tulu_default/uniform/1": (
        "2fd451b3042fde5b68badcd83a4c21c0a150b59d0dd61e4ce6449aa4c0791fce",
        "104b9d5cbf8037dec100c6232968b7495990ca89d1e97ee3ec7651204b03d2de",
        "c3dd77c4426a625c336c93658a88605f13c057e4811d165c2e0ae130e6bb2451",
    ),
    "tulu_default/static/0": (
        "67d33e79e7f8ab3801baf1b072f4b70011b1fd357f2abbe9e3dcda8638e0f4a5",
        "2479fe62c1f32a464b8663cfe54799913930d751c9af3c4908e548e68980d1a4",
        "f941f5ee5de5641fe76d6aef6ead968c0b4bc65ba39fa379142a4d8782dc91b2",
    ),
    "tulu_default/static/1": (
        "fd678f5d95fb159e1ad9d029c55d9a2d874db5d7eec46dbd30aace778bcdc1db",
        "e156378179c616ab3655695423e5ad48629dddfd07ebde0c5c3be332155f2f43",
        "d4464bfaf7f30b83cda67573b852499ff1b93084c8309c80fc05f109148bc49f",
    ),
    "deep_gap_world/bandit/0": (
        "0e0a419e7c2090408a07426042e7840fd7436b3468f5ec5183b704a9d5373961",
        "331d81336127a1bb0405cb06e928a599b05527186e83e06beb1722a246d6176a",
        "6f81c2248512ccaaeeb0916edeeb821f87fa227851bf7393c54f5d2f93f42e54",
    ),
    "deep_gap_world/bandit/1": (
        "6b4d7aa709e63b791d601fed40f169b2581387f1b571c94163a89f92472664bd",
        "c473d53532aa196bae5c6a5273e44765613e4947a45f6b03db87a8537da956a7",
        "a34e6d854d2171a622ff7c5c90ef5b104f453f662c35823f4b7ad4161e6a0a8c",
    ),
    "deep_gap_world/delta_entropy/0": (
        "4dc5b21ec0fc7e04efc99fed8b37e51712c7e67daa39097bf65830d765677718",
        "7514b64eb94578f35e92e0b8d3b69832171edf15fe14bc38e2530a5ba70baac0",
        "6f81c2248512ccaaeeb0916edeeb821f87fa227851bf7393c54f5d2f93f42e54",
    ),
    "deep_gap_world/delta_entropy/1": (
        "7b9350f8ade3ec07e61435d3e7f14acd92d81e9ca1b77efbfd4ce7beef17180a",
        "de455735e94f0d777de2260526d075f02c8054af11a0b533f6ecea06c2929454",
        "a34e6d854d2171a622ff7c5c90ef5b104f453f662c35823f4b7ad4161e6a0a8c",
    ),
    "deep_gap_world/uniform/0": (
        "a40ba2a2b94ef8938930a01a212378063f9938f20e3106ec603fd12b79bbf53e",
        "ed960e964bc9cde505d205d9baf3e635ee6f070db216f362ddfacb91bc49364a",
        "958cf767cfd13c3382acc38b3857de863d021d985d5de1f909c790bf85a849cb",
    ),
    "deep_gap_world/uniform/1": (
        "95faa20540d18aa84acb92ff5c0def78a5ec44d5f6e1ccfffc3bd8a6b498d84a",
        "c213aa3e82be44c2057bd3cbc1665a7b58e2f1a97e76dc4461b82450fa1c3733",
        "0844d89739b370f84b41a4e1949f056fcf40fae413d027cee5cbcb6fc9f47ef8",
    ),
    "deep_gap_world/static/0": (
        "dd7e8b2cd4f1399e4271898656725538231c9c472dff5d2d2000e7fc47059e0a",
        "0cbac708df9cbce385c80e82f8779d44dc7d33fbeb1c8eab5db2620a96d60847",
        "cbdbac8ac37613b2c0b88bc58fd672febb907710da57ffbff95c112dea1e8d22",
    ),
    "deep_gap_world/static/1": (
        "6f79ad58bc5ae9dc35865b42c07221ae00d9408b74975b971c4c0a30a1a0a7b3",
        "04ebbb94154c1c89d747d5f5533f5b6d11182473d3ebcec5e234f06260743d6b",
        "6be9c087df383cf40f748241aba435d7561b845ede8e2174f1c3eaecce820bd3",
    ),
    "volatile_world/bandit/0": (
        "b56691d7763da88e4bcfa13c8e1cd86cd2a1dfa61cb59573d8b4529249fa1f3d",
        "62b067fbb1e2a5a89ea28d9f0bc3c58cf342510134c6bdf76b21bb35fdf074fb",
        "ea9d38bc1851a8948f64c0906144ee9a03662d8defe340a9bae1df0aaec22a7e",
    ),
    "volatile_world/bandit/1": (
        "8381782e4f90a6849afbfea22dfbec1580d2fd1a21e52078b9416b6e1b621745",
        "d3e30c5029baec448b8731c9a713ac4b076bfd13b8847b1a192001038e3f8ca3",
        "890722e25d944644fddace50c20db1a691c9d1f3cdb8359e6f19f2c210f7458d",
    ),
    "volatile_world/delta_entropy/0": (
        "00a147b3e1c5a68eeaac11f9744e1ecc99710f881735b72d0a97768e5ee67891",
        "1d4ad60725fced25c369a70113f9923d873560d58a52c22cb2647c6cc961b0fb",
        "ea9d38bc1851a8948f64c0906144ee9a03662d8defe340a9bae1df0aaec22a7e",
    ),
    "volatile_world/delta_entropy/1": (
        "a5bb956f062044fdf41dd227efdff897621e59a215b90e4054c31884e313efc7",
        "fc117936f92df7f9f13d38836f633913b5f8348ca383382220898e1548298dc3",
        "890722e25d944644fddace50c20db1a691c9d1f3cdb8359e6f19f2c210f7458d",
    ),
    "volatile_world/uniform/0": (
        "5b41ff3f30f270d400580f95779f540c76bdaeb40f2a32a97e65d59609cd310c",
        "3c20ea489d7b4b302b8066a3ee43d61c0be0b45752f76c4f2d1205238d1cdf8c",
        "0a04b1abab2189ab396d8aafb096613c91f77734ed7c873f412700975791613e",
    ),
    "volatile_world/uniform/1": (
        "68bed7b4f16a73177f9c6618e438b703012684753d3600eb01cb308b6b002dd9",
        "5f87cbaa8d371980416cd9474316d18a65b2fc2fbd62302cdb39ab9a7b7209f3",
        "8a32dc5c219dc7b32c950acf659d8d849e0054aa99509cfb0fce237bfe66b667",
    ),
    "volatile_world/static/0": (
        "27a1143dbcaf9573f284a98febcd4fcd59e7201ef0fff972e9b818a673f769f8",
        "e9d600860ae1f812a0641571dc0125f8cb0e5476c0f01ee62530359a77999cc6",
        "83004ee287de8416bc5a016788c7465c8c1b3b2d7e3790beea4c967d03f11e60",
    ),
    "volatile_world/static/1": (
        "601a84394d586312ea5186a0c6cd583cb988ba1d70351e4e02b28cc00890837b",
        "117b3109979b07b9acdeb535aec638c63b9d66935d2a1f8fa847a08d571990b0",
        "382a17d21c0567a3fed10458c25cbef9663aa576f80a06756e9215b301873b51",
    ),
    "one_arm/bandit/0": (
        "cdb97829dad10564e4a378e6e7d06df16c99429ed454db3b02ce46ccd660497c",
        "34c49f8f3c8691686bea5e652b139e2e65a8fcec65eeeda9bddc19626f46d414",
        "e829f233d864b983b08d37221c58970a2904477c8a06495bd0b2d9ed7a3408b0",
    ),
    "one_arm/bandit/1": (
        "0902f1d96178b5bcb4b04bfeeb5f1c6927c386b2021d68efe88fec1843072b47",
        "9f70c5f3fd9196f68756be398f30773f6ff8123addd9d3e4d267a2cde927cbd8",
        "7f8a1fc6b64d70cfe6b61c2ee8e8bd9e3655e74bcfdbebd510ee1a495b39154e",
    ),
    "one_arm/uniform/0": (
        "cc589aadba17502cbd77f9c213a7f496b4a4427315719fe30bb410fdbcbb2b08",
        "90298dd10fe5e1bb32e95828eea017680a45dfe07e47f37af30e55a3c129c169",
        "e829f233d864b983b08d37221c58970a2904477c8a06495bd0b2d9ed7a3408b0",
    ),
    "one_arm/uniform/1": (
        "8ccba33b20e8b9bf9e357f5aca07fb2c283b56409cf75dfccca774f555cf3b5a",
        "647c8c7cbbeb2f7432f4db3df939c1d99e688124de5718056327b7e2eae92a39",
        "7f8a1fc6b64d70cfe6b61c2ee8e8bd9e3655e74bcfdbebd510ee1a495b39154e",
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
