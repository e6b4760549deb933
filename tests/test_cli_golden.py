"""Golden bytes of the command line: the sha256 of the stdout of every
formatted command in text, CSV and JSON, and of `compile`.

Timing fields (the sweep's usec column, compile_us and
proj_us_per_point) are masked before hashing; everything else is pinned
byte for byte. Run this file as a script to print the table of digests.
"""

import contextlib
import hashlib
import importlib.resources
import io
import re

import pytest

from qcyclo.cli import main

BALL = str(importlib.resources.files("qcyclo") / "data" / "ball_4tet.json")
SPINS = ("--spins", "4,4,4,4,4,4")
# the sweep grid starts on the h = 3 root, where the radicand has a pole
POLE_GRID = ("--spins", "2,2,2,2,2,2", "--start", "1.0471975511965976",
             "--stop", "1.5", "--count", "3")

COMMANDS = {}
for _engine in ("dcr-f64", "dcr-mp", "lse-f64", "lse-mp", "exact",
                "classical"):
    COMMANDS["eval-" + _engine] = ("eval", *SPINS, "--level", "8",
                                   "--engine", _engine)
    COMMANDS["eval-%s-parts" % _engine] = (*COMMANDS["eval-" + _engine],
                                           "--parts")
COMMANDS.update({
    "diag": ("diag", *SPINS, "--level", "8"),
    "sweep-dcr-f64": ("sweep", *POLE_GRID, "--engine", "dcr-f64"),
    "sweep-dcr-mp": ("sweep", *POLE_GRID, "--engine", "dcr-mp"),
    "sweep-real-axis": ("sweep", "--spins", "4,6,8,6,4,6", "--start", "1.05",
                        "--stop", "1.25", "--count", "4", "--real-axis"),
    "table-t1": ("table", "t1"),
    "table-t3": ("table", "t3", "--bits", "256"),
    "table-t4": ("table", "t4"),
    "tv": ("tv", "--triangulation", BALL, "--level", "5"),
    "tv-no-weights": ("tv", "--triangulation", BALL, "--level", "5",
                      "--no-weights"),
})
CASES = {"%s-%s" % (name, fmt): (*argv, "--format", fmt)
         for name, argv in COMMANDS.items() for fmt in ("text", "csv", "json")}
CASES["compile"] = ("compile", *SPINS)

_TIMING = (
    # JSON keys
    (re.compile(r'("(?:usec|compile_us|proj_us_per_point)": )"?[0-9.e+-]+"?'),
     r"\1T"),
    # the sweep footer
    (re.compile(r"((?:compile_us|proj_us_per_point)=)[0-9.]+"), r"\1T"),
    # the usec column, last on every text and CSV row of the sweep
    (re.compile(r"^(\d+[ ,].*[ ,])[0-9.]+$", re.M), r"\1T"),
)


def masked_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    text = buf.getvalue()
    if argv[0] == "sweep":
        for pattern, repl in _TIMING:
            text = pattern.sub(repl, text)
    return text


def digest(argv):
    return hashlib.sha256(masked_stdout(argv).encode()).hexdigest()


GOLDEN = {
    'compile':
        '8747b64de83e19f084d9ab0fb2fef19cee19d1203f0e16666102e0f712f616c7',
    'diag-csv':
        '1ca72bde9b3faf3e74e1c96a67982e537f2f1d4a7399fc41464db72d68e13699',
    'diag-json':
        'cf3ec9daaae6463a9fc15365a143bb0dc93011cb36c0f0027984c3211a83ec58',
    'diag-text':
        'd92f3c56e9e0be9a1dbd3fbc85e5a0e9b35e9da1a2d654a2dd5c9450560cdc25',
    'eval-classical-csv':
        '3dcb15f00d6ea913b38519b0765d0e262d4c01947487eb4e1f2ce23cf8173778',
    'eval-classical-json':
        'f19d9f8031be5b547cada774a59a7266a10ce96fe075e25aa45f41aa1af5e898',
    'eval-classical-parts-csv':
        '3dcb15f00d6ea913b38519b0765d0e262d4c01947487eb4e1f2ce23cf8173778',
    'eval-classical-parts-json':
        '24336795b3d6f65d1d333c3b58af31102d12d3f9e62e51e650d6ce264ab446d7',
    'eval-classical-parts-text':
        'e3a3d985f7552ffdaaf8387176b7d8272f98efeae3b36d11682a5c542a8e6e5c',
    'eval-classical-text':
        'e3a3d985f7552ffdaaf8387176b7d8272f98efeae3b36d11682a5c542a8e6e5c',
    'eval-dcr-f64-csv':
        '0543b16727291ae342e62afbdb8c207f92fd84a08ab5060014ea3ea69105b123',
    'eval-dcr-f64-json':
        '14cc3e9633a6c0c532fbce5c6e2bc2d00afa4ab30009f1b139e127734a4cb0c1',
    'eval-dcr-f64-parts-csv':
        '0543b16727291ae342e62afbdb8c207f92fd84a08ab5060014ea3ea69105b123',
    'eval-dcr-f64-parts-json':
        '1e345bb553537ca6ef3dabccff468ad359914a3d11fe1b052be9a829782c41f1',
    'eval-dcr-f64-parts-text':
        '902239195701b9036dd62f53a7643b40d9198aedbd3921570f98765e00c21544',
    'eval-dcr-f64-text':
        'd4750482b9b2a5c3ae2b85c35f35218aeb1d7fb0a337243fb0263232402daf20',
    'eval-dcr-mp-csv':
        '8cb0452d36aa82206f453760e1fcad996f42da5101d2940aba2b1da59124e2b3',
    'eval-dcr-mp-json':
        '3bd5ee7f52e1d3ee76bf0f989845f649038fb572d8aadaacc75de2d8e24aac7c',
    'eval-dcr-mp-parts-csv':
        '8cb0452d36aa82206f453760e1fcad996f42da5101d2940aba2b1da59124e2b3',
    'eval-dcr-mp-parts-json':
        '001d1433b6d6183aafd33e192a62146eed24faabb0b0e589a4edc02c9d874515',
    'eval-dcr-mp-parts-text':
        'bc064af7082bb6d4dea85bf4db4e6065fae0450eb5c2f905f464de87b93b11a2',
    'eval-dcr-mp-text':
        '85955fcb3943a325a29b8eb2f8d9e9a3628657ed22169f7fe9cd08f6a62d2912',
    'eval-exact-csv':
        '03996165d6082a833a05371a2bbb32c748d371a2a96cd14ccca9c083f5bc26ae',
    'eval-exact-json':
        'd6b94efe9e3c19384ebc5d5c72beb8c6135fb09ba326740353a27b72bc7038d5',
    'eval-exact-parts-csv':
        '03996165d6082a833a05371a2bbb32c748d371a2a96cd14ccca9c083f5bc26ae',
    'eval-exact-parts-json':
        '4b6ab9429bc1958c667c2688a5f26d01c403cb8465c48d0644d3c9894ec44946',
    'eval-exact-parts-text':
        'e7a84f88c6520f6442d0d50ec7a061bd99927f7b0b5fe6725a5ef3a1d3104ec6',
    'eval-exact-text':
        '96f01cf312911388b15291d3636d31086184140434b318412cece0d64f80b4f8',
    'eval-lse-f64-csv':
        'bbdfbef32589497d368320fee57c74a193b5087a52118c044960b341b770c9cb',
    'eval-lse-f64-json':
        '1e65772390d2099050487a489b0e809ab3ae76fcf2f38db1d9062d56a16790bf',
    'eval-lse-f64-parts-csv':
        'bbdfbef32589497d368320fee57c74a193b5087a52118c044960b341b770c9cb',
    'eval-lse-f64-parts-json':
        '1e65772390d2099050487a489b0e809ab3ae76fcf2f38db1d9062d56a16790bf',
    'eval-lse-f64-parts-text':
        '373bd7ae4f7dbb680b5d818176cbff63344845abc6f8ec023d285ffdb246a26e',
    'eval-lse-f64-text':
        '373bd7ae4f7dbb680b5d818176cbff63344845abc6f8ec023d285ffdb246a26e',
    'eval-lse-mp-csv':
        '22affccfaa27f4a51ac16e00ea4948c1e4ac5acc270aa8da72902961b8e55048',
    'eval-lse-mp-json':
        '2a4067a0853b82916d0e3736c9dd839000d0710c291459bcfcfb5af929df10b5',
    'eval-lse-mp-parts-csv':
        '22affccfaa27f4a51ac16e00ea4948c1e4ac5acc270aa8da72902961b8e55048',
    'eval-lse-mp-parts-json':
        '2a4067a0853b82916d0e3736c9dd839000d0710c291459bcfcfb5af929df10b5',
    'eval-lse-mp-parts-text':
        'b42de95386ce1e9bf921656191e1614111872e734892e8e50db31872878ece11',
    'eval-lse-mp-text':
        'b42de95386ce1e9bf921656191e1614111872e734892e8e50db31872878ece11',
    'sweep-dcr-f64-csv':
        'e7c3d23de1cdc3e563e36b166f0ee098077e7f63de5add0ce4db66e2e2b6eb38',
    'sweep-dcr-f64-json':
        '97a0128d03da9a53352bfaaa5096a2bd1d78587653e322d339f01dd5c277643a',
    'sweep-dcr-f64-text':
        'df54d15eccbbbddbbd86590eb36b15999e4eaaad600b12ce6dec2dff7879c187',
    'sweep-dcr-mp-csv':
        'e7c3d23de1cdc3e563e36b166f0ee098077e7f63de5add0ce4db66e2e2b6eb38',
    'sweep-dcr-mp-json':
        '97a0128d03da9a53352bfaaa5096a2bd1d78587653e322d339f01dd5c277643a',
    'sweep-dcr-mp-text':
        'df54d15eccbbbddbbd86590eb36b15999e4eaaad600b12ce6dec2dff7879c187',
    'sweep-real-axis-csv':
        'aec55e755faa04af9ee5ad413cc2e69928c8c6773d85c934a13077f24a23311b',
    'sweep-real-axis-json':
        '7ee9ce849e9c2a2949ecc88d0d2407ad157125f714ed0ed3ff11071722cde61b',
    'sweep-real-axis-text':
        'c4bb8326c3c996d973523fc7998620b6f9d6b95c4f7026ee9a4ba1b0b7a849a7',
    'table-t1-csv':
        '631d826fab2b1fff67eae4737a89f8e44aac832b64fa12f26521b08f7401af30',
    'table-t1-json':
        '4345a6268f45a1e56ec6e54dbdfc1d66f79d9caae35577a248293509898ad37b',
    'table-t1-text':
        '7ec96290e198837a4113876e8b83d2227cf5ab0fad69df11a627baad99e919d3',
    'table-t3-csv':
        '36e40777a852003f656ecdb56a014cceca15e17b5f5aa93d087c04e4541f4948',
    'table-t3-json':
        'b018727e423abc6311b2d53b7891695e0e6d314dd6c9f6af88233cfb77ede269',
    'table-t3-text':
        '23e830261d43637223e58c78fc4c1d7adc44fbb2b004d04cb7599b58cbca485e',
    'table-t4-csv':
        'ff54092b3de9e69cffd39a8c2f95699b7c633e5dac3d2e09951b1235e5478e22',
    'table-t4-json':
        '0741dc41432b261271867a29389f875ea01e27b2250db79c984ef00f798b51da',
    'table-t4-text':
        '3bad1d7743c2cc134d6547a60d24cea8422528cdd5595ee025500ce9d48ec8d8',
    'tv-csv':
        'ba37703ab0d4f0e54a59bb8ad85c9d801969f42f654adcd19f1cfdb4a8cc97fb',
    'tv-json':
        '9075641204e5588a3348cd34c8ddad9ae8b72a0fe7dc3b5f4fac2a1592e61dd1',
    'tv-no-weights-csv':
        'f1665efb1a85f0b9dacadab541aa780c6f1dc10e00a613a7771b07030324444d',
    'tv-no-weights-json':
        '5c7d69de34dafa61defb4aba83881c60aebfa88070ee74103a599821be0aa283',
    'tv-no-weights-text':
        '344d770ea9dd76ef88dd2d8cb4f1f4063b5832e65f1489c0b579296c6e095c9c',
    'tv-text':
        '9a0e562079247ef0566009e39c3e268f05d0600dc4305eeb2a489cfd79765f31',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_bytes(case):
    assert digest(CASES[case]) == GOLDEN[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print("    %r:\n        %r," % (case, digest(CASES[case])))
