"""Every leaf subcommand pinned byte for byte: its exit code and the sha256
of its stdout, on small seeded inputs written to a temporary directory.

Each leaf has a pass case, and a fail case and an exit-2 case wherever it
can produce them. Stderr carries timing, so it is left out. A change that
moves a pin says why in CHANGES.md. The `suite` leaf runs its three fastest
batteries here (the whole seed-42 run takes seconds; its stdout sha is the
standing invariant in ROADMAP.md, and every battery has its own pin in
test_suite_smoke.py).
"""

import hashlib
import json
import random

import pytest

from mslab import suite
from mslab.cli import build_parser, main
from mslab.randgen import random_metric_space
from mslab.serialization import _dump_json, space_to_dict

from test_cli import subcommands

# placeholders in an argv, replaced by the path of the file of that name
FILES = ("SPACE", "BROKEN", "ASYMMETRIC", "REPEATED", "FN_OK", "FN_BAD", "FN_BROKEN", "APPROX", "RANDOM",
         "STEP_X", "STEP_PART0", "STEP_PART1", "RADIAL", "APPROX_BROKEN")


def write_inputs(root):
    h = "1/2"
    spaces = {
        "SPACE": {"points": ["a", "b", "c"], "diam": "1", "d": [["0", h, h], [h, "0", h], [h, h, "0"]]},
        # a metric but for the triangle a-c-b, and a metric but for symmetry
        "BROKEN": {"points": ["a", "b", "c"], "diam": "1",
                   "d": [["0", "1/4", "1"], ["1/4", "0", "1/4"], ["1", "1/4", "0"]]},
        "ASYMMETRIC": {"points": ["a", "b"], "diam": "1", "d": [["0", h], ["1/4", "0"]]},
        "REPEATED": {"points": ["a", "a"], "diam": "1", "d": [["0", h], [h, "0"]]},
    }
    for name, data in spaces.items():
        (root / f"{name}.json").write_text(json.dumps(data))
    two = {"points": ["a", "b"], "diam": "1", "d": [["0", h], [h, "0"]]}
    katetov = {
        "FN_OK": {"space": "SPACE.json", "values": [h, h, "3/4"]},
        "FN_BAD": {"space": two, "values": ["0", "0"]},
        "FN_BROKEN": {"space": "BROKEN.json", "values": [h, h, h]},
    }
    for name, data in katetov.items():
        (root / f"{name}.json").write_text(json.dumps(data))
    _dump_json(space_to_dict(random_metric_space(random.Random(5), 4, 5, 6)), root / "RANDOM.json")
    assert main(["urysohn", "build", "--denom", "2", "--rounds", "1", "--out", str(root / "APPROX.json")]) == 0
    approx = json.loads((root / "APPROX.json").read_text())
    approx["d"][0][1] = approx["d"][1][0] = "0"  # two points at distance 0
    (root / "APPROX_BROKEN.json").write_text(json.dumps(approx))
    # x on [0, 2] x [0, 1], and its two halves in x as the parts
    step = {"x_breaks": ["0", "1", "2"], "y_breaks": ["0", h, "1"], "values": [["1", "2"], ["-1", h]]}
    (root / "STEP_X.json").write_text(json.dumps(step))
    for k, part in enumerate(([["1", "2"], ["0", "0"]], [["0", "0"], ["-1", h]])):
        (root / f"STEP_PART{k}.json").write_text(json.dumps({**step, "values": part}))
    profile = {"breakpoints": ["0", "1", "2"], "values": ["0", h, "3/2"], "tail_slope": "1"}
    (root / "RADIAL.json").write_text(json.dumps(profile))
    return {name: str(root / f"{name}.json") for name in FILES}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("corpus"))


def run(argv, paths, capsys):
    """(exit code, sha256 of stdout) of one invocation in process; argparse
    usage errors exit 2 through SystemExit."""
    capsys.readouterr()
    try:
        code = main([paths.get(a, a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


# sha256 of an empty stdout: every exit-2 case prints no report
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (argv, exit code, stdout sha256), taken at the commit before one grid
# conversion and the `rado metric` vertex fix
CORPUS = [
    ("validate SPACE", 0, "aac81a90b9514b042fa78ca30c4dad34932049b2d3b9a04964c2193ad72fd6f7"),
    ("validate RANDOM", 0, "51be4df7f2e83adcc5c364b64a22c3ff5cf008a9846eead44f90639faa135ed2"),
    ("validate BROKEN", 1, "876c71659d847c28dc0be64616401581add62fd0d073035d6c03c12a3154fa10"),
    ("validate ASYMMETRIC", 1, "a1b36b675d6176e436e9baf4ab0950e1d36f9107e83bf75dc6634ebb8037086a"),
    ("validate REPEATED", 2, EMPTY),
    ("katetov check FN_OK", 0, "9f233a8e4fe0e2562f0b099a88480b0270151a6adbdaaf334227b6d9c687f486"),
    ("katetov check FN_BAD", 1, "d00e9eb687fe026ab230820aeee4beb8e3dd5664ce13511000ce9497974b66f8"),
    ("katetov check FN_BROKEN", 2, EMPTY),
    ("katetov extend FN_OK", 0, "f432c68c8308ba23140c7fefb882042efc54bddf3ce3daedabedb647a6832cd4"),
    ("katetov extend FN_BAD", 2, EMPTY),
    ("katetov enumerate SPACE --denom 4 --limit 3", 0, "154b4558f0c82750076b351ed2d7b9f47b8e2d1ce19d8bf7bd0362a6e07d5ffd"),
    ("katetov enumerate RANDOM --denom 10 --limit 2", 0, "a26da66de7b085f2da0def0c013f524ea1e965b00f91f761f4508871ef78f225"),
    ("katetov enumerate BROKEN --denom 2", 2, EMPTY),
    ("katetov truncate FN_OK --level 1/4 --mode max", 0, "b5d5ee46795b0456ed2bd8fa1bfceeeed25c4f94452d0abc8a754bb3e0adb94e"),
    ("katetov truncate FN_OK --level 5/8 --mode min", 0, "aa5b2adb517b38d1ddfbbc9b2fb175994b4614aea5a78fd3f84f9a750698b6c4"),
    ("katetov truncate FN_OK --level 1 --mode max", 2, EMPTY),
    ("urysohn build --denom 2 --rounds 1", 0, "08396fdf19054303da4546f288079dc7ede86b247de61b7c8d970e44b19f1c72"),
    ("urysohn build --seed-space SPACE --denom 2 --rounds 1 --subset-bound 1", 0, "324cb00d167025e147f5ff8c834b9f57fbe9fd7d9a17649449a909a3db2d5167"),
    ("urysohn build --seed-space BROKEN --rounds 1", 2, EMPTY),
    ("urysohn check APPROX --k 1 --round 0", 0, "471f8227f4691ddf0c6b8ca59b4cf5310f5c679a0af6ae72b4bea57505733e86"),
    ("urysohn check APPROX --k 2 --round 1 --denom 2", 1, "bf481385142b8c54f4c15e3ddbd3168f6dbdbe28e42797481b4aebdd5dcf1ad1"),
    # a finer check grid reads the approximant's own: the verdict, counts and
    # witness of the --denom 2 row, and a pass where the own grid passes
    ("urysohn check APPROX --k 2 --round 1 --denom 4", 1, "418586fa99fc94c30cf634e0ef3c855fa8a91a6aa8293d12b6eddae87c41be50"),
    ("urysohn check APPROX --k 1 --round 0 --denom 4", 0, "229632c8e495e852b71f26547b554fee0e8242cf8f3bbd74822e68512ae4f755"),
    ("urysohn check APPROX --k 0", 2, EMPTY),
    ("urysohn check APPROX_BROKEN --k 1", 2, EMPTY),
    ("urysohn ma SPACE --x 0 --y 1 --f 2 --delta 1/2", 0, "54a8e397cef32326be4c16cf85c5b6a3d6401e81f7a70ad692550467022216b0"),
    ("urysohn ma RANDOM --x 0 --y 1 --f 2 --delta 1/3", 0, "1c56f46958e3cb37e6ae143f7bf05fece7ca693baceb8f670398e9ab78cd0552"),
    ("urysohn ma SPACE --x 0 --y 1 --f 2 --delta 2", 2, EMPTY),
    ("urysohn uwmt SPACE --x 0 --y 1 --z 2", 0, "b47f8e5003bbe885f4362d69c78287f8913a346589908cd7aa9693ccfce7f2d2"),
    ("urysohn uwmt RANDOM --x 1 --y 2 --z 0,3", 0, "aefd2fb70d1c0b57e0cfbfea8f6b4dfcb0bb0abae6443f473213c637f182d541"),
    ("urysohn uwmt SPACE --x 0 --y 1 --z 3", 2, EMPTY),
    ("urysohn prop53 APPROX --pairs 0:0 --eps 1/2 --probe 1", 0, "ad51347d7367cdc70394e22d31405a7dc3967f52a9259977423477880bdd35ae"),
    ("urysohn prop53 APPROX --pairs 0:1 --eps 1/4 --probe 2", 2, EMPTY),
    ("urysohn bf APPROX --pairs 0:0 --eps 1/2 --probe 1", 0, "1b74abec1c09ad0cc3018cd182065403fc0e268a7a3585d8da764facecaa07ad"),
    ("urysohn bf APPROX --pairs 0:0,1:0 --eps 1 --probe 2", 2, EMPTY),
    ("urysohn bf APPROX_BROKEN --pairs 0:0 --eps 1/2 --probe 1", 2, EMPTY),
    ("urysohn chain --r 1/3 --s 1 --diam 1", 0, "00e3479c6547f61dd870caf56d425af0c7c68d10f92e32394d1e29ca62cd897a"),
    ("urysohn chain --r 0 --s 1 --diam 1", 2, EMPTY),
    ("urysohn nonproper SPACE --x 0 --z 1,2 --level 1/4", 0, "fdb138af145750855deb5686ed034a8ff12e31d33ebc750852dc32fd2f08f719"),
    ("urysohn nonproper RANDOM --x 2 --z 0 --level 1/6", 0, "54e04f2a0cbb84df31212d52852a5e131c8e3c29ccce534cecdea814882defea"),
    ("urysohn nonproper SPACE --x 0 --z 1 --level 5", 2, EMPTY),
    ("weak seminorm SPACE --landmarks 0,1", 0, "5a5ec389e69640b78c5d255cfef3586899ceb718f73ca2647d4a7ddd196df633"),
    ("weak seminorm RANDOM --landmarks 3,1", 0, "36ee4ed4896ce4f917f81934b2c8a0da526072b8f36071560a010d172def0d95"),
    ("weak seminorm SPACE --landmarks 0,0", 2, EMPTY),
    ("weak proximity SPACE --a 1 --b 2 --landmarks 0 --eps 1/4", 0, "0ebd5327f85911c524462cb62e65acf25c5db5b1d7e25e370937514cf3e6df56"),
    ("weak proximity SPACE --a 0 --b 1 --landmarks 0 --eps 1/4", 1, "d1ee06ad6ff93298005ea202770e7d367e28b03e879a524b35fbe283c2049dd4"),
    ("weak proximity BROKEN --a 0 --b 1 --landmarks 0 --eps 1/4", 2, EMPTY),
    ("weak net SPACE --landmarks 0 --eps 1/4", 0, "a0d99c56a681960337f8140c84ff07e3f4c3a70461927983a5f8ec435ddb2d52"),
    ("weak net RANDOM --landmarks 0,1 --eps 1/2", 0, "4762cfcb60114ddca92c0440ef8445fc09fec56cceca8d9180cd20d59fbcba8c"),
    ("weak net SPACE --landmarks 0 --eps 0", 2, EMPTY),
    ("weak restrict FN_OK --subset 0,2", 0, "5e1d5563d2c7c113b240ec41ad4849c4a90976b8f52eea3108cd60a3f6168a2b"),
    ("weak restrict FN_OK --subset 5", 2, EMPTY),
    ("hilbert --random 3", 0, "cd512485ded998e2b53f6248b1f2dae7de260c5416cbaec4e6d6762afe51fdde"),
    ("hilbert --u 1,0 --v 0,1 --z 3/5,4/5", 0, "7a7a7a2b5bed51072797db991c618fc5e359a84c36da2d240ae33eab9564d285"),
    ("hilbert --u 1,1 --v 0,1 --z 1,0", 2, EMPTY),
    ("lp --p 3 --pairings 2", 0, "1c01859e75f25f913c439098b4988a863697f53abc7124c0adcf35eb431d0d75"),
    ("lp --p 2 --pairings 2", 1, "20007b0dee20c789ec46ff5140446cf43f0a675694aa6eacd9c8945b1ded2644"),
    ("lp --p 0", 2, EMPTY),
    ("disjoint --p 2 --trials 2", 0, "775a940cf0e15dda55b7f144b65266c9408d0953d82e361d2d8c18c7fba58a6a"),
    ("disjoint --p 3/2 --trials 2 --n 2", 0, "a9a0e25c8d7e0fd0e9c605084c5e2e9109def67d46fda74b6260c3d36eaba975"),
    ("disjoint --p 3 --x STEP_X --part STEP_PART0 --part STEP_PART1", 0, "918dbe935fe3d551c9c12cb96946c04910ed60cdf432a3e0255a4c22752dab39"),
    ("disjoint --p 2 --part STEP_PART0", 2, EMPTY),
    # zero trials once passed vacuously with "instances": 0
    ("disjoint --p 2 --trials 0", 2, EMPTY),
    ("profile check builtin:vee", 0, "c0329fae547c0589163f7e5d3e14b98a5ce3baf30cae242414f1073a088f1233"),
    ("profile check RADIAL --horizon 4", 0, "1d832aaddb39974b3a650175fe39fc45d9aec1ff8a97129d059b2dbcddd944da"),
    # the one profile row whose report carries a convexity witness
    ("profile check builtin:affine-capped-at-two", 0, "c346dc6b8f6ebaea8add303d027f17dc9975ac3ccdc2593bda52ef14c299c64e"),
    ("profile check builtin:nope", 2, EMPTY),
    ("profile agree builtin:flat-then-identity builtin:vee --lo 1 --hi 1", 0, "cae2869054cf4817ca6e82d5e62664cabec9e023aa1eff57a8f76ccb3b97cd04"),
    ("profile agree builtin:flat-then-identity builtin:vee --lo 0 --hi 1", 1, "f96c729c6896cceb13a29627e8e2829bb11ee94e2a8423ff0c1e9bbaf3756217"),
    ("profile agree builtin:vee RADIAL --lo 1 --hi 0", 2, EMPTY),
    ("rado adj 0 1", 0, "29cd8a0f7647df012fb6fb5d536f2bfe6553797eaea73cea061acb5e185fcacc"),
    ("rado adj 3 12", 0, "7058c27eb718b0ea622908da7308a2f006819629bdc29bd8bd5afa260c43b8c7"),
    ("rado adj -1 2", 2, EMPTY),
    ("rado metric 2 5", 0, "04b56dd0ec4997f2efedba26b6ca9c6457381e05bde225d9fe3b4b9903136d2b"),
    ("rado metric --scan 8", 0, "7093b8de0d2544c6210dc195036b475442e5d57fa2f86d1dcade317245cb864b"),
    ("rado metric 3 5 --scan 4", 2, EMPTY),
    # these three passed before the fix, reading a missing vertex as 0 and
    # passing the empty space vacuously (their old pins are in CHANGES.md)
    ("rado metric", 2, EMPTY),
    ("rado metric 5", 2, EMPTY),
    ("rado metric --scan 0", 2, EMPTY),
    ("rado witness --u 1,2 --v 3", 0, "5a77858058af9445e6a2aa6ec3315586c886190bc40b16b22aadacd982f6031f"),
    ("rado witness --u 1 --v 1", 2, EMPTY),
    ("rado basis --code 0:1", 0, "ea6f4f35b5f7633873162f5afd768904b948a6e7ac2e3eb031a38d40cf0d8806"),
    ("rado basis --code 0:1 --code2 1:2", 0, "ca5ad61f74f70940732ae314666caf88d90412dc24d5d66d67734e050294cc3f"),
    ("rado basis --code 1:3", 2, EMPTY),
    ("suite", 0, "8215f1af458df58b321f2b618f84726277057b6f94115b6915f35499a74e7061"),
    ("--budget 10 suite", 1, "8ca5061de6c6ff264cf4f3e057a33e64ea81aaa00b940ec6929ec911c95503f0"),
    ("--budget 0 suite", 2, EMPTY),
]

# the `suite` leaf here runs these batteries only
FAST_BATTERIES = ("3-lp-separation", "8-urysohn-approximant", "10-injectivity-chain")


@pytest.fixture
def fast_suite(monkeypatch):
    monkeypatch.setattr(suite, "ACCEPTANCE_BATTERIES",
                        [(name, fn) for name, fn in suite.ACCEPTANCE_BATTERIES if name in FAST_BATTERIES])


@pytest.mark.parametrize("line,code,sha", CORPUS, ids=[line for line, _, _ in CORPUS])
def test_stdout_is_pinned(line, code, sha, paths, fast_suite, capsys):
    assert run(line.split(), paths, capsys) == (code, sha)


def test_every_leaf_has_a_pass_case():
    leaves = [leaf for leaf, _ in subcommands(build_parser())]
    codes = {leaf: set() for leaf in leaves}
    for line, code, _ in CORPUS:
        # the leaf is the first one or two words that are not an option or its value
        words = [w for w in line.split() if not w.startswith("-") and not w.isdigit()]
        leaf = next(tuple(words[:n]) for n in (1, 2) if tuple(words[:n]) in codes)
        codes[leaf].add(code)
    assert [leaf for leaf in leaves if 0 not in codes[leaf]] == []
