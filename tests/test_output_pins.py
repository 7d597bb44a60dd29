"""Pinned sha256 digests of learned-graph bytes on exact backends.

Oracle and injected p-values are exact, so ``to_json()`` and ``to_dot()``
of these learns do not depend on the machine.  A change meant to keep
every output byte leaves the digests as they are; a change meant to alter
output updates them and says which and why.

``TRACE_PINS`` holds the digest of each library learn's ordered
``engine.trace()`` keys, so a change that asks the same queries in another
order fails here even when the graph and the cached results stay the same.
The prior only orients, so both prior settings share one trace pin.  A
change meant to reorder queries (batching them, say) updates these pins
and says why.  ``SORTED_TRACE_PINS`` holds the digest of the same keys
sorted, so it stays as it is when only the order moves: asking the
forward step's levels in rounds changed the ordered pins of
``oracle1/proposed`` and ``oracle2/proposed`` and none of the sorted
ones (in the other searches, the rounds ask in the old order).

Cases: the example-1 injected fixture and three ``random_dag`` oracle
graphs, each learned by both algorithms with and without a tier prior,
plus ``learn --backend injected`` through the CLI on the fixture.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from causeweave import CIEngine, InjectedBackend, OracleBackend, learn_structure, pc_stable
from causeweave.cli import main
from causeweave.skeleton_orient import PriorKnowledge
from oracle_helpers import random_dag

FIXTURE = Path(__file__).parent / "fixtures" / "example1_injected.json"
EXAMPLE1_TIERS = {"Y": 0, "X": 1, "Z": 1}
LEARNERS = {"proposed": learn_structure, "pc-stable": pc_stable}
CASES = ["example1", "oracle0", "oracle1", "oracle2"]


def case_inputs(case: str):
    """Variables, a fresh engine and the tier map of one case.  An oracle
    case puts three vertices per tier along its DAG's topological order."""
    if case == "example1":
        backend = InjectedBackend.from_json(FIXTURE)
        return list(backend.variable_names()), CIEngine(backend), EXAMPLE1_TIERS
    seed = int(case.removeprefix("oracle"))
    dag = random_dag(5 + seed, np.random.default_rng(seed), edge_prob=0.4, max_degree=3)
    tiers = {v: i // 3 for i, v in enumerate(dag.topological_order)}
    return list(dag.vertices), CIEngine(OracleBackend(dag)), tiers


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


PINS = {
    "example1/proposed/no-prior": {
        "json": "2fcb402ab72be35cc9f10c9b29f936a9692256594000e87db6d450353bf6f71f",
        "dot": "7d67dcd31d1a19bd37b975cb8181e2a66d223cb30529cb99ef82df6d28c45baa",
    },
    "example1/proposed/tiers": {
        "json": "182f29dd5f888433f66f2a6bffa26c2565a252caa7dea9a8449b1fe94ab67c69",
        "dot": "a8072719c007a1469016aeceb6ca74f1a4c9f8d233a60b4b2db6e4c0860bbc87",
    },
    "example1/pc-stable/no-prior": {
        "json": "b1a11810394cf52e445f33459801af7ca640cad39967795a9ce021e66a7fb26b",
        "dot": "97fe0a45ccbfb91e7638da529d6638880f7586dc521c44e28fb1c7dbeef53b3b",
    },
    "example1/pc-stable/tiers": {
        "json": "6bc3814a9f91f47036b7a8bdb5d4dc2876d680c7b2259a8c0163c6ea043f2353",
        "dot": "90e808f000e16d9a43e6c1095a6dbfbc4fe5785ff7e21c2964927c57e34c4402",
    },
    "oracle0/proposed/no-prior": {
        "json": "11138c45540f46789dfdbf4faeed7e0aa6720096082aab8d711db10e9bbacaf9",
        "dot": "8c90d23d8e592ba967d2dfa9e31febb826f2a9da95d710dac67c4902b4c8bf33",
    },
    "oracle0/proposed/tiers": {
        "json": "9022266362e6bb7b3412c2a7ffe42b3250d4bd64ddc2604d9c39eb0012c3c22f",
        "dot": "55c32f5692e6c6b3396f5270b0fad64b34a015f1ddd4886bba20cc1616888138",
    },
    "oracle0/pc-stable/no-prior": {
        "json": "340a0c006e59cbfcf0a6abae441d61ff0ae503ba8ecfc67c609e57a5e9450991",
        "dot": "9373f9a69ba266df408cae7b6ee97b2e40fbe84293300b29f7c40eaf086bf2fa",
    },
    "oracle0/pc-stable/tiers": {
        "json": "91cda1f6ebf75bbd69848a4a11f24cf4c2101f981a38d66c2ca748554eb6292e",
        "dot": "e3a8c9c6cd994dc0a4f091e334c908c65a06678ec2cd47a9109f48def0fba7fb",
    },
    "oracle1/proposed/no-prior": {
        "json": "546d97dd7eb92dc2147ce21e2960467b162c6504466f5f3a3cd09d7ebc868cc8",
        "dot": "d14daa867dd191fb145faa0feac90b101e538a83b9a18943b5e129a19a8e2ac9",
    },
    "oracle1/proposed/tiers": {
        "json": "578993deb032110e9740982548f48a72d7964a4ac675fd58265e128c0b65de7a",
        "dot": "1f9ec5084e0b4c7dfbdb40e0db1e83979fcec9698cf308793924395c64cdea28",
    },
    "oracle1/pc-stable/no-prior": {
        "json": "d50fc74b9b6e4343c20254be751817fd00f0252768fd92bfaf8e208f8d7356ba",
        "dot": "08e36454015339a8c4927698128a7a6f90ab4fbf877f02876d97ffe4e6a4af3a",
    },
    "oracle1/pc-stable/tiers": {
        "json": "ae8cd79764ac80a1dfd4aa38f0888a4c69030d97f107dc5d11e03ee272d279e4",
        "dot": "2fd745d61ceb10382c3f543144faafcf104e3a88d48073aaa14af18166d61a91",
    },
    "oracle2/proposed/no-prior": {
        "json": "b4579a16ce7203b92e24448f8e672367c4dc6170dd4752cf59c234a5ca00a46e",
        "dot": "ee7596cb59d58bb7f638a62ca1624e4aabe983b65674b75e36f01eb058fa03e2",
    },
    "oracle2/proposed/tiers": {
        "json": "fc39a016ddaa881997899a75f0891a7e8b9c1a96f50aeb89fe5363c46f3ebd80",
        "dot": "46e929c77c7fc01c3b8331256430de567e33101428784f730dce3b5fc9e596f2",
    },
    "oracle2/pc-stable/no-prior": {
        "json": "0cced6d9ab3490f19bc4f39d370d01eb2347f84220345f5b296ab9ac4a82d3f9",
        "dot": "3764f2577fe239b7403423da21c20bcba31c808471017232d20762fa6197a5a0",
    },
    "oracle2/pc-stable/tiers": {
        "json": "1cf8c61fc9c87fd3946fc800ba9622bdb15527bd9bd7e8dc295cd5622b1bd97d",
        "dot": "5e086a6ca9df7c19b3e1f78d98856538d212ef864fcaf58287a0bc96cc30b3ef",
    },
}


TRACE_PINS = {
    "example1/proposed": "79fa1d420fcbc3c409bc927c6292c38e101d418ad84863b322db6c6859b48658",
    "example1/pc-stable": "a42b8eceb8545baec07aad0b2322a41e5184bb9889fa5c0fe6d4197df98a9815",
    "oracle0/proposed": "5099cd16cfe75b962ce7c3f98fb930b396601c28168eeb6acb035ea8164f8ceb",
    "oracle0/pc-stable": "d7752c6ac1def33f451a424ecc996d8f0482e9bef027527e6b97e9dbae573ff1",
    "oracle1/proposed": "34234c2cfaa7a4bfc47b2df27abdad1b92da2fbac2516ab3492197d51c8d877b",
    "oracle1/pc-stable": "3b54120665c5879aa4f89b645b368eb60f21e186bae8932f3b089b4aff776df9",
    "oracle2/proposed": "294a3fb0ec2ab2cf23cbac74d2f59696d6bc7be4b697c3ab686a9096f830c3e7",
    "oracle2/pc-stable": "2fe1e42624cb1d6c3eecec6f44cecb1f3bf3e07e62ad7c4cb13b178d54fed001",
}


SORTED_TRACE_PINS = {
    "example1/proposed": "8ecf151df07a536568afb6824b37b3d573f778ed728d61a5dce648516a9d16fe",
    "example1/pc-stable": "953428ee9b507d5b1b77ef932baaf536e7d78b4c97c0d804584699460b1ae043",
    "oracle0/proposed": "8de299101c38fc52e0b0415928c7edfd27acccf3347fbe32586212905df14211",
    "oracle0/pc-stable": "d7752c6ac1def33f451a424ecc996d8f0482e9bef027527e6b97e9dbae573ff1",
    "oracle1/proposed": "8fafd73cf98fdba202608d9be6ae9a9401f28829c6c976474bd27efbbb5f64f3",
    "oracle1/pc-stable": "affe2a9c05f27afc80bb8fa18d1425bb1eadec9e4911562c8e99cbb5ebd0a7b2",
    "oracle2/proposed": "2293868af019cd834832a14b89ca832c70e2bf1279c25efa06e3aaf281cc5e72",
    "oracle2/pc-stable": "a44beff97146a49b7317b290b5c08a521875141c57fbcc9975ccd02ac77858ec",
}


@pytest.mark.parametrize("tiers", [False, True], ids=["no-prior", "tiers"])
@pytest.mark.parametrize("algorithm", list(LEARNERS))
@pytest.mark.parametrize("case", CASES)
def test_learned_graph_bytes_are_pinned(case, algorithm, tiers):
    variables, engine, tier_map = case_inputs(case)
    prior = PriorKnowledge(tiers=tier_map) if tiers else None
    with engine.trace() as log:
        graph = LEARNERS[algorithm](variables, engine, alpha=0.05, m_ci=3, prior=prior)
    key = f"{case}/{algorithm}/{'tiers' if tiers else 'no-prior'}"
    assert graph.skeleton_pairs()
    assert {"json": sha(graph.to_json()), "dot": sha(graph.to_dot())} == PINS[key]
    assert sha(json.dumps(sorted(log))) == SORTED_TRACE_PINS[f"{case}/{algorithm}"]
    assert sha(json.dumps(log)) == TRACE_PINS[f"{case}/{algorithm}"]


@pytest.mark.parametrize("tiers", [False, True], ids=["no-prior", "tiers"])
@pytest.mark.parametrize("algorithm", list(LEARNERS))
def test_cli_learn_injected_bytes_are_pinned(tmp_path, capsys, algorithm, tiers):
    out = tmp_path / "graph"
    argv = [
        "learn", "--data", str(FIXTURE), "--backend", "injected",
        "--algorithm", algorithm, "--out", str(out),
    ]
    if tiers:
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"tiers": EXAMPLE1_TIERS}))
        argv += ["--prior", str(prior)]
    assert main(argv) == 0
    capsys.readouterr()
    key = f"example1/{algorithm}/{'tiers' if tiers else 'no-prior'}"
    written = {fmt: Path(f"{out}.{fmt}").read_text(encoding="utf-8") for fmt in ("json", "dot")}
    assert {fmt: sha(text) for fmt, text in written.items()} == PINS[key]
