"""The block vote of the approximation ladder, pinned bit for bit.

BASELINE, APPROXIMATE-LSH and APPROXIMATE-LSH-HISTOGRAMS differ in how
they estimate per-plan densities and share Algorithm 1's vote over
them: aggregate the per-transform estimates, run the confidence check
(after noise elimination, for histograms) and estimate the winner's
cost.  A change to how that vote is written must leave every
prediction unchanged to the last bit: plan id, confidence bits and
estimated-cost bits, of ``predict_batch`` over a seeded point block
and of scalar ``predict`` over every eighth point of it.

Each case builds its predictor over a seeded uniform pool of a TPC-H
template, labelled by the optimizer oracle.  The probe block mixes
uniform points with pool points, so dense, sparse and empty
neighbourhoods all occur.  Regenerate the table (only for an intended
change to a decision) with ``PYTHONPATH=src python -m
tests.core.test_vote_golden``.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.core.baseline import BaselinePredictor
from repro.core.confidence import ConfidenceModel, FrequencyConfidenceModel
from repro.core.histogram_predictor import HistogramPredictor
from repro.core.lsh_predictor import LshPredictor
from repro.tpch import plan_space_for
from repro.workload import sample_labeled_pool, sample_points

TEMPLATES = ("Q1", "Q5", "Q7")
POOL_SIZE = 1200
POOL_SEED = 4501
PROBE_SEED = 4502
UNIFORM_PROBES = 200
POOL_PROBES = 100
SCALAR_STRIDE = 8

MODELS = {"chord": ConfidenceModel, "frequency": FrequencyConfidenceModel}

#: Noise fractions per template: none, the ablation's 0.002 (which
#: eliminates nothing on Q1 and everything on Q5 and Q7 here), and one
#: that eliminates some of the answered probes but not all.
NOISE = {
    "Q1": {"off": None, "0.002": 0.002, "partial": 0.015},
    "Q5": {"off": None, "0.002": 0.002, "partial": 0.0005},
    "Q7": {"off": None, "0.002": 0.002, "partial": 0.0005},
}


def _cases():
    """Case name -> predictor factory over a template's pool."""
    cases = {
        "baseline": lambda template, pool: BaselinePredictor(pool, radius=0.15)
    }
    for model in MODELS:
        for aggregation in ("median", "mean"):
            cases[f"lsh/{aggregation}/{model}"] = (
                lambda template, pool, a=aggregation, m=model: LshPredictor(
                    pool, aggregation=a, confidence_model=MODELS[m](), seed=3
                )
            )
            for kind in ("maxdiff", "incremental"):
                for noise in ("off", "0.002", "partial"):
                    name = f"histogram/{kind}/{noise}/{aggregation}/{model}"
                    cases[name] = (
                        lambda template, pool, k=kind, n=noise, a=aggregation,
                        m=model: HistogramPredictor(
                            pool,
                            histogram_kind=k,
                            noise_fraction=NOISE[template][n],
                            aggregation=a,
                            confidence_model=MODELS[m](),
                            seed=3,
                        )
                    )
    # An even transform count: the median averages the middle pair.
    cases["lsh/t4"] = lambda template, pool: LshPredictor(
        pool, transforms=4, seed=3
    )
    cases["histogram/t4"] = lambda template, pool: HistogramPredictor(
        pool, transforms=4, noise_fraction=NOISE[template]["partial"], seed=3
    )
    return cases


CASES = _cases()

GOLDEN = {
    "Q1/baseline": "e5021b579455e75eb7112db148ca9dbb6e09b535a54108f94d2cd8288589df7b",
    "Q1/histogram/incremental/0.002/mean/chord": "76a8db3f1f8f0ecdab78a3e103d8735076c3407b76d36a7f04ed8f59e2ff27c5",
    "Q1/histogram/incremental/0.002/mean/frequency": "011526ff51e49b8b9c0b2b5937a4eccb4592ab5982f8ad4b5afba189c6a2a004",
    "Q1/histogram/incremental/0.002/median/chord": "5b613c2f422988e6c4d1eb4cf0893d29c5b64a9b13a06fe2da28ffc6a0f3d822",
    "Q1/histogram/incremental/0.002/median/frequency": "7a100eb7f26e9a8ff0b2fbd13432ecd928de4237753dae87f418ea8f2f4b8a89",
    "Q1/histogram/incremental/off/mean/chord": "76a8db3f1f8f0ecdab78a3e103d8735076c3407b76d36a7f04ed8f59e2ff27c5",
    "Q1/histogram/incremental/off/mean/frequency": "011526ff51e49b8b9c0b2b5937a4eccb4592ab5982f8ad4b5afba189c6a2a004",
    "Q1/histogram/incremental/off/median/chord": "5b613c2f422988e6c4d1eb4cf0893d29c5b64a9b13a06fe2da28ffc6a0f3d822",
    "Q1/histogram/incremental/off/median/frequency": "7a100eb7f26e9a8ff0b2fbd13432ecd928de4237753dae87f418ea8f2f4b8a89",
    "Q1/histogram/incremental/partial/mean/chord": "da7e65cb31adff00bfd6398c660bf4c467c7754443c886025b02abf6c646a587",
    "Q1/histogram/incremental/partial/mean/frequency": "1c4058581a19b1671f707c0140e89fe032c595766f6dfa620ff457d68ba297f3",
    "Q1/histogram/incremental/partial/median/chord": "0095cb588b54f6ea9786b13d219413d29f5bb8391bf7e97a1fa94691fef5d229",
    "Q1/histogram/incremental/partial/median/frequency": "bdc71c2292f4ca15eb4f31738f633a342e62ad86b202eeef33f36df7303c9da7",
    "Q1/histogram/maxdiff/0.002/mean/chord": "a25fbe0ea936df8279af45d8cbd2a2edb01aa6404cfac63a1911e891d781c1ff",
    "Q1/histogram/maxdiff/0.002/mean/frequency": "2ee5b34f4db43876289ef29a37cd41b9da2001a5a2fb3c4e27fc1d8179c11efc",
    "Q1/histogram/maxdiff/0.002/median/chord": "c5974ff5907613d474efd7ea63c2ca1703d632da1be68e7dd9f7a085cabb34d4",
    "Q1/histogram/maxdiff/0.002/median/frequency": "f593a7eb913c18f07e28a5bcaa41fcb98e3d8aac952b1d17eb37a303f8983c23",
    "Q1/histogram/maxdiff/off/mean/chord": "a25fbe0ea936df8279af45d8cbd2a2edb01aa6404cfac63a1911e891d781c1ff",
    "Q1/histogram/maxdiff/off/mean/frequency": "2ee5b34f4db43876289ef29a37cd41b9da2001a5a2fb3c4e27fc1d8179c11efc",
    "Q1/histogram/maxdiff/off/median/chord": "c5974ff5907613d474efd7ea63c2ca1703d632da1be68e7dd9f7a085cabb34d4",
    "Q1/histogram/maxdiff/off/median/frequency": "f593a7eb913c18f07e28a5bcaa41fcb98e3d8aac952b1d17eb37a303f8983c23",
    "Q1/histogram/maxdiff/partial/mean/chord": "9203fa4d498dddddb82140b2c39ed93cd7ce75a9caf3a4adf7965a37c3db2d44",
    "Q1/histogram/maxdiff/partial/mean/frequency": "c57e47848799f5f276a2acd0017d188c290d6a2bd726e573165354b4e8d04cd8",
    "Q1/histogram/maxdiff/partial/median/chord": "5a38eed20584ec5c46be3e075cdf87e6380328f6e6ff2e12a5ed64c2a963142e",
    "Q1/histogram/maxdiff/partial/median/frequency": "b489a829756c9271597a9b517118d5ba932cd72807d0f9ef22b4acee08163e08",
    "Q1/histogram/t4": "300dc1bdcdfcc7e051a056e4e1312088f968c99816c8888730e671661c7c723d",
    "Q1/lsh/mean/chord": "ddba71bf69536e9273132ceef1c2ec75d03726d625722510a65722df49352d23",
    "Q1/lsh/mean/frequency": "cff9944cd23ec53aaf6a628faff95dd510cc513a227695c49af993c256ca511a",
    "Q1/lsh/median/chord": "2e64ff5ced31fdb2b5d7a770149809edc2c42c1e0dcf1208134e0591b568430c",
    "Q1/lsh/median/frequency": "2d22cf5e25e57f479c73091fedece0f2a663e4e5489fb867f10ebc535f1120c6",
    "Q1/lsh/t4": "c5716e0933157e67561582375c9b78e76068df59415642cc518c4b33a5ee4e63",
    "Q5/baseline": "14ba4072c5b3aaab09f1d098bdcea8592fc25336864cb62a5c5bd79ccdfe6ecb",
    "Q5/histogram/incremental/0.002/mean/chord": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q5/histogram/incremental/0.002/mean/frequency": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q5/histogram/incremental/0.002/median/chord": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q5/histogram/incremental/0.002/median/frequency": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q5/histogram/incremental/off/mean/chord": "0fa7b5affae821e5fde4059933f87d4eb7116e32df03ea1335bdd6e3d467eb89",
    "Q5/histogram/incremental/off/mean/frequency": "3ae9c22a68eedddc484c9cf7d4baf4201a665003961410204de71f3562ac87ab",
    "Q5/histogram/incremental/off/median/chord": "d73e198e7221e95cd2d34c78ef2183c5f2ed2026e80044999b29671322a75442",
    "Q5/histogram/incremental/off/median/frequency": "e461e57d231a9883cadd8949c4d6fb6f720928c4c6c064cf31799d1f2f2681ad",
    "Q5/histogram/incremental/partial/mean/chord": "b5425232937b79349859ff6f12c56065d0c98143ab75db1f8ab18ebf767db68d",
    "Q5/histogram/incremental/partial/mean/frequency": "875edafc0e33fb0455ca4dabc998dbbc94be1cce7952d18fdc5cb936409deef7",
    "Q5/histogram/incremental/partial/median/chord": "2f0ddb0d9ad660f09a724b5e9ea749123c5772a51f5a8cacc37ad5c746e5397c",
    "Q5/histogram/incremental/partial/median/frequency": "2b1f41d8d330b2d8fde8b03a87d0709ab7d26cd81015df202e4efac2358f51ad",
    "Q5/histogram/maxdiff/0.002/mean/chord": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q5/histogram/maxdiff/0.002/mean/frequency": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q5/histogram/maxdiff/0.002/median/chord": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q5/histogram/maxdiff/0.002/median/frequency": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q5/histogram/maxdiff/off/mean/chord": "758318b2872cdf0ff4f4dfb29f4082e0cf54c596529668d6a54fc137e5a9dff1",
    "Q5/histogram/maxdiff/off/mean/frequency": "0112268c69951b3e8040c95759b7daf31e710d75809eb44b8d2b199fadeb0586",
    "Q5/histogram/maxdiff/off/median/chord": "76db89af55b8be89afeb2c84754cf998517bd635680717521b0d2fa392570281",
    "Q5/histogram/maxdiff/off/median/frequency": "4871ff78d41d34935121460ddd21e4df236f52edce67912038752d272d239102",
    "Q5/histogram/maxdiff/partial/mean/chord": "5cc54e85cca3126fe7de4af92bbf62d2820afcd680e0dd3f0292db6a39638008",
    "Q5/histogram/maxdiff/partial/mean/frequency": "3f37cbc162d408c615a16f127a9ee798e9b9ba93d33cb991fba62223439432c5",
    "Q5/histogram/maxdiff/partial/median/chord": "a637b730563ce1ab7feef9998757e14e7a6c9c5a23dbecbd0027c8394895bd58",
    "Q5/histogram/maxdiff/partial/median/frequency": "a165f4b8c014e71dac2f956f35c98e0cc86c84c4aeb6abe93e595c1d2eddab32",
    "Q5/histogram/t4": "faf169951b6854ec41d9738de1d33ab60e010b137ee30f5956997216f57ff617",
    "Q5/lsh/mean/chord": "8d15953d3a693edbbaec62d3f94d636dc3328bc4abd836f0200ce9c5bd98718c",
    "Q5/lsh/mean/frequency": "2b411987750d2b1b9adc02a746a528d39840b9479a96c7e4f181d6a0fb49bb31",
    "Q5/lsh/median/chord": "85978c87ca4ac0e65bba3e222216036dd5f958eacf6724bc80bd23e97735f6f9",
    "Q5/lsh/median/frequency": "f9619d827904d707fce5782eba16f9584da2bbf99a61b8b53cc263625674b2ff",
    "Q5/lsh/t4": "c736b3af7cd1fae43038f590d75d77ec9fc9cf410fda2d54690b0b1a32a56271",
    "Q7/baseline": "ff4fa47a6162e6ee356cb8117f4496c4facfe24d79f0e1a0ae1d8cbc6c08fe8b",
    "Q7/histogram/incremental/0.002/mean/chord": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q7/histogram/incremental/0.002/mean/frequency": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q7/histogram/incremental/0.002/median/chord": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q7/histogram/incremental/0.002/median/frequency": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q7/histogram/incremental/off/mean/chord": "ff9ff951817a0e15fe4c350f5a635597fde9dd1a72ebfbeaaa93bc21460c4af3",
    "Q7/histogram/incremental/off/mean/frequency": "33ed4abd70a94ad6b655389170d04f3495f3f6b83cb978cea4bfe233b64d65af",
    "Q7/histogram/incremental/off/median/chord": "4ecd602e438cc160224102ef31e507f543ca3e4e605678f2c45f80b0104a987c",
    "Q7/histogram/incremental/off/median/frequency": "2aa40c2e2953175923afe12dc307589c915478fa753c99682856bb99f7a07973",
    "Q7/histogram/incremental/partial/mean/chord": "52c8cb8e3f02847985df7beff9264b5d6c2848eb474c8049b0119ccccce2a542",
    "Q7/histogram/incremental/partial/mean/frequency": "0ea0a629b6f4ae6d95430921e560a3b95705ee285e70888dc79ed013983a40c7",
    "Q7/histogram/incremental/partial/median/chord": "1e745ef31f4e1c45ec3113949cc22c6014149a6298e28ec8f02b359f597100c2",
    "Q7/histogram/incremental/partial/median/frequency": "a282c9f047c66a53f1fba5167133c122d4a59f41a7e5b64319bd7b26c554d1ab",
    "Q7/histogram/maxdiff/0.002/mean/chord": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q7/histogram/maxdiff/0.002/mean/frequency": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q7/histogram/maxdiff/0.002/median/chord": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q7/histogram/maxdiff/0.002/median/frequency": "2d284dbcf74d73f7fc22937775fa6714abc487d04b7f78387fb2a9eba3bb8e20",
    "Q7/histogram/maxdiff/off/mean/chord": "892179c1ca99e04f5b7ebaa6a5cc3ad0bb0bd219b99ad635f438338b7c750752",
    "Q7/histogram/maxdiff/off/mean/frequency": "06dd675513807bb1740d6232494d8d250a774c0a27110801fa59fb5915b778b2",
    "Q7/histogram/maxdiff/off/median/chord": "b9bc167377755ebd1e4b5e0dc6c4a38e10a07ee33233e3604de17bb9830c2624",
    "Q7/histogram/maxdiff/off/median/frequency": "60c139b2cf8eda5e6bfc9bad4eee6b19f8fba16db47cc1c66558780c6ee354ae",
    "Q7/histogram/maxdiff/partial/mean/chord": "62dc0f33c4f5b35e23ed267fb145f8cc2cb182b879f1c407e16078b7115f3cfb",
    "Q7/histogram/maxdiff/partial/mean/frequency": "3445bb3079dc51102a2ecca56d0d0cf477676fe521cf63c318f1e8999f174012",
    "Q7/histogram/maxdiff/partial/median/chord": "d21a8ae4bb6f615c049b180b842f0e1e32d96cae74934764cb0d47ca36df9b62",
    "Q7/histogram/maxdiff/partial/median/frequency": "0f7e7bb3caff5690b682191ecec0c4871e9c7b91db5e528136be01e9577b25a3",
    "Q7/histogram/t4": "f46ab081be9c79cef6cd2b4914b67bd485c315a5e67658b7960c45280f824db2",
    "Q7/lsh/mean/chord": "11644813347a622e3705a408dee21fc15118d4defcdabd8f3264d9272ad38721",
    "Q7/lsh/mean/frequency": "80d370f999de91091fc3116f555bc845bdc0559b2312796891263dca3c76e38b",
    "Q7/lsh/median/chord": "84b6d9a18c01a58a16fdb94714d678a45d07dfb6db1bd808e6bd8f1c43122901",
    "Q7/lsh/median/frequency": "84b6d9a18c01a58a16fdb94714d678a45d07dfb6db1bd808e6bd8f1c43122901",
    "Q7/lsh/t4": "d275d3776043a7558c85dfc88df08ea1ec3dd4715db486f6794a0f72795fcc23",
}


def _bits(value):
    return b"-" if value is None else struct.pack("<d", value)


def _update(digest, prediction):
    if prediction is None:
        digest.update(b"null\n")
        return
    assert isinstance(prediction.plan_id, int)
    digest.update(str(prediction.plan_id).encode())
    digest.update(_bits(prediction.confidence))
    digest.update(_bits(prediction.estimated_cost))
    digest.update(b"\n")


def _probes(pool):
    uniform = sample_points(pool.dimensions, UNIFORM_PROBES, seed=PROBE_SEED)
    return np.concatenate([uniform, pool.coords[:POOL_PROBES]])


def vote_digest(template: str, case: str) -> str:
    """SHA-256 over a case's block and scalar predictions."""
    pool = sample_labeled_pool(plan_space_for(template), POOL_SIZE, seed=POOL_SEED)
    predictor = CASES[case](template, pool)
    probes = _probes(pool)
    digest = hashlib.sha256()
    block = predictor.predict_batch(probes)
    assert len(block) == probes.shape[0]
    for prediction in block:
        _update(digest, prediction)
    for x in probes[::SCALAR_STRIDE]:
        _update(digest, predictor.predict(x))
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("template", TEMPLATES)
def test_vote_matches_golden_digest(template, case):
    assert vote_digest(template, case) == GOLDEN[f"{template}/{case}"]


if __name__ == "__main__":
    for template in TEMPLATES:
        for case in sorted(CASES):
            key = f"{template}/{case}"
            print(f'    "{key}": "{vote_digest(template, case)}",')
