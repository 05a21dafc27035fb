"""Golden outputs: the exact bytes of small CLI runs.

Each case runs one fixed config through the CLI and pins its exit code and
the sha256 of ``report.json`` and of every CSV it writes.  A refactor that
claims to preserve behaviour must leave these digests unchanged.  Only three
kinds of deliberate change may regenerate them: a change of the random draw
order, or a transform that keeps the draws but rounds differently (the
half-angle stable transform moved exactly cf-compare-spectral-auto,
simulate-nrlp-spectral, simulate-walk-skeleton, supercritical and
theorem1-mc; the BLAS-free mixture product, with the bin scales folded into
the directions, moved exactly cf-compare-spectral-auto and
simulate-nrlp-spectral; the series sampler's per-replica sums by
``np.add.reduceat`` over a chunk's replica segments, pairwise in place of
a sequential ``np.bincount``, moved exactly cf-compare-series-exact).  Drawing each chunk's fresh skeleton increments
right after its genealogy uniforms moved exactly theorem1-multiblock, the
one case whose blocks span more than one chunk (a change of
``step_reinforced.SOURCE_CHUNK`` moves it too; supercritical-multiblock,
added later, also spans several chunks per block and ends in a one-replica
block).  Drawing the marks of
``yule_simon.ys_joint_values`` from its alias head (a column and an alias
test per path, then the exact tail) in place of the geometric and
negative-binomial bridge moved exactly the cases that draw marks: the
series sampler's cf-compare-series-exact and simulate-nrlp-series (its
paths.csv only), and the Monte Carlo theory's cf-compare-series-mc and
theorem1-mc, whose cf now sums the head's cells exactly and estimates only
the tail cell.  The third kind is a deliberate change of a theory value: the
Yule-Simon moment from a short exact head and a Hurwitz-zeta tail (relative
moves of up to 8e-8) moved exactly cf-compare-series-exact and
cf-compare-spectral-auto (exact theory) and simulate-nrlp-spectral (the
mixture's tail weight).  Regenerate with

    PYTHONPATH=src python tests/test_golden.py

which prints the current table for pasting into GOLDEN below.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from nrlevy.cli import main

pytestmark = pytest.mark.bytes

CONFIGS = {
    "simulate-ys": """
[experiment]
name = simulate-ys
rho = 2.0
seed = 11
replicas = 2000
""",
    "simulate-walk-elephant": """
[experiment]
name = simulate-walk
p = 0.3
n = 200
seed = 12
walk = elephant
""",
    "simulate-walk-skeleton": """
[experiment]
name = simulate-walk
p = 0.4
n = 200
seed = 13
walk = skeleton
[triplet]
dim = 1
jumps = stable
alpha = 1.5
""",
    "simulate-walk-skeleton-d2": """
[experiment]
name = simulate-walk
p = 0.5
n = 50
seed = 25
walk = skeleton
[triplet]
dim = 2
gaussian = 1.0
jumps = atoms
atoms = 1,0:1;0,-1:2
""",
    "simulate-nrlp-series": """
[experiment]
name = simulate-nrlp
p = 0.3
seed = 14
replicas = 300
grid = 0.5,1.0
truncation_eps = 0.05
[triplet]
dim = 1
gaussian = 1.0
drift = 0.2
jumps = atoms
atoms = 1.0:2.0; -0.5:0.3
""",
    "simulate-nrlp-spectral": """
[experiment]
name = simulate-nrlp
p = 0.3
seed = 23
replicas = 1500
grid = 0.0,0.5,1.0
sampler = spectral
[triplet]
dim = 1
gaussian = 0.7
drift = -0.2
jumps = stable
alpha = 1.5
""",
    "cf-compare-series-exact": """
[experiment]
name = cf-compare
p = 0.5
seed = 15
replicas = 2000
thetas = 0.5,1.0
grid = 0.5,1.0
truncation_eps = 0.01
sampler = series
theory = exact
[triplet]
dim = 1
jumps = cauchy
""",
    "cf-compare-spectral-auto": """
[experiment]
name = cf-compare
p = 0.5
seed = 16
replicas = 2000
thetas = 0.5,1.0,2.0
grid = 0.5,1.0
sampler = spectral
[triplet]
dim = 1
jumps = stable
alpha = 1.5
""",
    "cf-compare-series-mc": """
[experiment]
name = cf-compare
p = 0.3
seed = 17
replicas = 1000
thetas = 0.5,1.0
grid = 0.5,1.0
theory = mc
mc_replicas = 20000
[triplet]
dim = 1
gaussian = 1.0
""",
    "theorem1-exact": """
[experiment]
name = theorem1
p = 0.3
seed = 18
replicas = 200
mesh = 50,100
theory = exact
[triplet]
dim = 1
gaussian = 1.0
""",
    "theorem1-multiblock": """
[experiment]
name = theorem1
p = 0.3
seed = 24
replicas = 1025
mesh = 100,200
theory = exact
[triplet]
dim = 1
gaussian = 1.0
""",
    "theorem1-mc": """
[experiment]
name = theorem1
p = 0.5
seed = 19
replicas = 200
mesh = 20,50
theory = mc
mc_replicas = 10000
[triplet]
dim = 1
jumps = cauchy
""",
    "supercritical": """
[experiment]
name = supercritical
p = 0.8
alpha = 1.5
theta = 1.0
seed = 20
replicas = 256
mesh = 20,50
""",
    "supercritical-multiblock": """
[experiment]
name = supercritical
p = 0.8
alpha = 1.5
theta = 1.0
seed = 26
replicas = 1025
mesh = 100,300
""",
    "prop8": """
[experiment]
name = prop8
p = 0.5
n = 100
ks = 1,2
seed = 21
replicas = 256
mc_replicas = 20000
""",
    "moments": """
[experiment]
name = moments
rho = 4.0
seed = 22
replicas = 5000
grid = 0.5,1.0
""",
}

GOLDEN = {
    'cf-compare-series-exact': (0, {
        'cfdata.csv': 'ee94bd32aa0d5336eae74a1e30e442eabb5a730a0c33d52c68e2f39404ffa594',
        'report.json': '94419502b3b19d193803e7d79a8333f96e79daea3b09bc431c6a7016aec1fe37',
    }),
    'cf-compare-series-mc': (0, {
        'cfdata.csv': '8d3085c08350a64f231b4645becd2713648d690ccfff5e3544d57e67fb85677b',
        'report.json': 'c612c8b9910fae9da177d6d85351e0a25aa1571312f3e7dc963a35e1a32195db',
    }),
    'cf-compare-spectral-auto': (0, {
        'cfdata.csv': '8ebb57df8bfd956b8eead7ee62805b7eb70bd9ea50102fdcb32695c3b6539593',
        'report.json': 'bfbcd8affb72fd931a415ffd95e7309a774fd03e57be744e13692bf2fdc0b506',
    }),
    'moments': (0, {
        'report.json': 'dd639bcae81a7c83a11e5f24fee9f47cfa53ddffc8508750b98c7f722346aacc',
    }),
    'prop8': (0, {
        'prop8.csv': 'c76dd23667915e149470f00fa749ae6330df049212d4ad544ea84d00f2868768',
        'report.json': '46b9aab867f3dd0a37435e0f07b1304a3ff715df75ca84c273ff793dace27c3c',
    }),
    'simulate-nrlp-series': (0, {
        'paths.csv': '8123d44a1fdea2df3412cab7d42463dc72146bed89758ca925597ee633eeb3d2',
        'report.json': 'fb746b2306afe14bd976d88c44cf9f984acbcc1d0cb7b7c42a74cb52fda64366',
    }),
    'simulate-nrlp-spectral': (0, {
        'paths.csv': 'a941d0ef66ad56d9920bfe850d1636384fe5fc543cefb6e89c584143dca495d7',
        'report.json': 'c6d0e48c81b3089192618faf84d6e178c75b1146fe1ff9d2b03a2f049e8dbc74',
    }),
    'simulate-walk-elephant': (0, {
        'counters.csv': '57aac03f59634ea692e1ef5aaa5cb28af704ed71adf1b4fbcfbb62e75fbb1559',
        'report.json': 'a7832537709329d85660bf7d295719d5753b9027955917fb97d9665e6628c07e',
        'walk.csv': '72699821a264f7ef7b9c4334a38520f666c2c8cdf7d0840cd7ca52fb1b000f4f',
    }),
    'simulate-walk-skeleton': (0, {
        'counters.csv': '4a3c12f91e271b2e759c929c6b042c775e5cd28b63c137c1b2b45133ed44d6f4',
        'report.json': '2389812af919d82d641d737a9c4b0964c067ff1bcbc433dfd37f17ddd37c0146',
        'walk.csv': '2271ecce8381010754af87d53cb08d4804587c4f23bdd178ff7de686c446bda8',
    }),
    'simulate-walk-skeleton-d2': (0, {
        'counters.csv': '175238d315db585648304724fbf4856095fdfaac8bc3e079956d550aeddbad00',
        'report.json': 'f65ac23e4e91b3af8a5e036ff96ce29e439952a862eccc1f421fb19545c47de3',
        'walk.csv': '8976611c446293cac5ac6366c4ff4167432688f7e10421f28e4fec7e37866b0d',
    }),
    'simulate-ys': (0, {
        'histogram.csv': '2d2214ff76cd8b8f60ac74c11224503fa4197a6eed1aaf75609044c08d1a1874',
        'report.json': 'fe24a0d6d52754672b011d8db866a8935edc61dc7b82862e1d4ef63a29102225',
    }),
    'supercritical': (0, {
        'distances.csv': '6173614e3f3184fcfef477321d8fd9730db6866ac7fdf5b33e6324c4b0c7bacb',
        'report.json': '42a4e014db00fe0cbe5de8f58cf86dc750239b91ab82bfdb9171fc126e8cc864',
    }),
    'supercritical-multiblock': (0, {
        'distances.csv': 'cb4e2f7992b77fab8f0199c19a5f8d5b520b8e7d06ca3bcbf29cb6bc76205ade',
        'report.json': 'ba35a3b729aab09519aad2a33eb770fdb08da05e6a869d9973b5f9ec36a97c67',
    }),
    'theorem1-exact': (0, {
        'distances.csv': '2731c4247616c4ef6187c8515d6c9b056c2cc111f9c2a61f5648e3aa2dc5b215',
        'report.json': '3b08b06491c00881bcc50a47ccea951a6babef4989d760f9179e9104f3777b19',
    }),
    'theorem1-mc': (0, {
        'distances.csv': '1493ae18641f34a3c33c7000d02a082a4a492e86ad947934313ac9d2fe4f59d4',
        'report.json': 'ca3666bc6f8802a36a99ce281e092ed4e3f5f9699c1085049da5d15a9403d407',
    }),
    'theorem1-multiblock': (0, {
        'distances.csv': '57819d713317504129bdd907b9531b589c85b22c600b2aa1c0767e02063392cf',
        'report.json': '4a89537a715a64461fdbf9348575fcf854b24503cce679a84ef98ca8649f0505',
    }),
}


def run_case(name: str, out: Path) -> tuple[int, dict[str, str]]:
    """Run one config into ``out``; return its exit code and file digests."""
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.ini"
    config.write_text(CONFIGS[name])
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(config), "--out", str(out / "run")])
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((out / "run").iterdir())
    }
    return code, digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_bytes(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name in sorted(CONFIGS):
            code, digests = run_case(name, Path(tmp) / name)
            print(f"    {name!r}: ({code}, {{")
            for fname, digest in digests.items():
                print(f"        {fname!r}: {digest!r},")
            print("    }),")
        print("}")
        sys.stdout.flush()
