"""Byte identity of every command's outputs against BENCH_19.json.

Each case runs one command in-process and compares the sha256 of every CSV
it writes, of its stdout and, where it writes any, of its stderr with the
digests recorded in BENCH_19.json (`byte_identity.digests`).

`simulate` runs no BLAS call and `baseline` builds no agent, so the bytes
of their outputs do not depend on the host's BLAS core: a byte change in
`netsim`, `env`, `experiments` or the CSV writer fails here on any host.
`train` and `grid` run the learner, whose last bits follow the dgemm
kernel, and `analyze` fits that grid's runs.  Those cases run only where the
OpenBLAS numpy loaded reports the configuration the digests were recorded
on, and skip elsewhere.
"""

import ctypes
import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from rlcc.cli import run as cli_run

LOSSY = ("--override", "sim.bottleneck_link.loss_prob=0.2")

# name: (argv, {output: sha256}), copied from BENCH_19.json
CASES = {
    "sim1": (
        ("simulate", "--cwnd", "1", "--duration-ms", "50000"),
        {"steps.csv": "0ac52ced8888e878138bb8a400e72b01"
                      "fe886ab60969ad9fb2b424b1b2a9aa35",
         "stdout": "923029016d305e6d0473a80dccf41ff4"
                   "609979ca68507d25b4957c0d5c4e435d"}),
    "sim64_0": (
        ("simulate", "--cwnd", "64", "--duration-ms", "50000"),
        {"steps.csv": "43b98c4ff83acf1a5d2be97035607bd1"
                      "63151cd91f4f57e8adbb3f10d8bdf0d2",
         "stdout": "a83d3f4b14d83fee042abd5b496c662f"
                   "fe9b49b3c015e519aa648798fcfcdb4b"}),
    "sim64_02": (
        ("simulate", "--cwnd", "64", "--duration-ms", "50000", *LOSSY),
        {"steps.csv": "4b48652163540e76df0638155fb7f81d"
                      "9d93bc03b1dfcde39b928f71ee62d696",
         "stdout": "cd46fa816c2569231b30a41824f0e5ab"
                   "dc5ff80d157881ee4f1434e6bb576d4d"}),
    "sim200_02": (
        ("simulate", "--cwnd", "200", "--duration-ms", "50000", *LOSSY),
        {"steps.csv": "c23fe8d47061f99b661936f64c03ce79"
                      "8548b06e98cc98d24ba7016b60ab0a09",
         "stdout": "1870947104bf7227583852236c72e882"
                   "b1f16c7e2d638045df141e0a9cc05117"}),
    "simq5": (
        ("simulate", "--cwnd", "64", "--duration-ms", "5000",
         "--override", "sim.queue_capacity_segments=5"),
        {"steps.csv": "9746b5dfc581a226e7af193df6c09f51"
                      "84ed8eb750d43536a7e3f1fc5ef8d15b",
         "stdout": "8a39b01e61570ccd484845062efc2d04"
                   "72b6c89aa3c941835792b7562b46cd8c"}),
    "base_0.0": (
        ("baseline", "--error-rate", "0.0"),
        {"runs.csv": "78aaa1834ea5981e747378f1200c5fbe"
                     "5018f047be00d84ccc8a5f1c5a0adf8f",
         "steps.csv": "0eebf75884a8fe991617bc807129834a"
                      "c498126ca94c26897b92dc5e449cbe0d",
         "stdout": "ed1595efefc28a4dbba38a3d2f5fb464"
                   "18c4af0565bb677e8cf167b3ed5cb327"}),
    "base_0.2": (
        ("baseline", "--error-rate", "0.2"),
        {"runs.csv": "91d458a261c2c2732c7ea755fccc056b"
                     "f0ef25e4baf80d700f393e091b01545e",
         "steps.csv": "4de8e7445523428d9767aeaed67e42e8"
                      "0331633e15fe7c7672031125dc4aae90",
         "stdout": "79d3b6ede792d237ae7cc802c75076fd"
                   "6d1487e54bb461beff637da456d06bf0"}),
}


# the learner's commands, as in CASES: train at each depth and error rate
TRAIN_CASES = {
    "train_2_0.0": (
        ("train", "--layers", "2", "--error-rate", "0.0"),
        {"runs.csv": "1780ef280d7b1b2dec2fee44543685d2"
                     "696e2efc9fd16a8bd947f05bf652b7b6",
         "steps.csv": "fbd2ef4eb2179731ed685d68e0756361"
                      "a122da5e982363ed7ab6996c4548da75",
         "stdout": "16c779cc2e3c51736f69b156b30822e0"
                   "93af5a1c51dc75afc60f4491ba8beb33"}),
    "train_2_0.2": (
        ("train", "--layers", "2", "--error-rate", "0.2"),
        {"runs.csv": "ea5809bff23ff7f70774136096e04bb0"
                     "d925244df33029c486b3c5921825715f",
         "steps.csv": "d9d7485a61f24283d3a2ea913209dfbe"
                      "b814063fca92a4aba3f3976a2a53aed8",
         "stdout": "e426d462e1714a9f4335e854992b9529"
                   "e414e56905f3b8418a9363dc5861bccb"}),
    "train_4_0.0": (
        ("train", "--layers", "4", "--error-rate", "0.0"),
        {"runs.csv": "1861fd0006e030f413b0dc343b0ae9e4"
                     "4cb353eded28a768488a55daf7b66a6e",
         "steps.csv": "6adaf81449370e5c36e31bf4e847e02b"
                      "c1e1b2d967498507bf3b311e1049d835",
         "stdout": "e18a853c8c9e82a7bc696d60661c996d"
                   "3af2bdc0588b363a95f5314d0f573639"}),
    "train_4_0.2": (
        ("train", "--layers", "4", "--error-rate", "0.2"),
        {"runs.csv": "709dff17bf4cefb1761c034ae75cd0d8"
                     "6c37a66c7c73812810dc1ce0b299bbf1",
         "steps.csv": "b4b6a0447ddb1d8b82b87d6e26c5038d"
                      "79140bd12bba41b5070b4769027b24be",
         "stdout": "76afb10fc9f14146041ef8fa8ab39600"
                   "88ebfe1c922a483ecb8204a33843cc28"}),
    "train_8_0.0": (
        ("train", "--layers", "8", "--error-rate", "0.0"),
        {"runs.csv": "ef5f923ebf18117faa84c2fd580e891c"
                     "bfd3cf0d0bdb55a046106c3585b1b5b7",
         "steps.csv": "c941aa2e79dc7b064d3c9c8bf835f669"
                      "03ac159cbff98d2e14158ada2e13e9f3",
         "stdout": "e5d943e8bdb1a701dbe2eaef97c06311"
                   "b7e56342414086409f9f5c8d9b693117"}),
    "train_8_0.2": (
        ("train", "--layers", "8", "--error-rate", "0.2"),
        {"runs.csv": "7dab15c432c3e4dbeab3b08865286765"
                     "1c35a6c6a1e695541d4530bcb2c9f513",
         "steps.csv": "25ca3cf9e87d483b31e3515375297f8e"
                      "45397515dbd43790bff6da870f094784",
         "stdout": "60453fd7f6173c08baf6ee3635bfcd62"
                   "820a04167689f45882ac05c8fdabd440"}),
}

# grid --reps 2 --jobs 2 -> {output: sha256}
GRID_DIGESTS = {"runs.csv": "af561f12ce0e590a033220edbf46de63"
                            "d12d258ce501df27cfdd2962a4f962f4",
                "steps.csv": "a479a67cc20b09efffc079958ffbb782"
                             "06f671f9b1638fa6fbe73955b03ca9d2",
                "stdout": "5f7c3c61817cc2741c637247565e04f5"
                          "298da2bb884e32281878d51385b6470b"}

# analyze --factors F of the grid above -> {output: sha256}; stderr holds
# the cell count lines
ANALYZE_CASES = {
    "error_rate,layers":
        {"regression.csv": "db05fc5b6ee6d2ca1506c3ab84e8af8e"
                           "debd4657bfd37df3f68b47f11e389238",
         "stdout": "bdaaca95c039358298fa307f686dcbaf"
                   "b688b845c6db60b2550d068bdc250fc9",
         "stderr": "7959b2596386d992b8ec9384f4626975"
                   "4a86550b191526c478af593a26221a95"},
    "learning_rate,layers":
        {"regression.csv": "d10581fbf7041be4ed64b8f41a16f74d"
                           "4a56bf3adf94229aabec7dea6e412522",
         "stdout": "da13b4d25afa284230607aaa203625ab"
                   "475bb6ebdc22abb7836e550feb8b3f03",
         "stderr": "049d0813ebded140ae4185e8419b4176"
                   "a4265aaf2e36c1dff960bd6b5153902e"},
}

#: The OpenBLAS configuration the learner's digests were recorded on, as the
#: library reports it at run time.  numpy's show_config names the build
#: target of this DYNAMIC_ARCH build (Haswell); the core it runs, and so a
#: dgemm's last bits, is picked for the CPU when the library loads.
RECORDED_BLAS = ("OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
                 "NO_AFFINITY SkylakeX MAX_THREADS=64")


def runtime_blas():
    """The configuration string of the OpenBLAS that numpy ships and runs,
    read through ctypes, or None where no such library reports one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            config = ctypes.CDLL(str(path)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        config.argtypes, config.restype = [], ctypes.c_char_p
        return config().decode()
    return None


RUNTIME_BLAS = runtime_blas()
on_recorded_blas = pytest.mark.skipif(
    RUNTIME_BLAS != RECORDED_BLAS,
    reason=f"learner digests were recorded on {RECORDED_BLAS!r}; this host "
    + (f"runs {RUNTIME_BLAS!r}" if RUNTIME_BLAS else
       "has no scipy_openblas_get_config64_ in numpy.libs to read"))


def digests(argv, out_dir):
    """Run one command in-process into out_dir, check that it exits 0, and
    return {output: sha256} of its CSVs, its stdout and any stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert cli_run([*argv, "--out-dir", str(out_dir)]) == 0
    outputs = {"stdout": out.getvalue().encode()}
    if err.getvalue():
        outputs["stderr"] = err.getvalue().encode()
    outputs.update((p.name, p.read_bytes()) for p in out_dir.iterdir())
    return {key: hashlib.sha256(data).hexdigest()
            for key, data in outputs.items()}


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_recorded_digests(name, tmp_path):
    argv, expected = CASES[name]
    assert digests(argv, tmp_path) == expected


@on_recorded_blas
@pytest.mark.parametrize("name", TRAIN_CASES)
def test_train_outputs_match_recorded_digests(name, tmp_path):
    argv, expected = TRAIN_CASES[name]
    assert digests(argv, tmp_path) == expected


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """grid --reps 2 --jobs 2, run once: (its --out-dir, its digests)."""
    out_dir = tmp_path_factory.mktemp("grid")
    return out_dir, digests(("grid", "--reps", "2", "--jobs", "2"), out_dir)


@on_recorded_blas
def test_grid_outputs_match_recorded_digests(grid):
    assert grid[1] == GRID_DIGESTS


@on_recorded_blas
@pytest.mark.parametrize("factors", ANALYZE_CASES)
def test_analyze_outputs_match_recorded_digests(factors, grid, tmp_path):
    argv = ("analyze", "--runs", str(grid[0] / "runs.csv"),
            "--factors", factors)
    assert digests(argv, tmp_path) == ANALYZE_CASES[factors]
