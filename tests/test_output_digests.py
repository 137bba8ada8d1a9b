"""Byte identity of every command's outputs against BENCH_26.json.

Each case runs one command in-process and compares the sha256 of every CSV
it writes, of its stdout and, where it writes any, of its stderr with the
digests recorded in BENCH_26.json (`byte_identity.digests`).

`simulate` runs no BLAS call and `baseline` builds no agent, so the bytes
of their outputs do not depend on the host's BLAS core: a byte change in
`netsim`, `env`, `experiments` or the CSV writer fails here on any host.
`train` and `grid` run the learner, whose last bits follow the sgemm
kernel of its float32 networks, and `analyze` fits that grid's runs.  Those cases run only where the
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

# name: (argv, {output: sha256}), copied from BENCH_26.json
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
         "steps.csv": "67ae0407fb846c699a11274cff4efb96"
                      "00e0e4cae2a56a2f95c215b328871333",
         "stdout": "16c779cc2e3c51736f69b156b30822e0"
                   "93af5a1c51dc75afc60f4491ba8beb33"}),
    "train_2_0.2": (
        ("train", "--layers", "2", "--error-rate", "0.2"),
        {"runs.csv": "ea5809bff23ff7f70774136096e04bb0"
                     "d925244df33029c486b3c5921825715f",
         "steps.csv": "59bdab1092e056d4fcc8ee218df75256"
                      "c50e2a0b49308a34397fb76633de1368",
         "stdout": "e426d462e1714a9f4335e854992b9529"
                   "e414e56905f3b8418a9363dc5861bccb"}),
    "train_4_0.0": (
        ("train", "--layers", "4", "--error-rate", "0.0"),
        {"runs.csv": "1861fd0006e030f413b0dc343b0ae9e4"
                     "4cb353eded28a768488a55daf7b66a6e",
         "steps.csv": "00ce8b3df11e3aa1415f9765f9d78892"
                      "654d7c797ebcf91d8ce41221d695cc7e",
         "stdout": "e18a853c8c9e82a7bc696d60661c996d"
                   "3af2bdc0588b363a95f5314d0f573639"}),
    "train_4_0.2": (
        ("train", "--layers", "4", "--error-rate", "0.2"),
        {"runs.csv": "709dff17bf4cefb1761c034ae75cd0d8"
                     "6c37a66c7c73812810dc1ce0b299bbf1",
         "steps.csv": "9412f741fe9d23df0f7932838e6595d9"
                      "9790b58058e4d14573d17fdb1abddc08",
         "stdout": "76afb10fc9f14146041ef8fa8ab39600"
                   "88ebfe1c922a483ecb8204a33843cc28"}),
    "train_8_0.0": (
        ("train", "--layers", "8", "--error-rate", "0.0"),
        {"runs.csv": "c1a3695d92f99eb09757e1efdfc44f4c"
                     "29bce4134fe6e9203df74c9acc87f6aa",
         "steps.csv": "b496800e71ee041a4e997cd50cf72a3e"
                      "26d891dde63f5110e2f392210ecd58ec",
         "stdout": "15a2f02f3936dbd1eb4363b292b92be2"
                   "d1e8ab6f4f293341b406838d56fe977c"}),
    "train_8_0.2": (
        ("train", "--layers", "8", "--error-rate", "0.2"),
        {"runs.csv": "7dab15c432c3e4dbeab3b08865286765"
                     "1c35a6c6a1e695541d4530bcb2c9f513",
         "steps.csv": "c6bb18b2766fbde991b8b108ab84010b"
                      "3cd8fcd1aa9e374822e1cb015a4557ba",
         "stdout": "60453fd7f6173c08baf6ee3635bfcd62"
                   "820a04167689f45882ac05c8fdabd440"}),
}

# grid --reps 2 --jobs 2 -> {output: sha256}
GRID_DIGESTS = {"runs.csv": "e31a08b7c87e477cbde0a2ef411a1068"
                            "e43d65bea1624792321b67062ef46ead",
                "steps.csv": "329411e0026eb5d36ab3ae5eaebb7765"
                             "055f54436b1438abaa2c4019d8c27b57",
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
#: target of this DYNAMIC_ARCH build (Haswell); the core it runs, and so an
#: sgemm's last bits, is picked for the CPU when the library loads.
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
