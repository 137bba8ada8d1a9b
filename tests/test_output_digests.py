"""Byte identity of the outputs that involve no linear algebra.

`simulate` runs no BLAS call and `baseline` builds no agent, so the bytes
of their CSVs and stdout do not depend on the host's BLAS core.  Each case
runs one command in-process and compares the sha256 of every CSV it writes
and of its stdout with the digests recorded in BENCH_19.json
(`byte_identity.digests`, the `sim*` and `base_*` entries).  A byte change
in `netsim`, `env`, `experiments` or the CSV writer fails here.
"""

import hashlib

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


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_recorded_digests(name, tmp_path, capsys):
    argv, expected = CASES[name]
    assert cli_run([*argv, "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    outputs = {"stdout": captured.out.encode()}
    outputs.update((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    got = {key: hashlib.sha256(data).hexdigest()
           for key, data in outputs.items()}
    assert got == expected
