"""Golden report digests: one small pinned config per subcommand.

Reports are byte-identical for identical (config, seed), and a refactor must
keep them so.  A digest change here is a report change: explain it in
CHANGES.md and record the new digest.
"""

import contextlib
import hashlib
import io

import pytest

from laplace_stein import cli

RADC = "1.4142135623730951"   # sqrt(2)
UNIC = "2.449489742783178"    # sqrt(6)

GOLDEN = {
    "stein-check": (
        ["stein-check", "--b", "0.5,1"],
        "9f1501f5d435c017f517b00d8193317294443d63e67c92925057c65ddb2ef190"),
    "transform-check": (
        ["transform-check", "--source", "uniform", "--c", UNIC,
         "--n", "20000", "--seed", "5"],
        "be85c407d66c6aa22f42358220a7f37f2cd67e672772adb2f5103486cea1cebf"),
    "fixed-point": (
        ["fixed-point", "--b", "1", "--n", "20000", "--seed", "3"],
        "697e01689fed2a98be92e7c5b927526e36614483837991f5584eedeaa69984dd"),
    "sweep-csv": (
        ["sweep", "--source", "rademacher", "--c", RADC, "--b", "1",
         "--p", "0.2,0.05", "--n", "4000", "--seed", "7"],
        "1164351d20e8b0b10a2e4db22c33d70b92a511759ca8670ce38b5a54e11e8288"),
    "sweep-json": (
        ["sweep", "--source", "uniform", "--c", UNIC, "--b", "1",
         "--p", "0.3,0.1", "--n", "2000", "--seed", "3", "--format", "json"],
        "0c37c184747be22853ec2badeb4a32910e013d8804757fa7cc5f970abd8c2f0f"),
    "bounds-fixed": (
        ["bounds", "--source", "rademacher", "--c", "1", "--index", "fixed",
         "--k", "3", "--scales", "1,2"],
        "4af0e1023062e8df98f329b4a03823f84a1b219706b06c521b2c9f0d0df66ab0"),
    "bounds-geometric": (
        ["bounds", "--source", "laplace", "--c", "1", "--p", "0.2,0.05",
         "--coupling", "independent"],
        "a621c2b280221cd9abee731db6b07ca6f12a553f9527da26e2f66391c47124ff"),
    # k = 1: the index-gap correlation is a plain product, not an FFT
    "bounds-fixed-k1": (
        ["bounds", "--index", "fixed", "--k", "1", "--coupling",
         "independent"],
        "76e7e00a58b96cd62f8adf50ec6b274112648f86f73bc0ea9bed10d23f41592f"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    argv, digest = GOLDEN[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
