"""Results do not depend on the BLAS thread count.

OpenBLAS splits a dot product over its threads from about 10k entries, so
a reduction over a rings-128 nodal vector through ``@`` would change its
last bits with the thread count; the solvers sum them by numpy instead
(``fem._dot``).  The products left to BLAS, the small tables of
``asymmetry`` and the moments of ``domain.barycenter``, stay below that
size.  Each run is a fresh interpreter, because OpenBLAS reads
``OPENBLAS_NUM_THREADS`` when it loads.
"""

import os
import subprocess
import sys

import fklab

SRC = os.path.dirname(os.path.dirname(fklab.__file__))

MEMBERS = """
import dataclasses
from fklab import asymmetry, stability
from fklab.domain import barycenter, ellipse
family = {m: d for m, _, _, d in stability.build_family(stability.SweepSpec())}
for name, family_name, param, d in (("ellipse-0.1", "ellipse", 0.1, ellipse(0.1)),
                                    ("random-12", "random", 12.0, family["random-12"])):
    report = stability.evaluate_member(name, family_name, param, d, rings=64,
                                       rings_fine=128)
    for field in dataclasses.fields(report):
        print(name, field.name, repr(getattr(report, field.name)))
    print(name, "fraenkel center", repr(asymmetry.fraenkel(d)[1].tolist()))
    print(name, "barycenter", repr(barycenter(d).tolist()))
"""


def run(code, threads, args=()):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (threads, proc.stderr)
    return proc.stdout


def test_member_fields_at_1_2_and_4_threads():
    outputs = {n: run(MEMBERS, n) for n in (1, 2, 4)}
    assert len(outputs[1].splitlines()) > 40
    for n in (2, 4):
        assert outputs[n] == outputs[1], n


def test_two_worker_sweep_at_2_threads(tmp_path):
    code = "import sys\nfrom fklab.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    csv = {}
    for n in (1, 2):
        csv[n] = tmp_path / f"threads-{n}.csv"
        run(code, n, ["--workers", "2", "--rings", "64", "--rings-fine", "128", "sweep",
                      "random", "--count", "3", "--seed", "7", "--out", str(csv[n])])
    assert len(csv[1].read_text().splitlines()) == 4
    assert csv[2].read_bytes() == csv[1].read_bytes()
