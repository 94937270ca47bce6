"""Results do not depend on the BLAS thread count.

OpenBLAS splits a dot product over its threads from about 10k entries, so
a reduction over a rings-128 nodal vector through ``@`` would change its
last bits with the thread count; the solvers sum them by numpy instead
(``fem._dot``).  The products left to BLAS, the small tables of
``asymmetry`` and the moments of ``domain.barycenter``, stay below that
size.  The least squares of the meshless torsion energy is a Householder
QR in numpy (``stability._householder_lstsq``): ``numpy.linalg.lstsq``
changed the last bits of the mode-3 and mode-4 energies at s = 0.09
between 1 and 2 threads.  Each run is a fresh interpreter, because
OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when it loads.
"""

import dataclasses
import os
import subprocess
import sys

import fklab
from fklab import stability

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

HELPERS = """
import numpy as np
from fklab import stability
from fklab.domain import StarDomain, ellipse, volume_corrected_profile
print(repr(stability.energy_deficit(ellipse(0.1))))
rng = np.random.default_rng(np.random.SeedSequence(7).spawn(1)[0])
p = stability.random_near_sphere_profile(rng, rng.uniform(*stability.NEAR_SPHERE_SUP))
print(repr(stability.fuglede_margin(p)))
for k in (3, 4):
    print(repr(stability.torsion_energy(StarDomain((0.0, 0.0),
                                                   volume_corrected_profile(k, 0.09)))))
"""


def run(code, threads, args=()):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, (threads, proc.stderr)
    return proc.stdout


def test_member_fields_at_1_2_and_4_threads():
    outputs = {n: run(MEMBERS, n) for n in (1, 2, 4)}
    # every report field and the two extra lines, for each of the two members
    fields = len(dataclasses.fields(stability.DeficitReport))
    assert len(outputs[1].splitlines()) == 2 * (fields + 2)
    for n in (2, 4):
        assert outputs[n] == outputs[1], n


def test_torsion_only_helpers_at_1_2_and_4_threads():
    outputs = {n: run(HELPERS, n) for n in (1, 2, 4)}
    assert len(outputs[1].splitlines()) == 4
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
