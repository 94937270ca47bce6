"""Set-up probe: a fresh process that does what every ``fklab deficit``
call pays before its first row -- import fklab and prepare the matched
disk references -- then prints the finest reference as one JSON line.

Launched by ``run.py``, which times it from process launch to that line:

    python3 perfbench/probe.py '[32, 64, 128]' '[1.5, 2.0, 3.0]'
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fklab import cli, stability  # noqa: E402,F401  (cli: what `fklab deficit` loads)

levels, q_list = json.loads(sys.argv[1]), json.loads(sys.argv[2])
stability.prepare_disk_references(levels, q_list)
ref = stability.disk_data(levels[-1])
print(json.dumps({"energy": ref.energy(), "eigenvalue": ref.eigenvalue()}),
      flush=True)
