"""pulselab benchmark: three workloads driven through ``pulselab.cli.main``.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/NOTES.md`` for what each workload
and metric means.
"""
