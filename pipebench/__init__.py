"""End-to-end benchmark of the spreader monitor and the estimate service.

Run ``python3 pipebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``pipebench/README.md``.
"""
