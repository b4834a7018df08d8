"""The repository benchmark: four like-for-like workloads over ``repro.api``.

Run it as its own command (``python3 perfbench/run.py --help``); see
``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric map.
"""
