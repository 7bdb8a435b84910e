"""Layer ledger: the repository's end-to-end benchmark of tiled QR.

``python3 benchmarks/ledger/run.py --seed 0`` runs every workload;
``--workload NAME`` runs one.  See ``README.md`` in this directory.
"""
