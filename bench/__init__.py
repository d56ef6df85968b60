"""The repo's benchmark: four workloads measured from outside the program.

``python3 -m bench.run`` is the one entry point (see ``bench/README.md``
and ``BENCHMARK.json``).  Nothing here is imported by ``src/``; the
benchmark times calls into the public functions of each layer and adds
no span, counter, switch or environment variable to the program.
"""
