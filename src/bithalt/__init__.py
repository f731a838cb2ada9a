"""bithalt: bit-aware halting controller and evaluation harness for budgeted
chunked decoding.

Import library code from its module, for example ``bithalt.engine.run_episode``.
"""

__version__ = "0.1.0"
