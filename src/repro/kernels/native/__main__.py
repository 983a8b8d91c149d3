"""``python -m repro.kernels.native`` — build/inspect helper CLI.

The one entry point of :func:`repro.kernels.native.build._main`
(``--sanitize-env``, ``--build``, ``--cache-key``).
"""

from .build import _main

if __name__ == "__main__":
    raise SystemExit(_main())
