"""Import specdiff before any test module loads NumPy.

Importing specdiff sets the OpenBLAS thread timeout (specdiff/__init__.py), which
each bundled OpenBLAS reads once, when it loads.  The test modules import NumPy
first, so without this import the suite would run with the default timeout.
"""

import specdiff  # noqa: F401
