"""``python -m benchmarks.e2e``: every workload, each in a child interpreter."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
