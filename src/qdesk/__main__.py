import gc
import sys

from .cli import main

# What the imports made lives until exit: frozen, the collector skips it in
# every later full collection and in the one at shutdown.  Only the process
# entry freezes; an in-process main() keeps normal collection.
gc.freeze()
sys.exit(main())
