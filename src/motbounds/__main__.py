"""Run the command line with python -m motbounds, without the console script."""
from .cli import main
raise SystemExit(main())
