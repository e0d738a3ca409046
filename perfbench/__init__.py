"""The qadb benchmark: see README.md."""
