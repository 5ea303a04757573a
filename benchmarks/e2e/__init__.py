"""End-to-end simulator benchmark (see ``README.md`` in this directory)."""
