"""Host-time benchmark of the repro stack (see README.md in this directory)."""
