"""The repo's benchmark: four workloads over the TCP runtime and the
simulator, timed in reference seconds.  See README.md in this directory."""
