"""Benchmark for mapchete_xarray_ray; entry point ``perfbench/run.py``."""
