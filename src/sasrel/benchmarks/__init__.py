"""Reference limit states with their probabilistic models and study settings."""

from .registry import BENCHMARK_NAMES, get_benchmark

__all__ = ["BENCHMARK_NAMES", "get_benchmark"]
