"""Error categories shared across the package; the CLI maps each to its exit code."""


class ConfigError(Exception):
    """Invalid run parameters, or an invalid or unreadable configuration file or recipe."""


class DataError(Exception):
    """Invalid or unreadable input data (manifest, design table, recordings), or an unwritable output."""
