"""The benchmark's workloads, by name.  Each module has `build(k, seed)`."""

from workloads import bisim, compiled_fn, io_stream, realize

WORKLOADS = {
    "compiled_fn": compiled_fn,
    "io_stream": io_stream,
    "bisim": bisim,
    "realize": realize,
}

# Which workload supplies replay inputs a workload does not harvest itself.
OWNERS = {
    "functions": "compiled_fn",
    "numerals": "compiled_fn",
    "bisim_pairs": "bisim",
    "top_pairs": "bisim",
    "scenarios": "realize",
    "members": "realize",
    "member_calls": "realize",
}
