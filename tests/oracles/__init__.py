"""Reference implementations the tests compare ``src/`` against.

Each module here is the straightforward whole-mesh algorithm that a
faster one in ``repro`` replaced; nothing in ``src/`` imports them.
"""
