"""The numeric backend: every kernel in ``_kernels`` is plain NumPy."""


def backend_name() -> str:
    return "numpy"
