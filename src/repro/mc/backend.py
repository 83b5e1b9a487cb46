"""Pluggable array-API backends for the Monte-Carlo hot path.

Every hot-path kernel in :mod:`repro.mc` takes an explicit ``xp``
namespace and restricts itself to operations in the Python array-API
standard, so the same code runs on numpy (the committed-document
reference) or the ``array-api-strict`` conformance namespace.  This
module is the resolution layer between a *backend name* (what specs,
the CLI and ``REPRO_BACKEND`` carry) and the namespace object the
kernels consume:

* :func:`get_namespace` maps a backend name or an array to its
  namespace.
* :data:`BACKENDS` is the registry of :class:`ArrayBackend` entries —
  ``numpy`` and ``array-api-strict`` are always present.
* :func:`default_backend` honours the ``REPRO_BACKEND`` environment
  variable and falls back to ``numpy``.

**The numpy-only escape hatch.**  The array-API standard deliberately
omits random number generation, so every random draw in the hot path
stays on ``numpy.random.Generator`` and is converted with
``xp.asarray(...)`` at the kernel boundary.  This is a feature, not a
limitation: because the draws are bit-identical regardless of backend,
two backends that agree on deterministic arithmetic produce
float-identical sweep results — which is exactly what the
backend-parity test suite asserts.

When the real ``array-api-strict`` package is not installed, a name
``array-api-strict`` is still registered, backed by an internal
whitelist proxy over numpy (:class:`_StrictNamespace`) that raises
``AttributeError`` for any name outside the standard.  It catches the
same accidental numpy-isms without adding a dependency; the CI job
installs the real package and runs the kernel suite under it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "backend_names",
    "default_backend",
    "get_backend",
    "get_namespace",
    "resolve_engine_backend",
    "resolve_namespace",
    "to_numpy",
]

#: Environment variable consulted by :func:`default_backend`.
ENV_VAR = "REPRO_BACKEND"

#: Names of the 2023.12/2024.12 array-API standard that the strict shim
#: exposes.  Everything else raises ``AttributeError`` — the same
#: failure mode as the real ``array-api-strict`` package, which is the
#: point: kernels written against the shim cannot silently lean on
#: numpy extensions such as ``ravel`` or fancy multi-axis indexing.
_ARRAY_API_NAMES = frozenset(
    {
        # creation
        "arange", "asarray", "empty", "empty_like", "eye", "from_dlpack", "full",
        "full_like", "linspace", "meshgrid", "ones", "ones_like", "tril", "triu",
        "zeros", "zeros_like",
        # manipulation
        "broadcast_arrays", "broadcast_to", "concat", "expand_dims", "flip",
        "moveaxis", "permute_dims", "repeat", "reshape", "roll", "squeeze",
        "stack", "tile", "unstack",
        # element-wise
        "abs", "acos", "acosh", "add", "asin", "asinh", "atan", "atan2", "atanh",
        "bitwise_and", "bitwise_invert", "bitwise_left_shift", "bitwise_or",
        "bitwise_right_shift", "bitwise_xor", "ceil", "clip", "conj", "copysign",
        "cos", "cosh", "divide", "equal", "exp", "expm1", "floor", "floor_divide",
        "greater", "greater_equal", "hypot", "imag", "isfinite", "isinf", "isnan",
        "less", "less_equal", "log", "log1p", "log2", "log10", "logaddexp",
        "logical_and", "logical_not", "logical_or", "logical_xor", "maximum",
        "minimum", "multiply", "negative", "nextafter", "not_equal", "positive",
        "pow", "real", "reciprocal", "remainder", "round", "sign", "signbit",
        "sin", "sinh", "sqrt", "square", "subtract", "tan", "tanh", "trunc",
        # statistical / reduction
        "all", "any", "argmax", "argmin", "count_nonzero", "cumulative_prod",
        "cumulative_sum", "max", "mean", "min", "prod", "std", "sum", "var",
        # searching / sorting / sets
        "argsort", "nonzero", "searchsorted", "sort", "unique_all",
        "unique_counts", "unique_inverse", "unique_values", "where",
        # indexing
        "take", "take_along_axis",
        # linear algebra
        "matmul", "matrix_transpose", "tensordot", "vecdot",
        # data types
        "astype", "can_cast", "finfo", "iinfo", "isdtype", "result_type",
        "bool", "complex64", "complex128", "float32", "float64",
        "int8", "int16", "int32", "int64",
        "uint8", "uint16", "uint32", "uint64",
        # constants
        "e", "inf", "nan", "newaxis", "pi",
    }
)


class _StrictNamespace:
    """Whitelist proxy over numpy exposing only array-API names.

    Arrays flowing through it remain plain ``numpy.ndarray``, so results
    are bit-identical to the numpy backend by construction — the shim
    constrains the *operation set*, not the arithmetic.
    """

    __array_api_version__ = "2023.12"

    def __getattr__(self, name: str) -> Any:
        if name in _ARRAY_API_NAMES:
            try:
                return getattr(np, name)
            except AttributeError as exc:  # pragma: no cover - numpy too old
                raise AttributeError(
                    f"installed numpy lacks array-API name {name!r}; numpy >= 2.0 required"
                ) from exc
        raise AttributeError(
            f"{name!r} is not part of the array-API standard "
            "(strict backend shim; use a portable operation)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<repro.mc.backend strict array-API shim over numpy>"


@dataclass(frozen=True)
class ArrayBackend:
    """One registered array-API backend.

    Attributes
    ----------
    name:
        Registry key — what ``--backend``, ``REPRO_BACKEND`` and the
        spec/envelope ``backend`` field carry.
    xp:
        The array namespace handed to kernels.
    description:
        One line for ``python -m repro backends``.
    to_numpy:
        Converter from this backend's arrays to ``numpy.ndarray`` —
        applied at the driver boundary so payloads always serialise.
    simulated:
        True when the entry is backed by the internal shim rather than
        the real package of that name.
    """

    name: str
    xp: Any
    description: str
    to_numpy: Callable[[Any], np.ndarray] = field(default=np.asarray)
    simulated: bool = False


def _generic_to_numpy(array: Any) -> np.ndarray:
    """Best-effort conversion of any backend's array to numpy."""
    if isinstance(array, np.ndarray):
        return array
    for convert in (np.asarray, np.from_dlpack):
        try:
            return np.asarray(convert(array))
        except (TypeError, RuntimeError, BufferError):
            continue
    unwrapped = getattr(array, "_array", None)  # array_api_strict internals
    if isinstance(unwrapped, np.ndarray):
        return unwrapped
    raise TypeError(f"cannot convert {type(array).__name__} to numpy")


def _register_backends() -> dict[str, ArrayBackend]:
    backends: dict[str, ArrayBackend] = {
        "numpy": ArrayBackend(
            name="numpy",
            xp=np,
            description=f"numpy {np.__version__} — CPU reference (committed documents)",
        )
    }
    try:
        import array_api_strict  # type: ignore[import-not-found]

        backends["array-api-strict"] = ArrayBackend(
            name="array-api-strict",
            xp=array_api_strict,
            description=(
                f"array_api_strict {getattr(array_api_strict, '__version__', '?')}"
                " — standard-conformance namespace (numpy-backed)"
            ),
            to_numpy=_generic_to_numpy,
        )
    except ImportError:
        backends["array-api-strict"] = ArrayBackend(
            name="array-api-strict",
            xp=_StrictNamespace(),
            description="internal strict shim over numpy — array-API whitelist, numpy arrays",
            simulated=True,
        )
    return backends


#: The backend registry: ``numpy`` plus ``array-api-strict`` (the real
#: package when it imports, else simulated by the internal shim so the
#: conformance path always exists).
BACKENDS: dict[str, ArrayBackend] = _register_backends()


def backend_names() -> tuple[str, ...]:
    """Registered backend names, ``numpy`` first."""
    return tuple(sorted(BACKENDS, key=lambda name: (name != "numpy", name)))


def get_backend(name: str | None = None) -> ArrayBackend:
    """Look up a backend by name (``None`` → :func:`default_backend`)."""
    if name is None:
        return default_backend()
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown array backend {name!r}; registered: {list(backend_names())}"
        ) from None


def default_backend() -> ArrayBackend:
    """The backend named by ``REPRO_BACKEND``, else ``numpy``.

    The environment variable is read on every call (not cached) so test
    fixtures and subprocess workers observe changes immediately.
    """
    name = os.environ.get(ENV_VAR, "").strip()
    if not name:
        return BACKENDS["numpy"]
    return get_backend(name)


def get_namespace(name_or_array: Any) -> Any:
    """Resolve a backend name or an array to its array namespace.

    Accepts a registered backend name (``"numpy"``,
    ``"array-api-strict"``, ...), ``None`` (the default backend), any
    object implementing ``__array_namespace__``, or a plain numpy
    array.
    """
    if name_or_array is None:
        return default_backend().xp
    if isinstance(name_or_array, str):
        return get_backend(name_or_array).xp
    if isinstance(name_or_array, np.ndarray):
        return np
    namespace = getattr(name_or_array, "__array_namespace__", None)
    if namespace is not None:
        return namespace()
    raise ConfigurationError(
        f"cannot resolve an array namespace from {type(name_or_array).__name__!r}; "
        "pass a registered backend name or an array-API array"
    )


def resolve_namespace(xp: Any) -> Any:
    """Normalise a kernel's ``xp`` argument to a namespace object.

    Kernels accept ``xp=None`` (default backend), a backend name, or a
    namespace directly — this helper funnels all three to a namespace.
    """
    if xp is None:
        return default_backend().xp
    if isinstance(xp, str):
        return get_backend(xp).xp
    return xp


def resolve_engine_backend(
    experiment: str,
    engine: str,
    backend: str | None,
    *,
    accelerated: tuple[str, ...] = ("batch",),
) -> Any:
    """Namespace for a driver's ``backend`` parameter, engine-checked.

    Scalar (per-realisation loop) engines are numpy-only by construction,
    so a non-numpy backend combined with one is a configuration error
    rather than a silent fallback.  Returns the namespace for *backend*
    (``None`` → the default backend).
    """
    name = backend if backend is not None else default_backend().name
    if name != "numpy" and engine not in accelerated:
        raise ConfigurationError(
            f"experiment {experiment!r}: engine {engine!r} runs on numpy only; "
            f"backend {name!r} requires one of {list(accelerated)}"
        )
    return get_namespace(name)


def to_numpy(array: Any) -> np.ndarray:
    """Convert any registered backend's array to ``numpy.ndarray``.

    Identity for numpy arrays (including those flowing through the
    strict shim); unwraps real ``array_api_strict`` arrays.  Applied at
    driver boundaries so result payloads always hold numpy arrays.
    """
    return _generic_to_numpy(array)
