"""LD_AUDIT-style library auditing and configuration-driven interception.

Two paper features live here:

* DLMonitor records which address ranges belong to which shared object
  (notably ``libpython.so``) using the dynamic loader's audit interface; the
  call-path integration needs this to detect the C↔Python boundary.
* For hardware whose runtime has no vendor callback mechanism, users can list
  driver function signatures in a configuration file; DLMonitor then
  intercepts exactly those functions via LD_AUDIT bindings and forwards them
  as GPU-domain events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..gpu.runtime import ApiCallbackData, GpuRuntime
from ..native.symbols import LIBPYTHON, AddressSpace


@dataclass
class DriverFunctionConfig:
    """One driver function listed in the user's interception configuration."""

    function: str
    domain: str = "gpu"
    #: Argument names, in order (documentation only; the simulation does not
    #: marshal real arguments).
    signature: List[str] = field(default_factory=list)


def parse_interception_config(config: Dict[str, object]) -> List[DriverFunctionConfig]:
    """Parse the ``functions`` section of an interception configuration dict.

    The accepted shape mirrors what a user would write in a small YAML/JSON
    file::

        {"functions": [{"function": "customLaunchKernel",
                        "signature": ["void* fn", "dim3 grid", "dim3 block"]}]}
    """
    functions = config.get("functions", [])
    parsed: List[DriverFunctionConfig] = []
    for entry in functions:
        if isinstance(entry, str):
            parsed.append(DriverFunctionConfig(function=entry))
            continue
        if not isinstance(entry, dict) or "function" not in entry:
            raise ValueError(f"invalid interception config entry: {entry!r}")
        parsed.append(DriverFunctionConfig(
            function=str(entry["function"]),
            domain=str(entry.get("domain", "gpu")),
            signature=list(entry.get("signature", [])),
        ))
    return parsed


class LibraryAuditor:
    """Tracks loaded libraries and answers boundary queries for integration."""

    def __init__(self, address_space: AddressSpace) -> None:
        self.address_space = address_space
        self._python_pcs: Optional[Tuple[int, int]] = None

    def loaded_libraries(self) -> List[str]:
        return [library.name for library in self.address_space.libraries]

    def python_pc_range(self) -> Tuple[int, int]:
        """libpython's address range ``[start, end)``, empty until it is loaded:
        a native pc inside it is the interpreter's.

        A loaded library never moves, so the range is looked up once.
        """
        if self._python_pcs is None:
            if LIBPYTHON not in self.loaded_libraries():
                return (0, 0)
            library = self.address_space.library(LIBPYTHON)
            self._python_pcs = (library.base, library.end)
        return self._python_pcs

    def library_of(self, pc: int) -> Optional[str]:
        return self.address_space.library_of(pc)


class CustomDriverInterceptor:
    """Intercepts configured driver functions on runtimes without CUPTI/RocTracer.

    The interceptor subscribes to the raw runtime and forwards only the API
    calls whose names appear in the configuration, which is how LD_AUDIT-based
    interception behaves: you get exactly the functions you asked for.
    """

    def __init__(self, runtime: GpuRuntime, configs: List[DriverFunctionConfig]) -> None:
        self.runtime = runtime
        self.functions = {config.function for config in configs}
        self._callback: Optional[Callable[[ApiCallbackData], None]] = None
        self._installed = False
        self.intercepted = 0
        self.skipped = 0

    def install(self, callback: Callable[[ApiCallbackData], None]) -> None:
        self._callback = callback
        if not self._installed:
            self.runtime.subscribe(self._forward)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            self.runtime.unsubscribe(self._forward)
            self._installed = False
        self._callback = None

    def _forward(self, data: ApiCallbackData) -> None:
        if data.api_name not in self.functions:
            self.skipped += 1
            return
        self.intercepted += 1
        if self._callback is not None:
            self._callback(data)
