"""Mini-CUDA front-end: kernels and launch sites.

A deliberately small surface: enough C-like structure to carry the
five hot kernels.  The parser recognises ``__global__`` function
definitions (with brace-matched bodies), ``__device__`` helpers, and
triple-chevron launch sites, which is exactly what the migration
pipeline needs to operate on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class KernelParam:
    """One parameter of a kernel signature."""

    type: str
    name: str

    @property
    def declaration(self) -> str:
        return f"{self.type} {self.name}"


@dataclass(frozen=True)
class CudaKernel:
    """A parsed ``__global__`` kernel."""

    name: str
    params: tuple[KernelParam, ...]
    body: str
    #: character span of the full definition in the source
    span: tuple[int, int]


@dataclass(frozen=True)
class LaunchSite:
    """A ``kernel<<<grid, block>>>(args);`` call."""

    kernel_name: str
    grid: str
    block: str
    args: str
    span: tuple[int, int]


@dataclass
class ParsedSource:
    """Everything the pipeline needs from one compilation unit."""

    text: str
    kernels: list[CudaKernel] = field(default_factory=list)
    launches: list[LaunchSite] = field(default_factory=list)

    def kernel(self, name: str) -> CudaKernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"no kernel named {name!r}")


class ParseError(ValueError):
    """Raised for malformed mini-CUDA input."""


_KERNEL_RE = re.compile(r"__global__\s+void\s+(\w+)\s*\(", re.MULTILINE)
_LAUNCH_RE = re.compile(
    r"(\w+)\s*<<<\s*([^,>]+?)\s*,\s*([^>]+?)\s*>>>\s*\(", re.MULTILINE
)


def _match_paren(text: str, open_pos: int, open_char: str = "(", close_char: str = ")") -> int:
    """Index just past the matching close for the opener at ``open_pos``."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == open_char:
            depth += 1
        elif c == close_char:
            depth -= 1
            if depth == 0:
                return i + 1
    raise ParseError(f"unbalanced {open_char}...{close_char} starting at {open_pos}")


def _parse_params(raw: str) -> tuple[KernelParam, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    params = []
    for piece in raw.split(","):
        piece = " ".join(piece.split())
        if not piece:
            raise ParseError(f"empty parameter in {raw!r}")
        # the name is the last identifier; everything before is the type
        m = re.match(r"^(.*?)(\w+)$", piece)
        if not m or not m.group(1).strip():
            raise ParseError(f"cannot parse parameter {piece!r}")
        params.append(KernelParam(type=m.group(1).strip(), name=m.group(2)))
    return tuple(params)


def parse_cuda_source(text: str) -> ParsedSource:
    """Parse a mini-CUDA compilation unit."""
    parsed = ParsedSource(text=text)

    for m in _KERNEL_RE.finditer(text):
        name = m.group(1)
        paren_open = m.end() - 1
        paren_close = _match_paren(text, paren_open)
        params = _parse_params(text[paren_open + 1 : paren_close - 1])
        brace_open = text.find("{", paren_close)
        if brace_open == -1:
            raise ParseError(f"kernel {name!r} has no body")
        brace_close = _match_paren(text, brace_open, "{", "}")
        body = text[brace_open + 1 : brace_close - 1]
        parsed.kernels.append(
            CudaKernel(
                name=name,
                params=params,
                body=body,
                span=(m.start(), brace_close),
            )
        )

    for m in _LAUNCH_RE.finditer(text):
        paren_open = m.end() - 1
        paren_close = _match_paren(text, paren_open)
        end = paren_close
        while end < len(text) and text[end] in " \t":
            end += 1
        if end < len(text) and text[end] == ";":
            end += 1
        parsed.launches.append(
            LaunchSite(
                kernel_name=m.group(1),
                grid=m.group(2).strip(),
                block=m.group(3).strip(),
                args=text[paren_open + 1 : paren_close - 1].strip(),
                span=(m.start(), end),
            )
        )
    return parsed
