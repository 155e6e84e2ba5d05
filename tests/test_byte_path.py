"""One byte path: a second encode/decode executor cannot come back unnoticed.

Every byte-moving encode and decode runs :func:`repro.ec.kernels.apply_rows`
over the region kernels of :mod:`repro.gf.field`.  This lint fails if any
module under ``src/repro/`` other than those two calls the unchecked
region kernels ``mul_flat`` / ``xor_flat``, or if bit-plane packing
(``packbits`` / ``unpackbits``) appears outside the ``_reference_*``
bit-plane helpers the XOR-only reference and the schedules run on.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
KERNEL_HOMES = {Path("gf/field.py"), Path("ec/kernels.py")}
REGION_KERNELS = {"mul_flat", "xor_flat"}
BIT_PLANES = {"packbits", "unpackbits"}


def violations(source: str, kernel_home: bool = False) -> list[tuple[int, str]]:
    """``(line, name)`` of every region-kernel call (unless ``kernel_home``)
    and every bit-plane name outside a ``_reference_*`` function."""
    found = []

    def visit(node: ast.AST, in_reference: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_reference = in_reference or node.name.startswith("_reference_")
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        if name in BIT_PLANES and not in_reference:
            found.append((node.lineno, name))
        if (
            name in REGION_KERNELS
            and not kernel_home
            and isinstance(node, (ast.Attribute, ast.Name))
        ):
            found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, in_reference)

    visit(ast.parse(source), False)
    return found


def test_the_lint_finds_a_second_executor():
    assert violations("field.mul_flat(c, src, dst)")
    assert violations("self.field.xor_flat(product, acc)")
    assert violations("import numpy as np\nnp.packbits(bits)")
    assert violations("from numpy import unpackbits")
    assert violations("def decompose(block):\n    return np.packbits(block)")
    assert not violations("def _reference_split(block):\n    return np.packbits(block)")
    assert not violations("field.mul_flat(c, src, dst)", kernel_home=True)
    assert not violations("apply_rows(field, matrix, sources, out)")


def test_every_byte_path_runs_the_one_kernel():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in violations(
            path.read_text(encoding="utf-8"),
            kernel_home=path.relative_to(SRC) in KERNEL_HOMES,
        )
    ]
    assert offenders == []
