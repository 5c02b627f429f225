"""FIPS-197 test vectors.

Appendix A key expansion inputs, Appendix B worked example, and the
Appendix C example vectors for all three key lengths.  These are the
ground truth every AES artifact in the reproduction is validated against:
the MiniPVS specification, the optimized MiniAda implementation, every
refactored intermediate, and the final refactored program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["AESVector", "FIPS197_VECTORS", "APPENDIX_B"]


def _bytes(hex_string: str) -> Tuple[int, ...]:
    clean = hex_string.replace(" ", "").replace("\n", "")
    return tuple(int(clean[i:i + 2], 16) for i in range(0, len(clean), 2))


@dataclass(frozen=True)
class AESVector:
    name: str
    key: Tuple[int, ...]
    plaintext: Tuple[int, ...]
    ciphertext: Tuple[int, ...]

    @property
    def nk(self) -> int:
        return len(self.key) // 4


#: FIPS-197 Appendix C example vectors (PLAINTEXT = 00112233...ff).
FIPS197_VECTORS: List[AESVector] = [
    AESVector(
        name="AES-128 (FIPS-197 C.1)",
        key=_bytes("000102030405060708090a0b0c0d0e0f"),
        plaintext=_bytes("00112233445566778899aabbccddeeff"),
        ciphertext=_bytes("69c4e0d86a7b0430d8cdb78070b4c55a"),
    ),
    AESVector(
        name="AES-192 (FIPS-197 C.2)",
        key=_bytes("000102030405060708090a0b0c0d0e0f1011121314151617"),
        plaintext=_bytes("00112233445566778899aabbccddeeff"),
        ciphertext=_bytes("dda97ca4864cdfe06eaf70a0ec0d7191"),
    ),
    AESVector(
        name="AES-256 (FIPS-197 C.3)",
        key=_bytes("000102030405060708090a0b0c0d0e0f"
                   "101112131415161718191a1b1c1d1e1f"),
        plaintext=_bytes("00112233445566778899aabbccddeeff"),
        ciphertext=_bytes("8ea2b7ca516745bfeafc49904b496089"),
    ),
]

#: FIPS-197 Appendix B worked cipher example (AES-128).
APPENDIX_B = AESVector(
    name="AES-128 (FIPS-197 appendix B)",
    key=_bytes("2b7e151628aed2a6abf7158809cf4f3c"),
    plaintext=_bytes("3243f6a8885a308d313198a2e0370734"),
    ciphertext=_bytes("3925841d02dc09fbdc118597196a0b32"),
)
