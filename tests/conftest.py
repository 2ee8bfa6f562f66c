"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.riscv import RV64GC, Assembler
from strategies import DEEP_PROFILE

# Longer seeded run of the semantics checks (CI: --hypothesis-profile=deep
# --hypothesis-seed=0); tests size their budgets through
# strategies.examples().  Tier-1 runs keep the default profile.
settings.register_profile(DEEP_PROFILE, deadline=None)


@pytest.fixture
def assembler() -> Assembler:
    return Assembler(text_base=0x1_0000, arch=RV64GC)
