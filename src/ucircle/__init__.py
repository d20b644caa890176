"""Simulator and algorithms for uniform circle formation by unit-disc robots.

Import from the submodules: `ucircle.harness.run_scenario`,
`ucircle.simcore.run`, `ucircle.global_form`, `ucircle.local_form` and
`ucircle.geometry`.
"""

__version__ = "0.1.0"
