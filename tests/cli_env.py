"""Settings as the CLI reads them from this process's environment.

Only :func:`repro.cli.read_settings` reads ``REPRO_*`` variables; the
engines take explicit values.  Tests whose campaign follows
``REPRO_FAULT_PROFILE`` (so that ``REPRO_FAULT_PROFILE=mild pytest``
injects faults into them) take their config or fault plan from here.
"""

from repro.cli import build_parser, read_settings


def cli_config(*flags: str):
    """The :class:`~repro.core.pipeline.StudyConfig` the CLI builds from ``flags`` and ``os.environ``."""
    return read_settings(build_parser().parse_args(list(flags))).config


def env_fault_plan(seed: int):
    """The fault plan ``REPRO_FAULT_PROFILE`` names, seeded with ``seed`` (``None`` when unset)."""
    return cli_config("--seed", str(seed)).fault_plan
