"""Persistence store and recovery (paper section 5.3: "We are also
incorporating a persistence store and recovery from a variety of failures
into the algorithms of DECAF"); :mod:`repro.persist.store` has the design."""

from repro.persist.store import CheckpointError, checkpoint_site, restore_site

__all__ = ["CheckpointError", "checkpoint_site", "restore_site"]
