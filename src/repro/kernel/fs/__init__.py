"""Concrete filesystems for the simulated kernel.

* :mod:`ramfs` — memory-only, no disk costs; used for CPU-bound experiments.
* :mod:`ext2` — block filesystem over a :class:`~repro.kernel.fs.disk.Disk`
  with a buffer cache; stands in for the paper's Ext2/Ext3/Reiserfs targets.
* :mod:`wrapfs` — the stackable pass-through filesystem the Kefence and
  KGCC evaluations instrument.
* :mod:`libfs` — the directory operations ramfs and ext2 share.
"""

from repro.kernel.fs.disk import Disk, BufferCache
from repro.kernel.fs.ramfs import RamfsSuperBlock
from repro.kernel.fs.ext2 import Ext2SuperBlock
from repro.kernel.fs.wrapfs import WrapfsSuperBlock

__all__ = ["Disk", "BufferCache", "RamfsSuperBlock", "Ext2SuperBlock",
           "WrapfsSuperBlock"]
