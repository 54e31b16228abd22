"""fio-style storage workloads (paper §6.3).

The paper runs phoronix-fio in a 1-vCPU VM: sequential read (seqr),
sequential write (seqwr), random read (rndr) and random write (rndwr),
block sizes 4 KiB–256 KiB, sync I/O engine, on a (non-SR-IOV) SATA-class
device.

Reads are modelled fully synchronously: submit, block, completion
interrupt, resume — every operation is an idle entry/exit pair. Writes
go through a writeback model: the page cache absorbs ``write_batch``
writes (CPU work only), then a blocking flush pushes the batch to the
device — fewer idle transitions per byte, which is the paper's §6.3
explanation for why "read operations benefit the most from paratick".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.config import IoDeviceKind
from repro.errors import WorkloadError
from repro.guest.kernel import GuestKernel
from repro.guest.task import BlockRead, BlockWrite, Run, Task
from repro.workloads.base import Workload

#: fio block sizes the paper sweeps (4kB ... 256kB).
BLOCK_SIZES = (4096, 16384, 65536, 262144)
#: The four categories of Fig. 6.
CATEGORIES = ("seqr", "seqwr", "rndr", "rndwr")

#: Span of the test file for random offsets (4 GiB).
SPAN_BYTES = 4 << 30
#: User-side cycles per 4 KiB page touched (checksum/copy work fio does).
USER_CYCLES_PER_PAGE = 900
#: Fixed user-side cycles per operation.
USER_CYCLES_PER_OP = 3_000
#: Writes absorbed by the page cache before a blocking flush.
WRITE_BATCH = 4


@dataclass(frozen=True)
class FioJob:
    """One fio job description."""

    category: str
    block_size: int

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise WorkloadError(f"unknown fio category {self.category!r}")
        if self.block_size <= 0:
            raise WorkloadError("block size must be positive")

    @property
    def is_read(self) -> bool:
        return self.category.endswith("r") and not self.category.endswith("wr")

    @property
    def is_random(self) -> bool:
        return self.category.startswith("rnd")

    @property
    def name(self) -> str:
        return f"{self.category}.{self.block_size // 1024}k"


class FioWorkload(Workload):
    """A single fio job on a 1-vCPU VM (the paper's §6.3 setup)."""

    io_device = IoDeviceKind.SATA_SSD

    def __init__(self, job: FioJob, *, total_bytes: int = 32 << 20):
        if total_bytes < job.block_size:
            raise WorkloadError("total_bytes smaller than one block")
        self.job = job
        self.total_bytes = total_bytes
        self.ops = total_bytes // job.block_size
        self.name = f"fio.{job.name}"

    def default_vcpus(self) -> int:
        return 1

    def build(self, kernel: GuestKernel) -> list[Task]:
        body = self._read_body(kernel) if self.job.is_read else self._write_body(kernel)
        task = Task(self.name, body, affinity=0)
        kernel.add_task(task)
        return [task]

    # ---------------------------------------------------------------- bodies

    def _offset(self, kernel: GuestKernel, op_index: int) -> int | None:
        """None = sequential (driver continues); random draws are aligned."""
        if not self.job.is_random:
            return None
        slots = SPAN_BYTES // self.job.block_size
        slot = kernel.sim.rng.stream(f"{self.name}.offs").integers(0, slots)
        return slot * self.job.block_size

    def _user_cycles(self, nbytes: int) -> int:
        pages = max(1, -(-nbytes // 4096))
        return USER_CYCLES_PER_OP + pages * USER_CYCLES_PER_PAGE

    def _read_body(self, kernel: GuestKernel) -> Generator:
        bs = self.job.block_size
        for i in range(self.ops):
            yield BlockRead(bs, self._offset(kernel, i))
            yield Run(self._user_cycles(bs))

    def _write_body(self, kernel: GuestKernel) -> Generator:
        """Writeback: CPU-only writes, blocking flush every WRITE_BATCH."""
        bs = self.job.block_size
        pending = 0
        for i in range(self.ops):
            yield Run(self._user_cycles(bs))
            pending += 1
            if pending == WRITE_BATCH:
                yield BlockWrite(bs * pending, self._offset(kernel, i))
                pending = 0
        if pending:
            yield BlockWrite(bs * pending, self._offset(kernel, self.ops))


def job(category: str, block_size: int, *, total_bytes: int = 32 << 20) -> FioWorkload:
    """Convenience constructor: ``job("seqr", 4096)``."""
    return FioWorkload(FioJob(category, block_size), total_bytes=total_bytes)
