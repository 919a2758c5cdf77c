#pragma once

namespace gks {

/// Moves the calling thread onto the next CPU of the process's allowed
/// set (round robin over every call in the process), then restores the
/// thread's full affinity mask. Returns the CPU it moved to, or -1 when
/// it did nothing (one allowed CPU, no affinity support, or a failed
/// call).
///
/// A new thread starts on the CPU of the thread that created it. A
/// kernel that does not load-balance the process's cpuset (cgroup
/// cpuset.sched_load_balance=0) never moves a busy thread off that CPU,
/// so a pool of compute threads created in a row can spend a whole job
/// time-sharing one core while the others idle. Calling this first
/// thing in each such thread spreads the pool. It is a starting place,
/// not a pin: the scheduler stays free to move the thread later.
int spread_current_thread();

}  // namespace gks
