// CPU affinity pinning.
//
// The paper's headline observation is that the LF/WF performance ratio is
// "intimately related to the system configuration" — scheduling policy and
// thread placement in particular. Pinning on/off is the one placement knob
// portable to our hardware, so the benches expose it (--pin).
#pragma once

#include <cstdint>

namespace kpq {

/// Pin the calling thread to `cpu % hardware_concurrency`. Returns false if
/// unsupported or the syscall failed (callers treat pinning as best-effort).
bool pin_to_cpu(std::uint32_t cpu) noexcept;

/// Number of online CPUs (>= 1).
std::uint32_t online_cpus() noexcept;

}  // namespace kpq
