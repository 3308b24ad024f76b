#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace dfly {

class Engine;

/// One scheduled occurrence. Events carry a small fixed payload (two 64-bit
/// words plus a kind tag) instead of a closure so that scheduling never
/// allocates; components interpret (kind, a, b) themselves.
struct Event {
  SimTime when{0};
  std::uint64_t seq{0};  ///< FIFO tie-break among same-time events.
  class Component* target{nullptr};
  std::uint32_t kind{0};
  std::uint64_t a{0};
  std::uint64_t b{0};
};

/// Anything that can receive events from the engine.
///
/// Components are owned by their containing subsystem (network, job, ...);
/// the engine only borrows pointers, so a component must outlive every event
/// scheduled against it (subsystems guarantee this by draining the engine
/// before teardown).
class Component {
 public:
  Component() = default;
  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;
  virtual ~Component() = default;

  virtual void handle(Engine& engine, const Event& event) = 0;
};

}  // namespace dfly
