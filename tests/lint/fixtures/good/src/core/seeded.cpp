#include <chrono>
#include <cstdint>

namespace fixture {

// The sanctioned pattern: a counter-based stream seeded from StudyConfig.
struct Rng {
  std::uint64_t state{1};
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  }
};

// "std::rand()" inside a string literal must not fire, nor a comment naming
// std::getenv("X").
const char* kDoc = "never call std::rand(), getenv() or std::chrono::system_clock";

// An allow on the line above suppresses a single deliberate use:
double stamp_ms() {
  // dfsim-lint: allow(det-clock) fixture: timing metadata, never output bytes
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t.time_since_epoch()).count();
}

}  // namespace fixture
