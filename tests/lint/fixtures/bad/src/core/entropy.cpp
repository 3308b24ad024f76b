#include <chrono>
#include <cstdlib>
#include <random>

namespace fixture {

int ambient() {
  std::random_device rd;                                     // det-rand
  const auto wall = std::chrono::system_clock::now();        // det-clock
  (void)wall;
  return std::rand() + static_cast<int>(rd());               // det-rand
}

// An ambient switch: behaviour that no flag, config key or report records.
bool reuse_enabled() {
  const char* off = std::getenv("FIXTURE_NO_REUSE");         // det-env
  return off == nullptr && secure_getenv("FIXTURE_NO_SHARING") == nullptr;  // det-env
}

}  // namespace fixture
