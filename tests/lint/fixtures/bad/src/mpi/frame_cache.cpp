// Per-thread state that outlives the scope that set it: the next cell on the
// same worker reads whatever the previous cell left behind.
namespace fixture {

struct Pool {};

thread_local Pool* t_current_pool = nullptr;                 // det-tls

Pool* current() {
  static thread_local int calls = 0;                         // det-tls
  ++calls;
  return t_current_pool;
}

}  // namespace fixture
