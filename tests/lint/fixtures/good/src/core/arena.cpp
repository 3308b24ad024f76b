// An allowlisted worker binding: the same thread_local that fires anywhere
// else is accepted in this one path, and a comment or a string naming
// "thread_local" never fires.
namespace fixture {

struct Arena {};

thread_local Arena* t_current_arena = nullptr;

const char* kDoc = "thread_local is reserved for the worker bindings";

Arena* current() { return t_current_arena; }

}  // namespace fixture
