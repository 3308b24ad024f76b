#include "sim/engine.hpp"

#include <bit>
#include <cassert>

namespace dfly {

void Engine::schedule_at(SimTime when, Component& target, std::uint32_t kind,
                         std::uint64_t a, std::uint64_t b) {
  assert(when >= now_ && "cannot schedule into the past");
  ++stats_.scheduled_by_kind[EngineStats::slot(kind)];
  queue_.push(when - now_, make_key(when, next_seq_++), Payload{&target, kind, a, b});
  note_queued();
}

// ---------------------------------------------------------------------------
// EventQueue

std::size_t Engine::EventQueue::home_slot(SimTime delay) {
  // Fibonacci hash: the recurring delays are multiples of a few ps
  // constants, so the multiplier's high bits spread them over the table.
  const std::uint64_t mixed = static_cast<std::uint64_t>(delay) * 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(mixed >> 32) & (kSlots - 1);
}

Engine::EventQueue::EventQueue() { reset_lanes(); }

void Engine::EventQueue::reset_lanes() {
  lanes_.fill(Lane{});
  head_key_.fill(kNoKey);
  heads_ = 0;
  slot_lane_.fill(0);
  empty_lanes_ = ~LaneMask{0};
  bound_lanes_ = 0;
  lane_events_ = 0;
  slab_ = 0;
  slab_pos_ = 0;
  free_blocks_ = nullptr;
}

void Engine::EventQueue::clear() {
  heap_keys_.clear();
  heap_loads_.clear();
  reset_lanes();
}

void Engine::EventQueue::add_slab() {
  // Default-initialised: the blocks' pages stay untouched until carved.
  slabs_.push_back(std::unique_ptr<Block[]>(new Block[kLanes << slabs_.size()]));
}

Engine::EventQueue::Block* Engine::EventQueue::take_block() {
  if (free_blocks_ != nullptr) {
    Block* block = free_blocks_;
    free_blocks_ = block->next;
    return block;
  }
  if (slab_ < slabs_.size() && slab_pos_ == kLanes << slab_) {
    ++slab_;
    slab_pos_ = 0;
  }
  if (slab_ == slabs_.size()) add_slab();
  return &slabs_[slab_][slab_pos_++];
}

int Engine::EventQueue::lane_for(SimTime delay) {
  std::size_t slot = home_slot(delay);
  for (; slot_lane_[slot] != 0; slot = (slot + 1) & (kSlots - 1)) {
    if (slot_delay_[slot] == delay) return slot_lane_[slot] - 1;
  }
  // Unbound delay: take an empty lane, preferring one no delay holds, and
  // give up (overflow heap) when every lane has events pending.
  if (empty_lanes_ == 0) return -1;
  const LaneMask unbound = empty_lanes_ & ~bound_lanes_;
  const std::size_t lane =
      static_cast<std::size_t>(std::countr_zero(unbound != 0 ? unbound : empty_lanes_));
  if ((bound_lanes_ >> lane) & 1U) {
    unbind(lane);
    // Deletion may have shifted entries; find the insertion slot afresh.
    slot = home_slot(delay);
    while (slot_lane_[slot] != 0) slot = (slot + 1) & (kSlots - 1);
  }
  slot_delay_[slot] = delay;
  slot_lane_[slot] = static_cast<std::uint8_t>(lane + 1);
  bound_lanes_ |= LaneMask{1} << lane;
  Lane& bound = lanes_[lane];
  bound.delay = delay;
  if (bound.tail == nullptr) bound.head = bound.tail = take_block();
  return static_cast<int>(lane);
}

void Engine::EventQueue::unbind(std::size_t lane) {
  constexpr std::size_t mask = kSlots - 1;
  std::size_t hole = home_slot(lanes_[lane].delay);
  while (slot_lane_[hole] != lane + 1) hole = (hole + 1) & mask;
  // Backward-shift deletion (as in core/flat_map.hpp): move back every entry
  // of the probe run whose home slot does not lie in the cyclic (hole, j].
  for (std::size_t j = (hole + 1) & mask; slot_lane_[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = home_slot(slot_delay_[j]);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slot_delay_[hole] = slot_delay_[j];
      slot_lane_[hole] = slot_lane_[j];
      hole = j;
    }
  }
  slot_lane_[hole] = 0;
  bound_lanes_ &= ~(LaneMask{1} << lane);
}

void Engine::EventQueue::add_head(std::size_t lane, HeapKey key) {
  std::size_t i = heads_++;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (head_key_[parent] < key) break;  // keys are unique: no ties to break
    head_key_[i] = head_key_[parent];
    head_lane_[i] = head_lane_[parent];
    i = parent;
  }
  head_key_[i] = key;
  head_lane_[i] = static_cast<std::uint8_t>(lane);
}

void Engine::EventQueue::sift_head_down(std::size_t lane, HeapKey key) {
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heads_) break;
    if (child + 1 < heads_ && head_key_[child + 1] < head_key_[child]) ++child;
    if (key < head_key_[child]) break;
    head_key_[i] = head_key_[child];
    head_lane_[i] = head_lane_[child];
    i = child;
  }
  head_key_[i] = key;
  head_lane_[i] = static_cast<std::uint8_t>(lane);
}

void Engine::EventQueue::push(SimTime delay, HeapKey key, const Payload& load) {
  const int index = lane_for(delay);
  if (index < 0) {
    push_heap(key, load);
    return;
  }
  const std::size_t lane_index = static_cast<std::size_t>(index);
  Lane& lane = lanes_[lane_index];
  if (lane.tail_pos == kBlockEvents) {
    Block* block = take_block();
    lane.tail->next = block;
    lane.tail = block;
    lane.tail_pos = 0;
  }
  lane.tail->items[lane.tail_pos++] = Entry{key, load};
  ++lane_events_;
  const LaneMask bit = LaneMask{1} << lane_index;
  if ((empty_lanes_ & bit) != 0) {
    // Lanes only ever append larger keys, so only the first event of an
    // empty lane changes the lane's head.
    empty_lanes_ &= ~bit;
    add_head(lane_index, key);
  }
}

Engine::Entry Engine::EventQueue::pop_lane(std::size_t lane_index) {
  Lane& lane = lanes_[lane_index];
  const Entry entry = lane.head->items[lane.head_pos++];
  --lane_events_;
  if (lane.head == lane.tail && lane.head_pos == lane.tail_pos) {
    lane.head_pos = 0;
    lane.tail_pos = 0;
    empty_lanes_ |= LaneMask{1} << lane_index;
    // The lane leaves the lane heap: the last head takes the root's place.
    if (--heads_ == 0) {
      head_key_[0] = kNoKey;
    } else {
      sift_head_down(head_lane_[heads_], head_key_[heads_]);
    }
    return entry;
  }
  if (lane.head_pos == kBlockEvents) {
    Block* spent = lane.head;
    lane.head = spent->next;
    lane.head_pos = 0;
    spent->next = free_blocks_;
    free_blocks_ = spent;
  }
  sift_head_down(lane_index, lane.head->items[lane.head_pos].key);
  return entry;
}

Engine::Entry Engine::EventQueue::pop_front() {
  if (!heap_keys_.empty() && heap_keys_.front() < head_key_[0]) return pop_heap();
  return pop_lane(head_lane_[0]);
}

void Engine::EventQueue::push_heap(HeapKey key, const Payload& load) {
  // Grow both arrays together (and skip the tiny-doubling phase) so the two
  // vectors reallocate in lockstep instead of twice as often as one.
  if (heap_keys_.size() == heap_keys_.capacity()) {
    const std::size_t cap = heap_keys_.empty() ? 256 : heap_keys_.size() * 2;
    heap_keys_.reserve(cap);
    heap_loads_.reserve(cap);
  }
  heap_keys_.push_back(key);
  heap_loads_.push_back(load);
  sift_up(heap_keys_.size() - 1);
}

Engine::Entry Engine::EventQueue::pop_heap() {
  const Entry top{heap_keys_.front(), heap_loads_.front()};
  const std::size_t last = heap_keys_.size() - 1;
  if (last > 0) {
    // Bottom-up pop (the std::pop_heap strategy, on 4 lanes): sink the root
    // hole to a leaf by promoting the smallest child of each level — no
    // comparisons against the displaced back element, which is leaf-sized
    // and would lose almost every one — then drop the back element into the
    // leaf hole and sift it up the few levels it actually belongs.
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = 4 * hole + 1;
      if (first >= last) break;
      const std::size_t end = first + 4 < last ? first + 4 : last;
      // Keep the running minimum in a register: the four child loads are
      // independent and pipeline, instead of each compare re-loading
      // heap_keys_[best] behind the previous selection.
      std::size_t best = first;
      HeapKey best_key = heap_keys_[first];
      for (std::size_t child = first + 1; child < end; ++child) {
        const HeapKey child_key = heap_keys_[child];
        if (child_key < best_key) {
          best = child;
          best_key = child_key;
        }
      }
      heap_keys_[hole] = best_key;
      heap_loads_[hole] = heap_loads_[best];
      hole = best;
    }
    heap_keys_[hole] = heap_keys_[last];
    heap_loads_[hole] = heap_loads_[last];
    sift_up(hole);
  }
  heap_keys_.pop_back();
  heap_loads_.pop_back();
  return top;
}

void Engine::EventQueue::sift_up(std::size_t i) {
  const HeapKey key = heap_keys_[i];
  const Payload load = heap_loads_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (key >= heap_keys_[parent]) break;
    heap_keys_[i] = heap_keys_[parent];
    heap_loads_[i] = heap_loads_[parent];
    i = parent;
  }
  heap_keys_[i] = key;
  heap_loads_[i] = load;
}

// ---------------------------------------------------------------------------

void Engine::dispatch(const Entry& entry) {
  const SimTime when = key_when(entry.key);
  now_ = when;
  ++executed_;
  ++stats_.executed_by_kind[EngineStats::slot(entry.load.kind)];
  const Event event{when,         key_seq(entry.key), entry.load.target,
                    entry.load.kind, entry.load.a,    entry.load.b};
  entry.load.target->handle(*this, event);
}

std::uint64_t Engine::run(SimTime until) {
  if (until < 0) return 0;  // event times are never negative
  const HeapKey limit = make_key(until, ~std::uint64_t{0});
  std::uint64_t count = 0;
  // The empty queue's front key exceeds every limit, so this also stops on
  // drain. The watchdog check precedes the pop: a deadline that fires leaves
  // the event queued.
  while (queue_.front_key() <= limit) {
    check_wall_deadline();
    dispatch(queue_.pop_front());
    ++count;
  }
  // Time only advances with events: when the queue drains before `until`,
  // now() stays at the last executed event (see header).
  return count;
}

}  // namespace dfly
