// Execution traces: an optional, low-overhead record of every delivery in a
// World, for debugging, message-complexity accounting, and execution
// visualization. Enabled per-World; cloned Worlds inherit the setting and
// the trace so far (a probe's trace diverges from its parent's, like
// everything else).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.h"
#include "common/ids.h"

namespace memu {

struct TraceEvent {
  std::uint64_t step = 0;
  ChannelId chan;
  std::string_view type_name;  // MessagePayload::type_name(): static
  StateBits size;
  bool dropped = false;  // delivered to a crashed node
};

class Trace {
 public:
  void record(TraceEvent e) { events_.push_back(std::move(e)); }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  // Deliveries per message type.
  std::map<std::string, std::size_t> count_by_type() const {
    std::map<std::string, std::size_t> out;
    for (const auto& e : events_) ++out[std::string(e.type_name)];
    return out;
  }

  // Total bits moved over the network, split value/metadata.
  StateBits bits_moved() const {
    StateBits total;
    for (const auto& e : events_) total += e.size;
    return total;
  }

  std::size_t dropped_count() const {
    std::size_t n = 0;
    for (const auto& e : events_)
      if (e.dropped) ++n;
    return n;
  }

  void print(std::ostream& os, std::size_t limit = 50) const {
    std::size_t shown = 0;
    for (const auto& e : events_) {
      if (shown++ >= limit) {
        os << "... (" << events_.size() - limit << " more)\n";
        return;
      }
      os << "[" << e.step << "] " << e.chan << " " << e.type_name << " ("
         << e.size.total() << "b)" << (e.dropped ? " DROPPED" : "") << '\n';
    }
  }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace memu
