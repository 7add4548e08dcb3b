#include "diag/warnings.h"

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace rlcx::diag {

namespace {

std::mutex& handler_mutex() {
  static std::mutex m;
  return m;
}

struct HandlerEntry {
  std::uint64_t token;
  WarningHandler handler;
};

// Innermost-wins handler stack.  Guarded by handler_mutex(); emission holds
// the lock through the handler call so a handler writing to a CLI stream
// needs no synchronisation of its own.  Each ScopedWarningHandler removes
// its own entry by token, so handlers installed on different threads may
// be destroyed in any order.
std::vector<HandlerEntry>& handler_stack() {
  static std::vector<HandlerEntry> stack;
  return stack;
}

std::uint64_t next_handler_token = 0;  // guarded by handler_mutex()

// Warn-once dedup state (guarded by handler_mutex()).  The depth counts
// open ScopedWarningDedup scopes process-wide: worker threads emit while a
// scope opened on the *calling* thread is alive, so the state cannot be
// thread-local.  The set and counter reset when the last scope closes.
struct DedupState {
  int depth = 0;
  std::unordered_set<std::string> seen;
  std::size_t suppressed = 0;
};

DedupState& dedup_state() {
  static DedupState s;
  return s;
}

}  // namespace

std::string format_warning(const Warning& w) {
  std::string out = "warning: [";
  out += to_string(w.category);
  out += "] ";
  out += w.stage;
  out += ": ";
  out += w.message;
  return out;
}

void emit_warning(Category category, std::string stage, std::string message) {
  Warning w{category, std::move(stage), std::move(message)};
  std::lock_guard<std::mutex> lock(handler_mutex());
  DedupState& dedup = dedup_state();
  if (dedup.depth > 0 && !dedup.seen.insert(format_warning(w)).second) {
    ++dedup.suppressed;
    return;
  }
  if (!handler_stack().empty()) {
    handler_stack().back().handler(w);
    return;
  }
  std::cerr << format_warning(w) << "\n";
}

ScopedWarningHandler::ScopedWarningHandler(WarningHandler handler) {
  std::lock_guard<std::mutex> lock(handler_mutex());
  token_ = next_handler_token++;
  handler_stack().push_back({token_, std::move(handler)});
}

ScopedWarningHandler::~ScopedWarningHandler() {
  std::lock_guard<std::mutex> lock(handler_mutex());
  std::vector<HandlerEntry>& stack = handler_stack();
  stack.erase(std::find_if(stack.begin(), stack.end(),
                           [this](const HandlerEntry& e) {
                             return e.token == token_;
                           }));
}

ScopedWarningDedup::ScopedWarningDedup() {
  std::lock_guard<std::mutex> lock(handler_mutex());
  ++dedup_state().depth;
}

ScopedWarningDedup::~ScopedWarningDedup() {
  std::lock_guard<std::mutex> lock(handler_mutex());
  DedupState& dedup = dedup_state();
  if (--dedup.depth == 0) {
    dedup.seen.clear();
    dedup.suppressed = 0;
  }
}

std::size_t ScopedWarningDedup::suppressed_count() noexcept {
  std::lock_guard<std::mutex> lock(handler_mutex());
  return dedup_state().suppressed;
}

}  // namespace rlcx::diag
