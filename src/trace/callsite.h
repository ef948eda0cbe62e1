// Call-site and call-stack interning, with provenance links.
//
// The paper stresses (Sections 3, 5.2) that raw timer logs are almost
// useless without knowing *who* set the timer: timers are multiplexed
// through layers (application select loop -> syscall -> kernel wheel), so
// the instrumentation records stack traces and the analysis clusters
// operations by call-site. tempo interns call-site names once and lets a
// call-site declare a provenance parent, forming the "dynamic tree of timer
// facilities" of Section 2.

#ifndef TEMPO_SRC_TRACE_CALLSITE_H_
#define TEMPO_SRC_TRACE_CALLSITE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/trace/record.h"

namespace tempo {

// Interns call-site names ("tcp/retransmit", "firefox/poll_fd") and call
// stacks (leaf-first CallsiteId sequences). Ids are dense and deterministic
// given registration order.
class CallsiteRegistry {
 public:
  CallsiteRegistry();

  // Interns `name`, optionally recording `parent` as its provenance parent
  // (the facility this one multiplexes onto). Re-interning an existing name
  // returns the existing id and leaves its parent unchanged.
  CallsiteId Intern(const std::string& name, CallsiteId parent = kUnknownCallsite);

  // Returns the name for an id ("?" for kUnknownCallsite).
  const std::string& Name(CallsiteId id) const;

  // Provenance parent of a call-site (kUnknownCallsite for roots).
  CallsiteId Parent(CallsiteId id) const;

  // Full provenance chain, leaf first, root last.
  std::vector<CallsiteId> Chain(CallsiteId id) const;

  // Interns a call stack (leaf first). The empty stack is kEmptyStack.
  StackId InternStack(const std::vector<CallsiteId>& frames);

  // InternStack(Chain(id)), interned on a call-site's first use and cached
  // after that. A chain never changes once interned, because re-interning
  // a name leaves its parent unchanged; stack ids keep first-use order.
  StackId ChainStack(CallsiteId id);

  // Frames of an interned stack, leaf first.
  const std::vector<CallsiteId>& Stack(StackId id) const;

  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::vector<CallsiteId> parents_;
  std::vector<StackId> chain_stacks_;  // kEmptyStack until first ChainStack
  std::unordered_map<std::string, CallsiteId> by_name_;
  std::vector<std::vector<CallsiteId>> stacks_;
  std::unordered_map<std::string, StackId> stacks_by_key_;
};

}  // namespace tempo

#endif  // TEMPO_SRC_TRACE_CALLSITE_H_
